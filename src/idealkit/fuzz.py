"""Seeded fuzzing of the theorem-level identities.

Instance distribution (fixed; changing it breaks seeded reproducibility):
each case draws, in order, the variable count of side A (uniform in
[1, max_vars_per_side]), the ideals I then K on side A, the variable count
of side B, the ideals J then L, and finally the power s (uniform in
[1, max_s]).  An ideal draws a generator count uniform in
[1, max_generators] and then one exponent per variable, each uniform in
[0, max_exponent]; I and J redraw only when the unit ideal is drawn.  At
least one generator is drawn, so no ideal is zero.  Side A variables are
named x1, x2, ...; side B y1, y2, ....

A failing case is reported with a re-runnable script that rebuilds the
instance and prints both sides of the failed identity.
"""

from __future__ import annotations

import functools
import random

from . import binomial as _binomial
from . import dsl as _dsl
from . import homology as _homology
from . import powers as _powers
from .core import MonomialIdeal, Ring, _ideal, _Value, _whole_numbers, ideal_power, principal
from .decomposition import ass_star_bounded, associated_primes

SUITE_NAMES = (
    "thm38",
    "thm41_min",
    "thm41_ass",
    "lem32_36",
    "lem25_29",
    "thm44",
    "cor46",
    "lem45",
    "cor39_310",
    "cor43",
)

REPORT_SCHEMA = "idealkit-report/1"


class FuzzConfig(_Value):
    __match_args__ = (
        "seed",
        "max_vars_per_side",
        "max_generators",
        "max_exponent",
        "max_s",
        "cases",
        "suites",
    )

    def __init__(
        self,
        seed: int = 1,
        max_vars_per_side: int = 3,
        max_generators: int = 4,
        max_exponent: int = 3,
        max_s: int = 3,
        cases: int = 500,
        suites: tuple[str, ...] = SUITE_NAMES,
    ):
        # Whole numbers only: the draw (_randint) takes their bit lengths.
        sizes = _whole_numbers((max_vars_per_side, max_generators, max_exponent, max_s, cases))
        for name, size in zip(self.__match_args__[1:], sizes):
            if size < 1:
                raise ValueError(f"{name} must be at least 1")
        suites = tuple(suites)
        unknown = [s for s in suites if s not in SUITE_NAMES]
        if unknown:
            raise ValueError(f"unknown suites: {unknown}")
        super().__init__(seed, *sizes, suites)


class Instance(_Value):
    __match_args__ = ("ring_a", "ideal_i", "sat_k", "ring_b", "ideal_j", "sat_l", "s")

    def script(self, body: str = "") -> str:
        lines = [
            f"ring A = [{', '.join(self.ring_a.variables)}];",
            f"ideal I = {self.ideal_i} in A;",
            f"ideal K = {self.sat_k} in A;",
            f"ring B = [{', '.join(self.ring_b.variables)}];",
            f"ideal J = {self.ideal_j} in B;",
            f"ideal L = {self.sat_l} in B;",
        ]
        if body:
            lines.append(body)
        return "\n".join(lines)


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """``rng.randint(lo, hi)``, drawn from the same bits.

    CPython's ``randint`` draws r = getrandbits(k) for k the bit length of
    n = hi - lo + 1, again while r >= n, and returns lo + r; this is that
    rejection sampler without the argument checks and calls around it,
    so the stream, and every seeded instance, stays the same.  lo == hi
    still draws one bit at least.
    """
    n = hi - lo + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


def _draw_ideal(rng: random.Random, ring: Ring, cfg: FuzzConfig, proper: bool) -> MonomialIdeal:
    variables, top = range(ring.nvars), cfg.max_exponent
    while True:
        count = _randint(rng, 1, cfg.max_generators)
        ideal = _ideal(ring, [
            tuple([_randint(rng, 0, top) for _ in variables]) for _ in range(count)
        ])
        if not (proper and ideal.is_unit):
            return ideal


def generate_instance(rng: random.Random, cfg: FuzzConfig) -> Instance:
    nvars_a = _randint(rng, 1, cfg.max_vars_per_side)
    ring_a = Ring(tuple(f"x{i + 1}" for i in range(nvars_a)))
    ideal_i = _draw_ideal(rng, ring_a, cfg, proper=True)
    sat_k = _draw_ideal(rng, ring_a, cfg, proper=False)
    nvars_b = _randint(rng, 1, cfg.max_vars_per_side)
    ring_b = Ring(tuple(f"y{i + 1}" for i in range(nvars_b)))
    ideal_j = _draw_ideal(rng, ring_b, cfg, proper=True)
    sat_l = _draw_ideal(rng, ring_b, cfg, proper=False)
    s = _randint(rng, 1, cfg.max_s)
    return Instance(ring_a, ideal_i, sat_k, ring_b, ideal_j, sat_l, s)


class CaseOutcome(_Value):
    """One checked case: the verdict, the expected and actual texts a failure
    reports, the script body that reruns it, and ``counters``, a tuple of
    ``(name, count)`` pairs that ``run_suite`` sums over the cases.  A
    passing case has empty texts (``_outcome``)."""

    __match_args__ = ("ok", "expected", "actual", "script_body", "counters")


def _outcome(ok: bool, counters: tuple, failure) -> CaseOutcome:
    """The outcome of a case, with the (expected, actual, script body) that
    ``failure()`` returns; it is called only when the case failed, so a
    passing case prints no ideal and no report."""
    if ok:
        return CaseOutcome(True, "", "", "", counters)
    return CaseOutcome(False, *failure(), counters)


def _check_thm38(inst: Instance, char: int) -> CaseOutcome:
    expansion = _binomial.binomial_saturated(
        inst.ideal_i, inst.sat_k, inst.ideal_j, inst.sat_l, inst.s
    )
    direct = _binomial.direct_saturated_sum(
        inst.ideal_i, inst.sat_k, inst.ideal_j, inst.sat_l, inst.s
    )

    def failure():
        body = (
            f"print binom_sat(I, K, J, L, {inst.s});\n"
            "ring R = join(A, B);\n"
            f"print saturate((extend(I, R) + extend(J, R))^{inst.s}, "
            f"extend(K, R) * extend(L, R));"
        )
        label = "saturated power of the sum"
        return f"{label}: {direct}", f"{label}: {expansion}", body

    return _outcome(direct == expansion, (), failure)


def symbolic_route_consistency(
    ideal: MonomialIdeal, s: int, notion: str, n_max: int
) -> tuple[bool, dict]:
    """Compare the decomposition route with the saturation routes.

    Always checks the per-power saturator; checks the bounded-global
    saturator only when the associated primes of powers stabilized below
    n_max, and the single-element route whenever a witness exists (valid
    as long as n_max >= s).  The bounded union of Ass(I^n) and the global
    saturator are computed once; the witness is that saturator's least
    usable generator.  Returns the verdict and the applicability counts.
    """
    reference = _powers.symbolic_power(ideal, s, notion)
    per_power = _powers._saturator(ideal, associated_primes(ideal_power(ideal, s)), notion)
    ok = reference == _powers.saturated_power(ideal, per_power, s)
    star, stabilized = ass_star_bounded(ideal, n_max)
    global_saturator = _powers._saturator(ideal, star, notion)
    if stabilized:
        ok = ok and reference == _powers.saturated_power(ideal, global_saturator, s)
    witnesses = _powers._witnesses(ideal, global_saturator, notion)
    if witnesses:
        ok = ok and reference == _powers.saturated_power(ideal, principal(witnesses[0]), s)
    return ok, {
        "global_checked": int(stabilized),
        "global_skipped": int(not stabilized),
        "witness_checked": int(bool(witnesses)),
        "witness_missing": int(not witnesses),
    }


def _check_thm41(inst: Instance, char: int, notion: str) -> CaseOutcome:
    expansion = _binomial.binomial_symbolic(inst.ideal_i, inst.ideal_j, inst.s, notion)
    direct = _binomial.symbolic_of_sum(inst.ideal_i, inst.ideal_j, inst.s, notion)
    n_max = _binomial._ass_star_bound(inst.s)
    ok_i, counters_i = symbolic_route_consistency(inst.ideal_i, inst.s, notion, n_max)
    ok_j, counters_j = symbolic_route_consistency(inst.ideal_j, inst.s, notion, n_max)
    routes_ok = ok_i and ok_j

    def failure():
        label = f"symbolic power ({notion}) of the sum"
        expected, actual = f"{label}: {direct}", f"{label}: {expansion}"
        if not routes_ok:
            expected += "; all saturation routes agree"
            actual += "; a saturation route disagreed"
        body = (
            f"print binom_symb(I, J, {inst.s}, {notion});\n"
            "ring R = join(A, B);\n"
            "ideal P = extend(I, R) + extend(J, R);\n"
            f"print satpow(P, satk_{notion}(P, {inst.s}), {inst.s});"
        )
        return expected, actual, body

    counters = tuple(counters_i.items()) + tuple(counters_j.items())
    return _outcome(direct == expansion and routes_ok, counters, failure)


def _check_lem32_36(inst: Instance, char: int) -> CaseOutcome:
    i, k, j, l, s = inst.ideal_i, inst.sat_k, inst.ideal_j, inst.sat_l, inst.s
    ts = range(1, s + 1)

    def powers(power, *ideals):
        """The list of ``power(*ideals, t)`` for t = 1..s."""
        return [power(*ideals, t) for t in ts]

    def listing(term):
        """The script list of ``term`` filled in with t = 1..s."""
        return "[" + ", ".join(term.format(t) for t in ts) + "]"

    k_powers = powers(ideal_power, k)
    ordinary = _binomial.check_filtration_identities(
        powers(ideal_power, i), k_powers, powers(ideal_power, j), k, s
    )
    sat = _powers.saturated_power
    saturated = _binomial.check_filtration_identities(
        powers(sat, i, k), k_powers, powers(sat, j, l), k, s
    )
    terms = _binomial.check_term_inclusions(i, k, j, l, s)
    ok = ordinary.passed and saturated.passed and terms.passed

    def failure():
        k_list = listing("K^{}")
        body = (
            f"print check_filt({listing('I^{}')}, {k_list}, {listing('J^{}')}, K, {s});\n"
            f"print check_filt({listing('satpow(I, K, {})')}, {k_list}, "
            f"{listing('satpow(J, L, {})')}, K, {s});\n"
            f"print check_terms(I, K, J, L, {s});"
        )
        return (
            "all filtration identities and term inclusions hold",
            f"ordinary: {ordinary}; saturated: {saturated}; {terms}",
            body,
        )

    return _outcome(ok, (), failure)


def _check_lem45(inst: Instance, char: int) -> CaseOutcome:
    high = _powers.saturated_power(inst.ideal_i, inst.sat_k, inst.s)
    low = _powers.saturated_power(inst.ideal_i, inst.sat_k, inst.s - 1)
    derived = _homology.deriv_star(high)

    def failure():
        body = (
            f"print dstar(satpow(I, K, {inst.s}));\n"
            f"print satpow(I, K, {inst.s - 1});"
        )
        return f"dstar contained in {low}", str(derived), body

    return _outcome(low.contains_ideal(derived), (), failure)


# suite -> (script built-in, argument letters, expected text, counter): the
# suite calls the built-in on the named ideals and s, and passes when the
# returned report does; a counter names a report flag tallied per case.
_REPORT_SUITES = {
    "lem25_29": (
        "check_ass", "IJ", "tensor, bounds, grade and saturator checks all hold",
        "inconclusive",
    ),
    "thm44": ("check_depthreg", "IKJL", "depth and regularity formulas agree", None),
    "cor46": ("check_depthreg_ass", "IJ", "depth and regularity formulas agree", None),
    "cor39_310": (
        "check_eq", "IKJL", "joint equality iff componentwise equalities", None
    ),
    "cor43": (
        "check_symb_eq", "IJ", "ordinary symbolic equality propagates to both sides",
        "joint_equal",
    ),
}

_LETTERS = {"I": "ideal_i", "K": "sat_k", "J": "ideal_j", "L": "sat_l"}


def _check_report(builtin, letters, expected, counter, inst: Instance, char: int):
    """Run a report-returning built-in; its function and whether it takes the
    characteristic are read from the script language's table at call time."""
    row = _dsl._SIGNATURES[builtin]
    args = [getattr(inst, _LETTERS[letter]) for letter in letters] + [inst.s]
    if row.with_char:
        args.append(char)
    report = getattr(row.module, row.attr)(*args)
    counters = ((counter, 1 if getattr(report, counter) else 0),) if counter else ()
    return _outcome(
        report.passed,
        counters,
        lambda: (expected, str(report), f"print {builtin}({', '.join(letters)}, {inst.s});"),
    )


_SUITE_CHECKS = {
    "thm38": _check_thm38,
    "thm41_min": lambda inst, char: _check_thm41(inst, char, "min"),
    "thm41_ass": lambda inst, char: _check_thm41(inst, char, "ass"),
    "lem32_36": _check_lem32_36,
    "lem45": _check_lem45,
    **{
        name: functools.partial(_check_report, *row)
        for name, row in _REPORT_SUITES.items()
    },
}


def _report(suite: str, cases: int, passes: int, failures: list[dict], **extra) -> dict:
    """The fields of every JSON report, in their printed order, then ``extra``."""
    return dict(
        schema=REPORT_SCHEMA, suite=suite, cases=cases, passes=passes, failures=failures, **extra
    )


def run_suite(name: str, config: FuzzConfig, char: int = 0) -> dict:
    """Run one suite over the seeded instance stream and report results."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")
    check = _SUITE_CHECKS[name]
    rng = random.Random(config.seed)
    passes = 0
    failures = []
    counters: dict[str, int] = {}
    for _ in range(config.cases):
        instance = generate_instance(rng, config)
        outcome = check(instance, char)
        for key, value in outcome.counters:
            counters[key] = counters.get(key, 0) + value
        if outcome.ok:
            passes += 1
        elif len(failures) < 5:
            failures.append(
                {
                    "instance_script": instance.script(outcome.script_body),
                    "expected": outcome.expected,
                    "actual": outcome.actual,
                }
            )
    report = _report(name, config.cases, passes, failures)
    if counters:
        report["counters"] = dict(sorted(counters.items()))
    return report


def run_fuzz(config: FuzzConfig, char: int = 0) -> tuple[int, list[dict]]:
    """Run the configured suites; exit status 0 iff every case passed."""
    reports = [run_suite(name, config, char) for name in config.suites]
    status = 0 if all(r["passes"] == r["cases"] for r in reports) else 1
    return status, reports

