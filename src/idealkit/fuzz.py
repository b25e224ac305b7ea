"""Seeded fuzzing of the theorem-level identities.

Instance distribution (fixed; changing it breaks seeded reproducibility):
each case draws, in order, the variable count of side A (uniform in
[1, max_vars_per_side]), the ideals I then K on side A, the variable count
of side B, the ideals J then L, and finally the power s (uniform in
[1, max_s]).  An ideal draws a generator count uniform in
[1, max_generators] and then one exponent per variable, each uniform in
[0, max_exponent]; I and J redraw until nonzero and proper, K and L until
nonzero.  Side A variables are named x1, x2, ...; side B y1, y2, ....

A failing case is reported with a re-runnable script that rebuilds the
instance and prints both sides of the failed identity.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

from . import binomial as _binomial
from . import dsl as _dsl
from . import homology as _homology
from . import powers as _powers
from .core import MonomialIdeal, Ring, ideal_power, principal
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


@dataclass(frozen=True)
class FuzzConfig:
    seed: int = 1
    max_vars_per_side: int = 3
    max_generators: int = 4
    max_exponent: int = 3
    max_s: int = 3
    cases: int = 500
    suites: tuple[str, ...] = SUITE_NAMES

    def __post_init__(self):
        for name in ("max_vars_per_side", "max_generators", "max_exponent", "max_s", "cases"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        suites = tuple(self.suites)
        unknown = [s for s in suites if s not in SUITE_NAMES]
        if unknown:
            raise ValueError(f"unknown suites: {unknown}")
        object.__setattr__(self, "suites", suites)


@dataclass(frozen=True)
class Instance:
    ring_a: Ring
    ideal_i: MonomialIdeal
    sat_k: MonomialIdeal
    ring_b: Ring
    ideal_j: MonomialIdeal
    sat_l: MonomialIdeal
    s: int

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


def _draw_ideal(rng: random.Random, ring: Ring, cfg: FuzzConfig, proper: bool) -> MonomialIdeal:
    while True:
        count = rng.randint(1, cfg.max_generators)
        gens = []
        for _ in range(count):
            exps = tuple(rng.randint(0, cfg.max_exponent) for _ in range(ring.nvars))
            gens.append(ring.monomial(exps))
        ideal = MonomialIdeal(ring, tuple(gens))
        if ideal.is_zero:
            continue
        if proper and ideal.is_unit:
            continue
        return ideal


def generate_instance(rng: random.Random, cfg: FuzzConfig) -> Instance:
    nvars_a = rng.randint(1, cfg.max_vars_per_side)
    ring_a = Ring(tuple(f"x{i + 1}" for i in range(nvars_a)))
    ideal_i = _draw_ideal(rng, ring_a, cfg, proper=True)
    sat_k = _draw_ideal(rng, ring_a, cfg, proper=False)
    nvars_b = rng.randint(1, cfg.max_vars_per_side)
    ring_b = Ring(tuple(f"y{i + 1}" for i in range(nvars_b)))
    ideal_j = _draw_ideal(rng, ring_b, cfg, proper=True)
    sat_l = _draw_ideal(rng, ring_b, cfg, proper=False)
    s = rng.randint(1, cfg.max_s)
    return Instance(ring_a, ideal_i, sat_k, ring_b, ideal_j, sat_l, s)


@dataclass
class CaseOutcome:
    ok: bool
    expected: str = ""
    actual: str = ""
    script_body: str = ""
    counters: dict = field(default_factory=dict)


def _outcome_equal(label, expected, actual, script_body, counters=None):
    return CaseOutcome(
        ok=expected == actual,
        expected=f"{label}: {expected}",
        actual=f"{label}: {actual}",
        script_body=script_body,
        counters=counters or {},
    )


def _check_thm38(inst: Instance, char: int) -> CaseOutcome:
    expansion = _binomial.binomial_saturated(
        inst.ideal_i, inst.sat_k, inst.ideal_j, inst.sat_l, inst.s
    )
    direct = _binomial.direct_saturated_sum(
        inst.ideal_i, inst.sat_k, inst.ideal_j, inst.sat_l, inst.s
    )
    body = (
        f"print binom_sat(I, K, J, L, {inst.s});\n"
        "ring R = join(A, B);\n"
        f"print saturate((extend(I, R) + extend(J, R))^{inst.s}, "
        f"extend(K, R) * extend(L, R));"
    )
    return _outcome_equal("saturated power of the sum", direct, expansion, body)


def symbolic_route_consistency(
    ideal: MonomialIdeal, s: int, notion: str, n_max: int
) -> tuple[bool, dict]:
    """Compare the decomposition route with the saturation routes.

    Always checks the per-power saturator; checks the bounded-global
    saturator only when the associated primes of powers stabilized below
    n_max, and the single-element route whenever a witness exists (valid
    as long as n_max >= s).  Returns the verdict and applicability counts.
    """
    counters = {"global_checked": 0, "global_skipped": 0, "witness_checked": 0, "witness_missing": 0}
    reference = _powers.symbolic_power(ideal, s, notion)
    per_power = _powers._saturator(ideal, associated_primes(ideal_power(ideal, s)), notion)
    ok = reference == _powers.saturated_power(ideal, per_power, s)
    star, stabilized = ass_star_bounded(ideal, n_max)
    if stabilized:
        counters["global_checked"] = 1
        global_saturator = _powers._saturator(ideal, star, notion)
        ok = ok and reference == _powers.saturated_power(ideal, global_saturator, s)
    else:
        counters["global_skipped"] = 1
    witness = _powers.regular_witness(ideal, notion, n_max)
    if witness is None:
        counters["witness_missing"] = 1
    else:
        counters["witness_checked"] = 1
        ok = ok and reference == _powers.saturated_power(ideal, principal(witness), s)
    return ok, counters


def _check_thm41(inst: Instance, char: int, notion: str) -> CaseOutcome:
    expansion = _binomial.binomial_symbolic(inst.ideal_i, inst.ideal_j, inst.s, notion)
    direct = _binomial.symbolic_of_sum(inst.ideal_i, inst.ideal_j, inst.s, notion)
    n_max = max(2, inst.s + 2)
    ok_i, counters_i = symbolic_route_consistency(inst.ideal_i, inst.s, notion, n_max)
    ok_j, counters_j = symbolic_route_consistency(inst.ideal_j, inst.s, notion, n_max)
    counters = {k: counters_i[k] + counters_j[k] for k in counters_i}
    fn = f"symb_{notion}"
    body = (
        f"print binom_symb(I, J, {inst.s}, {notion});\n"
        "ring R = join(A, B);\n"
        f"print {fn}(extend(I, R) + extend(J, R), {inst.s});"
    )
    outcome = _outcome_equal(
        f"symbolic power ({notion}) of the sum", direct, expansion, body, counters
    )
    if not (ok_i and ok_j):
        outcome.ok = False
        outcome.expected += "; all saturation routes agree"
        outcome.actual += "; a saturation route disagreed"
    return outcome


def _check_lem32_36(inst: Instance, char: int) -> CaseOutcome:
    s = inst.s
    k_powers = [ideal_power(inst.sat_k, t) for t in range(1, s + 1)]
    ordinary = _binomial.check_filtration_identities(
        [ideal_power(inst.ideal_i, t) for t in range(1, s + 1)],
        k_powers,
        [ideal_power(inst.ideal_j, t) for t in range(1, s + 1)],
        inst.sat_k,
        s,
    )
    saturated = _binomial.check_filtration_identities(
        [_powers.saturated_power(inst.ideal_i, inst.sat_k, t) for t in range(1, s + 1)],
        k_powers,
        [_powers.saturated_power(inst.ideal_j, inst.sat_l, t) for t in range(1, s + 1)],
        inst.sat_k,
        s,
    )
    terms = _binomial.check_term_inclusions(
        inst.ideal_i, inst.sat_k, inst.ideal_j, inst.sat_l, s
    )
    ok = ordinary.passed and saturated.passed and terms.passed

    def powers(name):
        return "[" + ", ".join(f"{name}^{t}" for t in range(1, s + 1)) + "]"

    def satpows(name, sat):
        return "[" + ", ".join(f"satpow({name}, {sat}, {t})" for t in range(1, s + 1)) + "]"

    body = (
        f"print check_filt({powers('I')}, {powers('K')}, {powers('J')}, K, {s});\n"
        f"print check_filt({satpows('I', 'K')}, {powers('K')}, "
        f"{satpows('J', 'L')}, K, {s});\n"
        f"print check_terms(I, K, J, L, {s});"
    )
    return CaseOutcome(
        ok=ok,
        expected="all filtration identities and term inclusions hold",
        actual=f"ordinary: {ordinary}; saturated: {saturated}; {terms}",
        script_body=body,
    )


def _check_lem45(inst: Instance, char: int) -> CaseOutcome:
    high = _powers.saturated_power(inst.ideal_i, inst.sat_k, inst.s)
    low = _powers.saturated_power(inst.ideal_i, inst.sat_k, inst.s - 1)
    derived = _homology.deriv_star(high)
    ok = low.contains_ideal(derived)
    body = (
        f"print dstar(satpow(I, K, {inst.s}));\n"
        f"print satpow(I, K, {inst.s - 1});"
    )
    return CaseOutcome(
        ok=ok,
        expected=f"dstar contained in {low}",
        actual=str(derived),
        script_body=body,
    )


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
    module, attr, _, _, with_char = _dsl._SIGNATURES[builtin]
    args = [getattr(inst, _LETTERS[letter]) for letter in letters] + [inst.s]
    if with_char:
        args.append(char)
    report = getattr(module, attr)(*args)
    return CaseOutcome(
        ok=report.passed,
        expected=expected,
        actual=str(report),
        script_body=f"print {builtin}({', '.join(letters)}, {inst.s});",
        counters={counter: 1 if getattr(report, counter) else 0} if counter else {},
    )


def _check_symbolic_consistency(inst: Instance, char: int) -> CaseOutcome:
    """Route consistency for both notions on the side-A ideal."""
    n_max = max(2, inst.s + 2)
    ok = True
    counters = {}
    for notion in _powers.NOTIONS:
        notion_ok, notion_counters = symbolic_route_consistency(
            inst.ideal_i, inst.s, notion, n_max
        )
        ok = ok and notion_ok
        counters.update({f"{notion}_{k}": v for k, v in notion_counters.items()})
    return CaseOutcome(
        ok=ok,
        expected="all symbolic-power routes agree",
        actual="routes agree" if ok else "routes disagreed",
        script_body=f"print symb_min(I, {inst.s});\nprint symb_ass(I, {inst.s});",
        counters=counters,
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


def _run_cases(name: str, check, config: FuzzConfig, char: int) -> dict:
    """Run ``check`` over the seeded instance stream and report results."""
    rng = random.Random(config.seed)
    passes = 0
    failures = []
    counters: dict[str, int] = {}
    for _ in range(config.cases):
        instance = generate_instance(rng, config)
        outcome = check(instance, char)
        for key, value in outcome.counters.items():
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
    report = {
        "schema": REPORT_SCHEMA,
        "suite": name,
        "cases": config.cases,
        "passes": passes,
        "failures": failures,
    }
    if counters:
        report["counters"] = dict(sorted(counters.items()))
    return report


def run_suite(name: str, config: FuzzConfig, char: int = 0) -> dict:
    """Run one suite over the seeded instance stream and report results."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")
    return _run_cases(name, _SUITE_CHECKS[name], config, char)


def run_fuzz(config: FuzzConfig, char: int = 0) -> tuple[int, list[dict]]:
    """Run the configured suites; exit status 0 iff every case passed."""
    reports = [run_suite(name, config, char) for name in config.suites]
    status = 0 if all(r["passes"] == r["cases"] for r in reports) else 1
    return status, reports


def run_symbolic_consistency(config: FuzzConfig) -> dict:
    """Route-consistency sweep for both symbolic notions on single ideals.

    Uses the side-A ideal of each instance.  Applicability of the global
    and witness routes is counted per case and never silently dropped.
    """
    return _run_cases("symbolic_consistency", _check_symbolic_consistency, config, 0)
