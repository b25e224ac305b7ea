"""Seeded inputs and timed operations for the benchmark workloads.

A batch is the unit of work one fresh interpreter runs: a fixed list of
ops whose inputs are drawn from ``(workload, batch id)`` alone.  Drawing
uses only the standard library and produces plain text (ring variables,
generator lists, scripts), so the program under test receives nothing
but generated inputs and parses them itself.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("fuzz-default", "powers-decomp", "betti", "script")

# fuzz-default: cases per suite in one `idealkit fuzz` invocation.
FUZZ_CASES = 5
# Sizes below are grids: op k of a batch takes the k-th combination of
# the listed values, so every batch holds every kind of op equally often
# and only the generators are random.  A random mix of cheap and costly
# kinds made medians jump between seeds.  A shape is (variables,
# generators of I, s), and every I drawn for a shape is generic for it
# (``draw_generic``), so a shape fixes how many generators I^s has.
# powers-decomp: (I, s) pairs over more variables than the fuzz draws.
# An odd number of shapes keeps the op median inside one shape's ops.
POWERS_SHAPES = ((4, 3, 2), (4, 3, 3), (4, 4, 2), (4, 4, 3), (5, 3, 2),
                 (5, 3, 3), (5, 4, 2), (5, 4, 3), (5, 5, 2))
POWERS_REPEATS = 3
POWERS_MAX_EXP = 2
POWERS_OPS = POWERS_REPEATS * len(POWERS_SHAPES)
# betti: each op is the Betti table of I^s in one characteristic.  The
# shapes' op times span only a factor of about 25, so that many ops lie
# near the op median and the median of a run rests on many of them.
BETTI_SHAPES = ((4, 3, 2), (4, 4, 2), (4, 3, 3), (4, 5, 2), (4, 4, 3),
                (5, 3, 2), (5, 4, 2), (5, 3, 3), (5, 5, 2))
BETTI_CHARS = (0, 2, 3)
BETTI_REPEATS = 2
BETTI_MAX_EXP = 3
BETTI_OPS = BETTI_REPEATS * len(BETTI_SHAPES) * len(BETTI_CHARS)
# script: scripts per batch and statements per script.
SCRIPT_OPS = 160
SCRIPT_STATEMENTS = 30
SCRIPT_VARS = (3, 4)
SCRIPT_GENS = (2, 4)
SCRIPT_MAX_EXP = 3

LETTERS = "abcdefgh"


def batch_rng(workload: str, batch: int) -> random.Random:
    # String seeds hash through SHA-512, so draws do not depend on
    # PYTHONHASHSEED or on the interpreter build.
    return random.Random(f"{workload}/{batch}")


def grid(k: int, *axes):
    """The k-th combination of ``axes``, first axis varying fastest."""
    out = []
    for axis in axes:
        out.append(axis[k % len(axis)])
        k //= len(axis)
    return out


def monomial_text(variables, exps) -> str:
    parts = []
    for name, e in zip(variables, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) or "1"


def _draw_exponents(rng, nvars, ngens, max_exp):
    """``ngens`` nonconstant exponent vectors, so the ideal is proper."""
    gens = []
    while len(gens) < ngens:
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        if any(exps):
            gens.append(exps)
    return gens


def _product_exponents(gens, s):
    """All s-fold products of generators; the program minimalizes them."""
    products = [(0,) * len(gens[0])]
    for _ in range(s):
        products = [tuple(a + b for a, b in zip(p, g)) for p in products for g in gens]
    return sorted(set(products))


def _minimal(vectors):
    """The vectors that no other vector of the set lies below."""
    vectors = set(vectors)
    return [v for v in vectors
            if not any(u != v and all(a <= b for a, b in zip(u, v)) for u in vectors)]


def draw_generic(rng, nvars, ngens, s, max_exp):
    """Exponents of a generic I for (nvars, ngens, s), drawn until one is.

    Generic: the ``ngens`` generators are minimal and all C(ngens+s-1, s)
    products of s of them are distinct minimal generators of I^s.  The
    cost of an op grows steeply with the number of minimal generators of
    I^s: without this condition two ideals of one shape can differ in cost
    a thousandfold, and a batch's time rests on its few costliest draws.
    """
    want = math.comb(ngens + s - 1, s)
    while True:
        gens = _draw_exponents(rng, nvars, ngens, max_exp)
        if (len(_minimal(gens)) == ngens
                and len(_minimal(_product_exponents(gens, s))) == want):
            return gens


def draw_powers_inputs(batch: int):
    """[(variables, generator text, s)] for the powers-decomp workload."""
    rng = batch_rng("powers-decomp", batch)
    out = []
    for k in range(POWERS_OPS):
        nvars, ngens, s = grid(k, POWERS_SHAPES)[0]
        variables = LETTERS[:nvars]
        gens = draw_generic(rng, nvars, ngens, s, POWERS_MAX_EXP)
        out.append((variables, ", ".join(monomial_text(variables, g) for g in gens), s))
    return out


def draw_betti_inputs(batch: int):
    """[(variables, generator text of I^s, s, char)] for the betti workload."""
    rng = batch_rng("betti", batch)
    out = []
    for k in range(BETTI_OPS):
        (nvars, ngens, s), char = grid(k, BETTI_SHAPES, BETTI_CHARS)
        variables = LETTERS[:nvars]
        gens = draw_generic(rng, nvars, ngens, s, BETTI_MAX_EXP)
        text = ", ".join(monomial_text(variables, g) for g in _product_exponents(gens, s))
        out.append((variables, text, s, char))
    return out


# Script statements as plans: ("decl", name, generator text), ("let", name,
# op, x, y) binding x op y, or ("print", op, *operands).  Binary ops on
# declared (proper, nonzero) ideals keep every binding proper and nonzero,
# so `ass` never sees the unit ideal.
SCRIPT_PRINTS = ("sum", "prod", "pow", "intersect", "colon", "radical",
                 "saturate", "contains", "ass", "dstar")
SCRIPT_LETS = ("sum", "prod", "intersect")


def draw_script(rng: random.Random, nvars: int):
    """One script as (variables, plan); ``render_script`` gives its text."""
    variables = LETTERS[:nvars]
    plan = []
    names = []
    for k in range(3):
        name = "IJK"[k]
        gens = _draw_exponents(rng, len(variables), rng.randint(*SCRIPT_GENS), SCRIPT_MAX_EXP)
        plan.append(("decl", name, ", ".join(monomial_text(variables, g) for g in gens)))
        names.append(name)
    while len(plan) < SCRIPT_STATEMENTS:
        if rng.random() < 0.1:
            name = f"L{len(plan)}"
            plan.append(("let", name, rng.choice(SCRIPT_LETS), rng.choice(names), rng.choice(names)))
            names.append(name)
            continue
        op = rng.choice(SCRIPT_PRINTS)
        x = rng.choice(names)
        if op in ("sum", "prod", "intersect", "colon"):
            plan.append(("print", op, x, rng.choice(names)))
        elif op == "pow":
            plan.append(("print", op, x, rng.randint(2, 3)))
        elif op == "saturate":
            plan.append(("print", op, x, rng.choice(variables)))
        elif op == "contains":
            exps = tuple(rng.randint(0, SCRIPT_MAX_EXP + 1) for _ in variables)
            plan.append(("print", op, x, monomial_text(variables, exps)))
        else:
            plan.append(("print", op, x))
    return variables, plan


_SCRIPT_EXPR = {
    "sum": "{0} + {1}",
    "prod": "{0} * {1}",
    "pow": "{0}^{1}",
    "intersect": "intersect({0}, {1})",
    "colon": "colon({0}, {1})",
    "radical": "radical({0})",
    "saturate": "saturate({0}, ({1}))",
    "contains": "contains({0}, {1})",
    "ass": "ass({0})",
    "dstar": "dstar({0})",
}


def render_script(variables, plan) -> str:
    lines = [f"ring R = [{', '.join(variables)}];"]
    for step in plan:
        if step[0] == "decl":
            lines.append(f"ideal {step[1]} = ({step[2]}) in R;")
        elif step[0] == "let":
            _, name, op, x, y = step
            lines.append(f"ideal {name} = {_SCRIPT_EXPR[op].format(x, y)};")
        else:
            lines.append(f"print {_SCRIPT_EXPR[step[1]].format(*step[2:])};")
    return "\n".join(lines) + "\n"


def draw_script_inputs(batch: int):
    """[(variables, plan, script text)] for the script workload."""
    rng = batch_rng("script", batch)
    out = []
    for k in range(SCRIPT_OPS):
        variables, plan = draw_script(rng, grid(k, SCRIPT_VARS)[0])
        out.append((variables, plan, render_script(variables, plan)))
    return out


def render_primes(primes) -> str:
    ordered = sorted(primes, key=lambda p: p.sort_key())
    return "{" + ", ".join(str(p) for p in ordered) + "}"


def prepare_ops(workload: str, batch: int, ik):
    """Parse a batch's inputs with the program; return (ops, size summary).

    Each op is a zero-argument callable returning the op's canonical
    printed result.  ``ik`` is the imported ``idealkit`` package; ops look
    functions up on its modules at call time so that traced runs see the
    wrapped names.
    """
    core, dec, powers, homology, dsl = ik.core, ik.decomposition, ik.powers, ik.homology, ik.dsl
    ops = []
    if workload == "powers-decomp":
        gens = []
        for variables, text, s in draw_powers_inputs(batch):
            ideal = core.MonomialIdeal.parse(core.Ring(tuple(variables)), text)
            gens.append(len(ideal.generators))

            def op(ideal=ideal, s=s):
                primes = dec.associated_primes(core.ideal_power(ideal, s))
                return "; ".join(
                    (render_primes(primes), str(powers.symbolic_min(ideal, s)),
                     str(powers.symbolic_ass(ideal, s)))
                )

            ops.append(op)
        size = {"shapes": [list(shape) for shape in POWERS_SHAPES],
                "gens_of_I": [min(gens), max(gens)], "max_exp": POWERS_MAX_EXP,
                "generic": True}
    elif workload == "betti":
        gens = []
        for variables, text, s, char in draw_betti_inputs(batch):
            ideal = core.MonomialIdeal.parse(core.Ring(tuple(variables)), text)
            gens.append(len(ideal.generators))
            ops.append(lambda ideal=ideal, char=char: str(homology.betti_table(ideal, char)))
        size = {"shapes": [list(shape) for shape in BETTI_SHAPES],
                "gens_of_I^s": [min(gens), max(gens)], "max_exp": BETTI_MAX_EXP,
                "chars": list(BETTI_CHARS), "generic": True}
    elif workload == "script":
        for _, _, text in draw_script_inputs(batch):
            ops.append(lambda text=text: "\n".join(dsl.run_script(text)))
        size = {"scripts": SCRIPT_OPS, "statements_per_script": SCRIPT_STATEMENTS + 1,
                "vars": list(SCRIPT_VARS)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops, size
