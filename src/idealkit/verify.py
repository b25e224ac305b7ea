"""Golden verification suite.

Reproduces every worked monomial computation the kernel is pinned to:
the two-variable ideal (a^2, a*b) with its symbolic powers, saturators and
witness, the four-variable sum (x^2, x*y) + (z^2, z*t) with its
decomposition and saturation, the tensor structure of associated primes,
the depth/regularity conventions for the zero module, and the script
front-end renderings.  Each check is a script, run through the script
language; its printed lines are compared with hand-written ones.  Ideals
print canonically, so equal lines mean equal ideals.  A failure reports
the script that ran.
"""

from . import dsl as _dsl
from .fuzz import _report

_AI = "ring A = [a, b];\nideal I = (a^2, a*b) in A;\n"
_RS = "ring R = [x, y, z, t];\nideal S = (x^2, x*y, z^2, z*t) in R;\n"


def _prints(call, powers):
    """One print statement per power: 'print call(I, s);' for s in powers."""
    return "".join(f"print {call}(I, {s});\n" for s in powers)


# (name, script, expected printed lines); the expected lines are written
# out by hand and never computed with the kernel.
_CHECKS = (
    ("power_of_example_ideal", _AI + "print I^2;", ["(a^4, a^3*b, a^2*b^2)"]),
    (
        "disjoint_product_equals_intersection",
        "ring A = [x, y];\nideal X = (x) in A;\nideal Y = (y) in A;\n"
        "print X * Y;\nprint intersect(X, Y);",
        ["(x*y)", "(x*y)"],
    ),
    (
        "example_ideal_component_intersection",
        _AI + "print intersect((a), (a^2, b));",
        ["(a^2, a*b)"],
    ),
    (
        "sum_example_saturation",
        _RS + "print saturate(S, (x, y, z, t));",
        ["(x^2, x*y, x*z, z^2, z*t)"],
    ),
    ("example_ideal_saturation", _AI + "print saturate(I, (a, b));", ["(a)"]),
    (
        "sum_example_irreducible_decomposition",
        _RS + "print irrdecomp(S);",
        ["{(x, z), (x, t, z^2), (y, z, x^2), (y, t, x^2, z^2)}"],
    ),
    (
        "sum_example_primary_keys",
        _RS + "print decompose(S);",
        [
            "{(x, z): (x, z), (x, y, z): (y, z, x^2), (x, z, t): (x, t, z^2), "
            "(x, y, z, t): (y, t, x^2, z^2)}"
        ],
    ),
    (
        "example_ideal_ass_and_min",
        _AI + "print ass(I);\nprint min(I);",
        ["{(a), (a, b)}", "{(a)}"],
    ),
    (
        "example_ideal_ass_star",
        _AI + "print assstar(I, 3);",
        ["{(a), (a, b)} stabilized=true"],
    ),
    ("example_ideal_grade_zero", _AI + "print gradezero((a, b), I);", ["true"]),
    ("example_ideal_quotient_ass", _AI + "print assquot(I, 1);", ["{(a), (a, b)}"]),
    (
        "example_ideal_saturated_powers",
        _AI + "print satpow(I, (a, b), 2);\nprint satpow(I, (b), 3);",
        ["(a^2)", "(a^3)"],
    ),
    (
        "example_ideal_saturators",
        _AI + _prints("satk_min", range(1, 5)) + _prints("satk_ass", range(1, 5)),
        ["(a, b)"] * 4 + ["(1)"] * 4,
    ),
    (
        "example_ideal_symbolic_powers",
        _AI + _prints("symb_min", range(1, 6)) + _prints("symb_ass", range(1, 6)),
        [
            "(a)", "(a^2)", "(a^3)", "(a^4)", "(a^5)",
            "(a^2, a*b)", "(a^4, a^3*b, a^2*b^2)", "(a^6, a^5*b, a^4*b^2, a^3*b^3)",
            "(a^8, a^7*b, a^6*b^2, a^5*b^3, a^4*b^4)",
            "(a^10, a^9*b, a^8*b^2, a^7*b^3, a^6*b^4, a^5*b^5)",
        ],
    ),
    ("example_ideal_regular_witness", _AI + "print witness(I, min);", ["b"]),
    (
        "binomial_symbolic_ass_is_ordinary_square",
        _AI + "ring B = [c, d];\nideal J = (c^2, c*d) in B;\n"
        "print binom_symb(I, J, 2, ass);",
        [
            "(a^4, a^3*b, a^2*b^2, a^2*c^2, a^2*c*d, a*b*c^2, a*b*c*d, c^4, "
            "c^3*d, c^2*d^2)"
        ],
    ),
    (
        "join_of_disjoint_rings",
        "ring A = [x, y];\nring B = [z, t];\nprint join(A, B);",
        ["[x, y, z, t]"],
    ),
    (
        "zero_module_depth_reg_conventions",
        "ring A = [x, y];\nprint depth((1));\nprint reg((1));",
        ["+inf", "-inf"],
    ),
    (
        "sum_example_ass_structure",
        "ring A = [x, y];\nideal I = (x^2, x*y) in A;\n"
        "ring B = [z, t];\nideal J = (z^2, z*t) in B;\n"
        "ring R = join(A, B);\nprint ass(extend(I, R) + extend(J, R));",
        ["{(x, z), (x, y, z), (x, z, t), (x, y, z, t)}"],
    ),
    ("script_symbolic_power_render", _AI + "print symb_min(I, 2);", ["(a^2)"]),
    (
        "script_saturation_render",
        "ring R = [x, y, z, t];\nprint saturate((x^2, x*y, z^2, z*t), (x, y, z, t));",
        ["(x^2, x*y, x*z, z^2, z*t)"],
    ),
)


def run_verify() -> dict:
    """Run every golden check and return a JSON-ready report.

    A check that raises counts as a failure; a broken kernel must produce
    a report, not a traceback.
    """
    checks, failures = [], []
    for name, script, expected in _CHECKS:
        try:
            lines = _dsl.run_script(script)
            actual, passed = "; ".join(lines), lines == expected
        except Exception as exc:  # noqa: BLE001 - deliberate fault barrier
            actual, passed = repr(exc), False
        checks.append({"name": name, "passed": passed})
        if not passed:
            failures.append(
                {
                    "name": name,
                    "instance_script": script,
                    "expected": "; ".join(expected),
                    "actual": actual,
                }
            )
    passes = sum(1 for c in checks if c["passed"])
    return _report("verify", len(checks), passes, failures, checks=checks)
