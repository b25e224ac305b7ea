"""Golden verification suite.

Reproduces every worked monomial computation the kernel is pinned to:
the two-variable ideal (a^2, a*b) with its symbolic powers, saturators and
witness, the four-variable sum (x^2, x*y) + (z^2, z*t) with its
decomposition and saturation, the tensor structure of associated primes,
the depth/regularity conventions for the zero module, and the script
front-end renderings.

Each check is a pair of files in the package's ``golden`` directory:
``NN-name.idk``, a script in the script language, and ``NN-name.out``, the
lines it must print, written out by hand and never computed with the
kernel.  The checks run in characteristic 0, in the order of their
``NN-`` prefixes, and take their names from the rest of the file name.
Ideals print canonically, so equal lines mean equal ideals.  A failure
reports the script that ran.
"""

import os

from . import dsl as _dsl
from .fuzz import _report

_GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def run_verify() -> dict:
    """Run every golden check and return a JSON-ready report.

    A check that raises counts as a failure; a broken kernel must produce
    a report, not a traceback.
    """
    checks, failures = [], []
    for stem in sorted(f[:-4] for f in os.listdir(_GOLDEN) if f.endswith(".idk")):
        script = _read(os.path.join(_GOLDEN, stem + ".idk"))
        expected = _read(os.path.join(_GOLDEN, stem + ".out")).splitlines()
        name = stem.partition("-")[2]
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
