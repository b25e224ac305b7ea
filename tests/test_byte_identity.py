"""Byte-identity gate: the full sha256 of each reference report's stdout.

Every speed-up must leave printed output byte-identical, so these digests
change only with an intended output change, logged with its reason.  The
failure reports are pinned too: each suite, made to fail by a patch of what
it checks, must print the same expected and actual texts and reproducers.
The CI workflow checks them under Python 3.10 to 3.13.
"""

import hashlib

import pytest

from idealkit import binomial, core, homology
from idealkit.cli import main

HUNDRED_CASES = "fuzz --seed 1 --cases 100 --json"

DIGESTS = {
    "verify --json": "050add8aa7cfe5b0b40661e864a98728533804042a9417faab83622d348eb3a3",
    "fuzz --seed 3 --cases 30 --char 0 --json": (
        "83a73e7f5531d278ffe36e47db50d632c1c53b116b29b174b0d10aad5a981267"
    ),
    "fuzz --seed 3 --cases 30 --char 2 --json": (
        "83a73e7f5531d278ffe36e47db50d632c1c53b116b29b174b0d10aad5a981267"
    ),
    HUNDRED_CASES: "180cf8ccd015b1b05b0578cde318956146e03227e3ed6af03a17c6d208741a46",
    "fuzz --seed 1 --cases 10 --max-vars 4 --max-gens 5 --max-exp 4 --max-s 4 --json": (
        "851518097b5a28845e764f54d9caa650df1b43e8c1efeba049ffc0007780d014"
    ),
}


def stdout_digest(capsys, command):
    code = main(command.split())
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return hashlib.sha256(out.encode()).hexdigest()


def test_reports_are_byte_identical(capsys):
    found = {command: stdout_digest(capsys, command) for command in DIGESTS}
    assert found == DIGESTS
    # A second run in the same process reads saturated and symbolic powers,
    # decompositions and powers from the memos the first filled.
    assert stdout_digest(capsys, HUNDRED_CASES) == DIGESTS[HUNDRED_CASES]


def _squared(module, attr):
    healthy = getattr(module, attr)
    return module, attr, lambda *args: core.ideal_power(healthy(*args), 2)


def _failing(report):
    return report, "passed", property(lambda self: False)


# suite -> (object, attribute, replacement): the patch that makes the suite
# fail, so its report holds failure texts and reproducers (thm38 and lem45
# still pass the cases where the squared or unit ideal is the right one).
FAULTS = {
    "thm38": _squared(binomial, "binomial_saturated"),
    "thm41_min": _squared(binomial, "binomial_symbolic"),
    "thm41_ass": _squared(binomial, "binomial_symbolic"),
    "lem32_36": (
        binomial,
        "check_term_inclusions",
        lambda i, k, j, l, s: binomial.TermInclusionReport((False,) * s),
    ),
    "lem25_29": _failing(binomial.AssStructureReport),
    "thm44": _failing(binomial.DepthRegReport),
    "cor46": _failing(binomial.DepthRegReport),
    "lem45": (homology, "deriv_star", lambda ideal: core.MonomialIdeal.unit(ideal.ring)),
    "cor39_310": _failing(binomial.EqualityCriteriaReport),
    "cor43": _failing(binomial.SymbolicEqualityReport),
}

FAILURE_DIGESTS = {
    "thm38": "3adb30f0986b14529789c067e11c28adc7f1734bf63f78648fb04f9cb122abed",
    "thm41_min": "5636155d3145d423d99bebb8a76d0245065290ac4c19aa189968d7901c98faad",
    "thm41_ass": "c9091594b8904f94f1031c8f22bf1ec5cf543367cfccddf60b96c391b38ede23",
    "lem32_36": "0b32c36ace82156f483b83539b61697f1e6c918db754f6eb44410a8e94471b68",
    "lem25_29": "9a874f4cdbcbc0939eabb281b53297070e8e550841b67e3006b793bddafa235b",
    "thm44": "9dbd8c0d9f97a47051276934bde5298125e86bbfcc22ef088d1aef23121ed4f6",
    "cor46": "ed2fe8d06945295c052a6d88afb218ce7eae096918cb4ee60ba0fbeedc6552cb",
    "lem45": "e211cd593a531a924feb04f87a44807324f6ef738f3f2864244873da0d573922",
    "cor39_310": "6f7246c313b6f7b8fed27f5fb72809c8e91f72c662c2a7c7cdbf6490c33f047e",
    "cor43": "e781d48c3902e6ea11512859e196a57b6d87237fce7914251f09bf5c12fb9af9",
}


@pytest.mark.parametrize("suite", FAULTS)
def test_failure_reports_are_byte_identical(suite, capsys, monkeypatch):
    monkeypatch.setattr(*FAULTS[suite])
    code = main(["fuzz", "--seed", "1", "--cases", "8", "--suite", suite, "--json"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert hashlib.sha256(out.encode()).hexdigest() == FAILURE_DIGESTS[suite]
