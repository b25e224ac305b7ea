"""Byte-identity gate: the full sha256 of each reference report's stdout.

Every speed-up must leave printed output byte-identical, so these digests
change only with an intended output change, logged with its reason.  The
CI workflow checks them under Python 3.10 to 3.13.
"""

import hashlib

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
