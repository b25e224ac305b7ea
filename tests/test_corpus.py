"""The script corpus, run through ``idealkit run``.

A case is ``NAME.idk``, a script, and ``NAME.out``, its exact stdout.  A
case with ``NAME.err`` must write exactly that stderr and exit 2; any other
case must exit 0 and write nothing on stderr.  An optional first line
``# --char P`` is the one flag a case passes.

Three directories hold cases in this format: ``tests/scripts``, whose
cases run both in-process and in a fresh interpreter, which also sees
what is written at interpreter exit; ``tests/scripts/hard``, large powers
whose cases take seconds each, run under the ``slow`` marker; and the
package's ``golden`` directory, the checks of ``idealkit verify``, named
``NN-name`` with the prefixes 01, 02, ... in order, which take no flag and
no ``.err``.  The integrity checks make a lost or renamed file fail here,
so the coverage cannot quietly shrink.
"""

import os
import re
import subprocess
import sys

import pytest

from idealkit import cli
from idealkit.cli import main

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
SCRIPTS = os.path.join(TESTS, "scripts")
DIRECTORIES = {
    "scripts": SCRIPTS,
    "hard": os.path.join(SCRIPTS, "hard"),
    "golden": cli._GOLDEN,
}
GOLDEN_CHECKS = 21
HEADER = re.compile(r"# --char (\d+)")


def read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def stems(directory, suffix):
    return sorted(f[: -len(suffix)] for f in os.listdir(directory) if f.endswith(suffix))


def flags(script):
    """The ``run`` flags of a case: ``--char P`` from a first-line header."""
    header = HEADER.fullmatch(script.partition("\n")[0])
    return ["--char", header[1]] if header else []


def pinned(stem):
    """The exit code, stdout and stderr of a case, read from its directory."""
    if os.path.exists(f"{stem}.err"):
        return 2, read(f"{stem}.out"), read(f"{stem}.err")
    return 0, read(f"{stem}.out"), ""


CASES = [
    pytest.param(
        label, stem, id=f"{label}/{stem}", marks=[pytest.mark.slow] if label == "hard" else []
    )
    for label, path in DIRECTORIES.items()
    for stem in stems(path, ".idk")
]


@pytest.mark.parametrize("label, stem", CASES)
def test_case_prints_its_pinned_output(label, stem, capsys, monkeypatch):
    # From the case's own directory, so an error names the bare file name.
    monkeypatch.chdir(DIRECTORIES[label])
    code = main(["run", *flags(read(f"{stem}.idk")), f"{stem}.idk"])
    assert (code, *capsys.readouterr()) == pinned(stem)


@pytest.mark.parametrize("stem", stems(SCRIPTS, ".idk"), ids=lambda stem: f"scripts/{stem}")
def test_case_prints_its_pinned_bytes_in_a_fresh_interpreter(stem, monkeypatch):
    # The environment is inherited, PYTHONHASHSEED included, with this
    # checkout's src first on the path.
    monkeypatch.chdir(SCRIPTS)
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "idealkit.cli", "run", *flags(read(f"{stem}.idk")), f"{stem}.idk"],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    code, out, err = pinned(stem)
    assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode())


@pytest.mark.parametrize("label", DIRECTORIES)
def test_every_script_has_its_output_and_no_output_lacks_its_script(label):
    directory = DIRECTORIES[label]
    scripts = stems(directory, ".idk")
    assert scripts
    assert stems(directory, ".out") == scripts
    assert set(stems(directory, ".err")) <= set(scripts)
    files = [f for f in os.listdir(directory) if os.path.isfile(os.path.join(directory, f))]
    assert [f for f in files if not f.endswith((".idk", ".out", ".err"))] == []


@pytest.mark.parametrize("label", DIRECTORIES)
def test_a_header_holds_only_the_characteristic(label):
    directory = DIRECTORIES[label]
    for stem in stems(directory, ".idk"):
        first, *rest = read(os.path.join(directory, f"{stem}.idk")).split("\n")
        if first.startswith("# --"):
            assert HEADER.fullmatch(first), f"{stem}.idk: {first}"
        assert not [line for line in rest if line.startswith("# --")], f"{stem}.idk"


def test_golden_prefixes_run_from_one_without_gap_or_repeat():
    prefixes = [stem.partition("-")[0] for stem in stems(cli._GOLDEN, ".idk")]
    assert prefixes == [f"{n:02d}" for n in range(1, GOLDEN_CHECKS + 1)]


def test_golden_checks_take_no_flag_and_expect_no_error():
    # verify compares printed lines in characteristic 0 only, so a header
    # or a check that must fail has no place among them.
    assert stems(cli._GOLDEN, ".err") == []
    for stem in stems(cli._GOLDEN, ".idk"):
        assert not read(os.path.join(cli._GOLDEN, f"{stem}.idk")).startswith("# --")
