"""Command-line front end.

Exit codes: 0 on success, 1 when a verification or fuzz check fails,
2 on usage, parse, or evaluation errors, and 141 (128 + SIGPIPE) when the
reader of stdout closes it early (``| head``): the command stops, writing nothing more.

`run` parses the whole script first, so a parse error runs nothing; it then
writes each statement's output as that statement runs, so a script that
stops at an evaluation error keeps its earlier lines on stdout.

`verify` reproduces every worked monomial computation the kernel is pinned
to: the two-variable ideal (a^2, a*b) with its symbolic powers, saturators
and witness, the four-variable sum (x^2, x*y) + (z^2, z*t) with its
decomposition and saturation, the tensor structure of associated primes,
the depth/regularity conventions for the zero module, and the script
front-end renderings.  Each check is a pair of files in the package's
``golden`` directory: ``NN-name.idk``, a script in the script language,
and ``NN-name.out``, the lines it must print, written out by hand and never
computed with the kernel.  The checks run in characteristic 0, in the
order of their ``NN-`` prefixes, and take their names from the rest of the
file name.  Ideals print canonically, so equal lines mean equal ideals.  A
check that raises counts as a failure that reports the script that ran: a
broken kernel must produce a report, not a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import dsl, fuzz, homology

_GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _print_report_human(report: dict, out):
    suite = report["suite"]
    out.write(f"suite {suite}: {report['passes']}/{report['cases']} pass\n")
    for key, value in report.get("counters", {}).items():
        out.write(f"  {key}: {value}\n")
    for failure in report["failures"]:
        name = failure.get("name", "")
        label = f" [{name}]" if name else ""
        out.write(f"  FAIL{label}\n")
        out.write(f"    expected: {failure['expected']}\n")
        out.write(f"    actual:   {failure['actual']}\n")
        if failure.get("instance_script"):
            script = failure["instance_script"].replace("\n", "\n      ")
            out.write(f"    script:\n      {script}\n")


def _cmd_run(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except UnicodeDecodeError as exc:
        sys.stderr.write(f"error: {args.file}: {exc}\n")
        return 2
    try:
        for line in dsl.Evaluator(args.char).lines(text):
            print(line, flush=True)
    except (dsl.ParseError, dsl.EvalError) as exc:
        sys.stderr.write(f"error: {args.file}:{exc}\n")
        return 2
    return 0


def _cmd_verify(args) -> int:
    checks, failures = [], []
    for stem in sorted(f[:-4] for f in os.listdir(_GOLDEN) if f.endswith(".idk")):
        with open(os.path.join(_GOLDEN, stem + ".idk"), encoding="utf-8") as handle:
            script = handle.read()
        with open(os.path.join(_GOLDEN, stem + ".out"), encoding="utf-8") as handle:
            expected = handle.read().splitlines()
        name = stem.partition("-")[2]
        try:
            lines = dsl.run_script(script)
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
    report = fuzz._report("verify", len(checks), passes, failures, checks=checks)
    if args.json:
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        _print_report_human(report, sys.stdout)
        for check in report["checks"]:
            status = "ok  " if check["passed"] else "FAIL"
            sys.stdout.write(f"  {status} {check['name']}\n")
    return 0 if report["passes"] == report["cases"] else 1


def _cmd_fuzz(args) -> int:
    try:
        config = fuzz.FuzzConfig(
            seed=args.seed,
            max_vars_per_side=args.max_vars,
            max_generators=args.max_gens,
            max_exponent=args.max_exp,
            max_s=args.max_s,
            cases=args.cases,
            suites=tuple(args.suite) if args.suite else fuzz.SUITE_NAMES,
        )
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    status, reports = fuzz.run_fuzz(config, char=args.char)
    if args.json:
        sys.stdout.write(json.dumps(reports, indent=2, sort_keys=True) + "\n")
    else:
        for report in reports:
            _print_report_human(report, sys.stdout)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idealkit",
        description="Exact computations with monomial ideals: saturated and "
        "symbolic powers, decompositions, binomial expansions, depth and "
        "regularity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a script file")
    run_p.add_argument("file")
    run_p.add_argument("--char", type=int, default=0, help="coefficient characteristic")
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser("verify", help="run the golden example suite")
    verify_p.add_argument("--json", action="store_true")
    verify_p.set_defaults(func=_cmd_verify)

    defaults = fuzz.FuzzConfig()
    fuzz_p = sub.add_parser("fuzz", help="run seeded theorem fuzz suites")
    fuzz_p.add_argument("--seed", type=int, default=defaults.seed)
    fuzz_p.add_argument("--cases", type=int, default=defaults.cases)
    fuzz_p.add_argument(
        "--suite",
        action="append",
        choices=fuzz.SUITE_NAMES,
        help="suite to run (repeatable; default: all)",
    )
    fuzz_p.add_argument("--char", type=int, default=0)
    fuzz_p.add_argument("--max-vars", type=int, default=defaults.max_vars_per_side)
    fuzz_p.add_argument("--max-gens", type=int, default=defaults.max_generators)
    fuzz_p.add_argument("--max-exp", type=int, default=defaults.max_exponent)
    fuzz_p.add_argument("--max-s", type=int, default=defaults.max_s)
    fuzz_p.add_argument("--json", action="store_true")
    fuzz_p.set_defaults(func=_cmd_fuzz)

    repl_p = sub.add_parser("repl", help="interactive statement loop")
    repl_p.set_defaults(func=lambda args: dsl.repl())
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        homology._require_char(getattr(args, "char", 0))
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        status = args.func(args)
        sys.stdout.flush()  # the buffer's last write may meet a closed reader
        return status
    except BrokenPipeError:
        try:  # with stdout on devnull, the interpreter's exit flush stays quiet
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        except (OSError, ValueError):  # no file descriptor
            pass
        return 141


if __name__ == "__main__":
    sys.exit(main())
