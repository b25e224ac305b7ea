"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `python3 -m pytest tests/test_acceptance.py -v` (add -s to see the
summary lines while running).
"""

import random
import time

import pytest

from idealkit.core import MonomialIdeal, Ring, ideal_power
from idealkit.core import saturate as core_saturate
from idealkit.decomposition import irreducible_decomposition
from idealkit.fuzz import FuzzConfig, generate_instance, run_suite
from idealkit.homology import ExtendedInt, betti_table, taylor_betti_table
from idealkit.powers import (
    regular_witness,
    regular_witness_candidates,
    saturator_min,
    symbolic_ass,
    symbolic_min,
)
from small_ideals import A, ideal

R4 = Ring.of("x", "y", "z", "t")


def report(number, label, elapsed, detail=""):
    suffix = f" [{detail}]" if detail else ""
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s){suffix}", flush=True)


def fail_with_counterexamples(number, suite_report):
    lines = [f"FAIL criterion {number}: {suite_report['passes']}/{suite_report['cases']}"]
    for failure in suite_report["failures"]:
        lines.append("counterexample script:")
        lines.append(failure["instance_script"])
        lines.append(f"expected: {failure['expected']}")
        lines.append(f"actual:   {failure['actual']}")
    pytest.fail("\n".join(lines))


def test_criterion_01_example_ideal_powers():
    started = time.monotonic()
    i = ideal(A, "a^2, a*b")
    maximal = ideal(A, "a, b")
    for s in range(1, 11):
        assert symbolic_min(i, s) == MonomialIdeal(A, (A.monomial((s, 0)),))
        assert symbolic_ass(i, s) == ideal_power(i, s)
        assert saturator_min(i, s) == maximal
    witness = regular_witness(i, "min")
    candidates = regular_witness_candidates(i, "min", max_degree=1)
    assert witness in candidates
    assert A.monomial((0, 1)) in candidates
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(1, "example ideal symbolic powers, saturators and witness", elapsed)


def test_criterion_02_sum_example_decomposition_and_saturation():
    started = time.monotonic()
    i = ideal(R4, "x^2, x*y, z^2, z*t")
    components = {c.as_ideal() for c in irreducible_decomposition(i)}
    assert components == {
        ideal(R4, "x, z"),
        ideal(R4, "x, z^2, t"),
        ideal(R4, "x^2, y, z"),
        ideal(R4, "x^2, y, z^2, t"),
    }
    saturated = core_saturate(i, ideal(R4, "x, y, z, t"))
    assert saturated == ideal(R4, "x*z, x^2, x*y, z^2, z*t")
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(2, "four-variable sum decomposition and saturation", elapsed)


def test_criterion_03_binomial_saturated_fuzz():
    started = time.monotonic()
    suite_report = run_suite("thm38", FuzzConfig(seed=1, cases=500))
    elapsed = time.monotonic() - started
    if suite_report["passes"] != suite_report["cases"]:
        fail_with_counterexamples(3, suite_report)
    assert elapsed < 60.0
    report(3, "saturated binomial expansion, 500/500", elapsed)


@pytest.fixture(scope="module")
def thm41_reports():
    """The thm41_min and thm41_ass reports at seed 1, 300 cases, and the
    seconds they took; criteria 04 and 05 read the same run."""
    started = time.monotonic()
    config = FuzzConfig(seed=1, cases=300)
    reports = [run_suite(name, config) for name in ("thm41_min", "thm41_ass")]
    return reports, time.monotonic() - started


def test_criterion_04_binomial_symbolic_fuzz(thm41_reports):
    reports, elapsed = thm41_reports
    for suite_report in reports:
        if suite_report["passes"] != suite_report["cases"]:
            fail_with_counterexamples(4, suite_report)
    assert elapsed < 120.0
    report(4, "symbolic binomial expansion, both notions, 300/300 each", elapsed)


def test_criterion_05_symbolic_route_consistency(thm41_reports):
    # each thm41 case checks the saturation routes of I and of J
    reports, elapsed = thm41_reports
    details = []
    for suite_report in reports:
        if suite_report["passes"] != suite_report["cases"]:
            fail_with_counterexamples(5, suite_report)
        counters = suite_report["counters"]
        shown = ", ".join(f"{k}={v}" for k, v in counters.items())
        details.append(f"{suite_report['suite']}: {shown}")
        # non-applicable route checks are counted, never silently skipped
        sides = 2 * suite_report["cases"]
        assert counters["witness_checked"] + counters["witness_missing"] == sides
        assert counters["global_checked"] + counters["global_skipped"] == sides
    detail = "; ".join(details)
    report(5, "symbolic power routes agree on both sides, 300/300", elapsed, detail)


def test_criterion_06_filtration_identities_fuzz():
    started = time.monotonic()
    suite_report = run_suite("lem32_36", FuzzConfig(seed=1, cases=300))
    elapsed = time.monotonic() - started
    if suite_report["passes"] != suite_report["cases"]:
        fail_with_counterexamples(6, suite_report)
    report(6, "intersection/colon identities with both filtrations, 300/300", elapsed)


def test_criterion_07_ass_structure_fuzz():
    started = time.monotonic()
    suite_report = run_suite("lem25_29", FuzzConfig(seed=1, cases=200))
    elapsed = time.monotonic() - started
    if suite_report["passes"] != suite_report["cases"]:
        # includes any Ass(I^t) that differs from the box scan of I^(t-1)/I^t
        fail_with_counterexamples(7, suite_report)
    detail = f"inconclusive={suite_report['counters'].get('inconclusive', 0)}"
    report(7, "tensor Ass structure and global saturators, 200/200", elapsed, detail)


def test_criterion_08_depth_reg_fuzz_both_characteristics():
    started = time.monotonic()
    for char in (0, 2):
        for name in ("thm44", "cor46"):
            suite_report = run_suite(name, FuzzConfig(seed=1, cases=100), char)
            if suite_report["passes"] != suite_report["cases"]:
                fail_with_counterexamples(8, suite_report)
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    report(8, "depth/regularity formulas, chars 0 and 2, 100/100 each", elapsed)


def test_criterion_09_equality_biconditional_fuzz():
    started = time.monotonic()
    for name in ("cor39_310", "cor43"):
        suite_report = run_suite(name, FuzzConfig(seed=1, cases=200))
        if suite_report["passes"] != suite_report["cases"]:
            fail_with_counterexamples(9, suite_report)
    elapsed = time.monotonic() - started
    report(9, "ordinary vs saturated/symbolic equality criteria, 200/200", elapsed)


def test_criterion_10_derivation_inclusion_fuzz():
    started = time.monotonic()
    suite_report = run_suite("lem45", FuzzConfig(seed=1, cases=300))
    elapsed = time.monotonic() - started
    if suite_report["passes"] != suite_report["cases"]:
        fail_with_counterexamples(10, suite_report)
    report(10, "monomial derivation drops one saturated power, 300/300", elapsed)


def test_criterion_11_homology_oracle():
    started = time.monotonic()
    rng = random.Random(11)
    config = FuzzConfig(seed=11, max_generators=5, cases=50)
    checked = 0
    while checked < 50:
        instance = generate_instance(rng, config)
        i = instance.ideal_i
        table = betti_table(i)
        assert table == taylor_betti_table(i)
        assert table.depth() == ExtendedInt(
            i.ring.nvars - table.projective_dimension()
        )
        checked += 1
    elapsed = time.monotonic() - started
    report(11, "Betti tables match the Taylor oracle on 50 ideals", elapsed)
