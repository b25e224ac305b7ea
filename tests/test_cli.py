import hashlib
import io
import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
import time

import pytest

import idealkit
from idealkit import binomial, cli, core, dsl, fuzz, homology, powers
from idealkit.cli import build_parser, main


# The larger tier's bounds.
LARGER = dict(max_vars_per_side=4, max_generators=5, max_exponent=4, max_s=4)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reference_draw(rng, cfg):
    """The instance draw that validates every generator as a Monomial."""

    def draw_ideal(ring, proper):
        while True:
            count = rng.randint(1, cfg.max_generators)
            gens = []
            for _ in range(count):
                exps = tuple(rng.randint(0, cfg.max_exponent) for _ in range(ring.nvars))
                gens.append(ring.monomial(exps))
            ideal = core.MonomialIdeal(ring, tuple(gens))
            if ideal.is_zero:
                continue
            if proper and ideal.is_unit:
                continue
            return ideal

    nvars_a = rng.randint(1, cfg.max_vars_per_side)
    ring_a = core.Ring(tuple(f"x{i + 1}" for i in range(nvars_a)))
    ideal_i = draw_ideal(ring_a, True)
    sat_k = draw_ideal(ring_a, False)
    nvars_b = rng.randint(1, cfg.max_vars_per_side)
    ring_b = core.Ring(tuple(f"y{i + 1}" for i in range(nvars_b)))
    ideal_j = draw_ideal(ring_b, True)
    sat_l = draw_ideal(ring_b, False)
    s = rng.randint(1, cfg.max_s)
    return fuzz.Instance(ring_a, ideal_i, sat_k, ring_b, ideal_j, sat_l, s)


# the golden check names in report order; saved reports are read by name
VERIFY_CHECK_NAMES = [
    "power_of_example_ideal",
    "disjoint_product_equals_intersection",
    "example_ideal_component_intersection",
    "sum_example_saturation",
    "example_ideal_saturation",
    "sum_example_irreducible_decomposition",
    "sum_example_primary_keys",
    "example_ideal_ass_and_min",
    "example_ideal_ass_star",
    "example_ideal_grade_zero",
    "example_ideal_quotient_ass",
    "example_ideal_saturated_powers",
    "example_ideal_saturators",
    "example_ideal_symbolic_powers",
    "example_ideal_regular_witness",
    "binomial_symbolic_ass_is_ordinary_square",
    "join_of_disjoint_rings",
    "zero_module_depth_reg_conventions",
    "sum_example_ass_structure",
    "script_symbolic_power_render",
    "script_saturation_render",
]


class TestRun:
    def test_executes_script_file(self, tmp_path, capsys):
        script = tmp_path / "demo.ik"
        script.write_text(
            "# symbolic powers of the running example\n"
            "ring A = [a, b];\n"
            "ideal I = (a^2, a*b) in A;\n"
            "print symb_min(I, 3);\n"
        )
        code, out, err = run_cli(capsys, "run", str(script))
        assert code == 0
        assert out == "(a^3)\n"
        assert err == ""

    def test_parse_error_exits_2_with_position(self, tmp_path, capsys):
        script = tmp_path / "bad.ik"
        script.write_text("ring A = [x, y];\nprint I ? J;\n")
        code, out, err = run_cli(capsys, "run", str(script))
        assert code == 2
        assert "2:" in err

    def test_semantic_error_exits_2(self, tmp_path, capsys):
        script = tmp_path / "unbound.ik"
        script.write_text("print I;\n")
        code, out, err = run_cli(capsys, "run", str(script))
        assert code == 2
        assert "unbound" in err

    def test_evaluation_error_is_reported_with_the_file_name(self, tmp_path, capsys):
        script = tmp_path / "ring.ik"
        script.write_text("ring A = [a, 2];")
        assert run_cli(capsys, "run", str(script)) == (
            2, "", f"error: {script}:1:10: ring literal entries must be names\n"
        )

    def test_output_before_an_evaluation_error_is_kept(self, tmp_path, capsys):
        script = tmp_path / "partial.ik"
        script.write_text("ring A = [a, b];\nprint a;\nprint zzz;\n")
        code, out, err = run_cli(capsys, "run", str(script))
        assert code == 2
        assert out == "a\n"
        assert err == f"error: {script}:3:7: unbound name 'zzz'\n"

    def test_parse_error_after_a_good_statement_runs_nothing(self, tmp_path, capsys):
        # The whole script is parsed before its first statement runs.
        script = tmp_path / "late.ik"
        script.write_text("ring A = [a]; print a; print ?;\n")
        code, out, err = run_cli(capsys, "run", str(script))
        assert code == 2
        assert out == ""
        assert err == f"error: {script}:1:30: unexpected character '?'\n"

    def test_missing_file_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "run", "no-such-file.ik")
        assert code == 2

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        script = tmp_path / "bad.txt"
        script.write_bytes(b"ring A = [a];\nprint \xff;\n")
        code, out, err = run_cli(capsys, "run", str(script))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {script}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "expression",
        [
            "+".join(["a"] * 3000),
            "(" * 250 + "a" + ")" * 250,
            "radical(" * 250 + "a" + ")" * 250,
        ],
        ids=["sum_chain", "parentheses", "calls"],
    )
    def test_deep_script_exits_2(self, tmp_path, capsys, expression):
        script = tmp_path / "deep.ik"
        script.write_text(f"ring A = [a];\nprint {expression};\n")
        code, out, err = run_cli(capsys, "run", str(script))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {script}:2:")
        assert err.endswith(f"deeper than {dsl.MAX_DEPTH} levels\n")
        assert err.count("\n") == 1

    def test_unicode_digit_exits_2(self, tmp_path, capsys):
        script = tmp_path / "square.ik"
        script.write_text("ring A = [x];\nprint x^\u00b2;\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "run", str(script))
        assert code == 2
        assert out == ""
        assert err == f"error: {script}:2:9: unexpected character '\u00b2'\n"

    @pytest.mark.parametrize("argument", ["(0)", "(1)"])
    def test_gradezero_of_no_prime_exits_2(self, tmp_path, capsys, argument):
        script = tmp_path / "prime.ik"
        script.write_text(f"ring A = [a, b];\nprint gradezero({argument}, (a));\n")
        assert run_cli(capsys, "run", str(script)) == (
            2, "", f"error: {script}:2:18: expected a prime generated by variables\n"
        )

    def test_bad_characteristic_exits_2(self, tmp_path, capsys):
        script = tmp_path / "depth.ik"
        script.write_text("ring A = [a];\nprint depth((a));\n")
        code, out, err = run_cli(capsys, "run", str(script), "--char", "4")
        assert code == 2
        assert out == ""
        assert err == "error: characteristic must be 0 or a prime, got 4\n"

    def test_large_prime_characteristic_is_accepted_quickly(self, tmp_path, capsys):
        script = tmp_path / "depth.ik"
        script.write_text("ring A = [a, b];\nprint depth((a^2, a*b));\n")
        started = time.monotonic()
        code, out, err = run_cli(
            capsys, "run", str(script), "--char", str(2**64 - 59)
        )
        assert time.monotonic() - started < 1
        assert (code, out, err) == (0, "0\n", "")

    def test_pathological_ideal_statements_each_finish_within_a_second(
        self, tmp_path, capsys
    ):
        # Six summands in disjoint variables: K^b lives on up to 12 vertices.
        header = (
            "ring A = [a, b, c, d, e, f, g, h, i, j, k, l];\n"
            "ideal I = (a^2*b, a*b*c, c^2*d, e*f, g*h, i*j*k*l) in A;\n"
        )
        printed = []
        for n, statement in enumerate(
            ["print betti(I^2);", "print depth(I^3);", "print reg(I^3);"]
        ):
            script = tmp_path / f"probe{n}.ik"
            script.write_text(header + statement + "\n")
            started = time.monotonic()
            code, out, err = run_cli(capsys, "run", str(script))
            assert time.monotonic() - started < 1, statement
            assert (code, err) == (0, ""), statement
            assert out.count("\n") == 1
            printed.append(out)
        # The table of I^2 pinned in tests/test_homology.py.
        assert hashlib.sha256(printed[0][:-1].encode()).hexdigest() == (
            "15c2f806a0662c327d0655bdaa00d608e4d4a9d1f5dd42f31be0f16d948a79e7"
        )

    def test_characteristic_from_two_to_the_64_is_rejected(self, tmp_path, capsys):
        script = tmp_path / "depth.ik"
        script.write_text("ring A = [a];\nprint depth((a));\n")
        char = str(2**64 + 13)  # a prime
        code, out, err = run_cli(capsys, "run", str(script), "--char", char)
        assert code == 2
        assert out == ""
        assert err == f"error: characteristic must be below 2^64, got {char}\n"


class TestVerify:
    def test_fresh_build_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify")
        assert code == 0
        assert "pass" in out

    def test_json_report_schema(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--json")
        assert code == 0
        report = json.loads(out)
        assert set(report) >= {"suite", "cases", "passes", "failures"}
        assert report["suite"] == "verify"
        assert report["passes"] == report["cases"]
        assert report["failures"] == []

    def test_corrupted_intersect_is_caught(self, capsys, monkeypatch):
        healthy = core.intersect

        def corrupted(a, b):
            return core.ideal_sum(a, b)

        monkeypatch.setattr(core, "intersect", corrupted)
        code, out, err = run_cli(capsys, "verify")
        monkeypatch.setattr(core, "intersect", healthy)
        assert code == 1
        assert "FAIL" in out
        assert "disjoint_product_equals_intersection" in out


    def test_check_names_are_pinned_in_order(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--json")
        names = [check["name"] for check in json.loads(out)["checks"]]
        assert names == VERIFY_CHECK_NAMES

    def test_expected_lines_come_from_the_shipped_files(self, capsys, monkeypatch, tmp_path):
        golden = tmp_path / "golden"
        shutil.copytree(cli._GOLDEN, golden)
        edited = golden / "01-power_of_example_ideal.out"
        assert edited.read_text(encoding="utf-8") == "(a^4, a^3*b, a^2*b^2)\n"
        edited.write_text("(a^4, a^3*b)\n", encoding="utf-8")
        monkeypatch.setattr(cli, "_GOLDEN", str(golden))
        code, out, err = run_cli(capsys, "verify", "--json")
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert [check["name"] for check in report["checks"]] == VERIFY_CHECK_NAMES
        assert report["passes"] == report["cases"] - 1
        (failure,) = report["failures"]
        assert failure["name"] == "power_of_example_ideal"
        assert failure["expected"] == "(a^4, a^3*b)"
        assert failure["actual"] == "(a^4, a^3*b, a^2*b^2)"

    def test_raising_kernel_fails_the_named_checks(self, capsys, monkeypatch):
        def broken(ideal, k):
            raise RuntimeError("saturate is broken")

        monkeypatch.setattr(core, "saturate", broken)
        code, out, err = run_cli(capsys, "verify", "--json")
        assert code == 1
        assert err == ""
        report = json.loads(out)
        failures = {f["name"]: f for f in report["failures"]}
        assert list(failures) == [
            "sum_example_saturation",
            "example_ideal_saturation",
            "script_saturation_render",
        ]
        for failure in failures.values():
            assert failure["actual"] == "RuntimeError('saturate is broken')"
            assert "print saturate(" in failure["instance_script"]
        code, out, err = run_cli(capsys, "verify")
        assert code == 1
        assert "Traceback" not in out + err
        assert "FAIL [example_ideal_saturation]" in out


class TestFuzz:
    def test_small_suite_passes(self, capsys):
        code, out, err = run_cli(
            capsys, "fuzz", "--seed", "1", "--cases", "5", "--suite", "thm38"
        )
        assert code == 0
        assert "suite thm38: 5/5 pass" in out

    def test_json_report_schema(self, capsys):
        code, out, err = run_cli(
            capsys,
            "fuzz",
            "--seed",
            "7",
            "--cases",
            "4",
            "--suite",
            "thm38",
            "--suite",
            "lem45",
            "--json",
        )
        assert code == 0
        reports = json.loads(out)
        assert [r["suite"] for r in reports] == ["thm38", "lem45"]
        for report in reports:
            assert set(report) >= {"suite", "cases", "passes", "failures"}

    def test_unknown_suites_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown suites: \['nope'\]$"):
            fuzz.FuzzConfig(suites=["thm38", "nope"])
        with pytest.raises(ValueError, match="^unknown suite 'nope'$"):
            fuzz.run_suite("nope", fuzz.FuzzConfig())
        # A string is a sequence too, but its letters are no suite names.
        with pytest.raises(
            ValueError, match=r"^suites must be a sequence of names, not the string 'thm38'$"
        ):
            fuzz.FuzzConfig(suites="thm38")

    def test_identical_config_gives_identical_bytes(self, capsys):
        args = ("fuzz", "--seed", "3", "--cases", "4", "--suite", "thm38", "--json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    @pytest.mark.parametrize(
        "config",
        [
            fuzz.FuzzConfig(),
            fuzz.FuzzConfig(**LARGER),
        ],
        ids=["default", "larger"],
    )
    def test_instances_match_the_validated_draw(self, config):
        # the draw from exponent tuples gives the instances of the draw that
        # built and validated a Monomial per generator, on the same streams
        for seed in range(1, 6):
            fast, reference = random.Random(seed), random.Random(seed)
            for _ in range(200):
                assert fuzz.generate_instance(fast, config) == reference_draw(reference, config)

    @pytest.mark.parametrize(
        "lo, hi",
        [(0, 0), (1, 1), (0, 1), (1, 3), (0, 3), (1, 4), (0, 4), (1, 5), (2, 9), (-3, 3),
         (0, 2**31 - 1), (1, 2**64), (5, 5 + 10**30)],
    )
    def test_randint_helper_draws_what_randint_draws(self, lo, hi):
        for seed in range(300):
            fast, reference = random.Random(seed), random.Random(seed)
            for _ in range(8):
                assert fuzz._randint(fast, lo, hi) == reference.randint(lo, hi)
            # Both consumed the same bits, lo == hi included.
            assert fast.getstate() == reference.getstate()

    def test_config_sizes_are_whole_numbers(self):
        assert fuzz.FuzzConfig(max_exponent=3.0, cases=True) == fuzz.FuzzConfig(cases=1)
        with pytest.raises(ValueError, match="expected a whole number, got 2.5"):
            fuzz.FuzzConfig(max_exponent=2.5)
        with pytest.raises(ValueError, match="max_s must be at least 1"):
            fuzz.FuzzConfig(max_s=0)

    def test_instance_stream_is_pinned(self):
        # The digest of 800 instances' reprs, recorded when every draw still
        # called rng.randint.
        digest = hashlib.sha256()
        for config in (
            fuzz.FuzzConfig(),
            fuzz.FuzzConfig(**LARGER),
        ):
            for seed in range(1, 41):
                rng = random.Random(seed)
                for _ in range(10):
                    digest.update(repr(fuzz.generate_instance(rng, config)).encode())
        assert digest.hexdigest() == (
            "28e60a2bc6b771058df54ed262e80da0c61d496ae8e4cff84a502454485f9e28"
        )

    def test_different_seeds_differ(self):
        # reports may coincide; the instances drawn must not
        first, second = (
            fuzz.generate_instance(random.Random(seed), fuzz.FuzzConfig()).script()
            for seed in (1, 2)
        )
        assert first != second

    @pytest.mark.parametrize(
        "suite, builtin",
        [
            ("lem25_29", "check_ass"),
            ("thm44", "check_depthreg"),
            ("cor46", "check_depthreg_ass"),
            ("cor39_310", "check_eq"),
            ("cor43", "check_symb_eq"),
        ],
    )
    def test_report_suite_reproducer_reruns_the_checked_call(
        self, suite, builtin, monkeypatch
    ):
        # a failing report must come with a script that reruns the very call
        module, attr = dsl._SIGNATURES[builtin][:2]

        class Failing:
            passed = inconclusive = joint_equal = False

            def __str__(self):
                return f"failing {attr}"

        monkeypatch.setattr(module, attr, lambda *args: Failing())
        report = fuzz.run_suite(suite, fuzz.FuzzConfig(seed=2, cases=2))
        assert report["passes"] == 0
        for failure in report["failures"]:
            last_line = failure["instance_script"].splitlines()[-1]
            assert last_line.startswith(f"print {builtin}(")
            assert dsl.run_script(failure["instance_script"]) == [failure["actual"]]

    def test_counterexample_script_reruns(self, tmp_path, capsys, monkeypatch):
        # break the expansion and confirm the reported script is executable
        from idealkit import binomial, fuzz

        healthy = binomial.binomial_saturated

        def corrupted(i, k, j, l, s):
            return core.ideal_power(healthy(i, k, j, l, s), 2)

        monkeypatch.setattr(binomial, "binomial_saturated", corrupted)
        config = fuzz.FuzzConfig(seed=1, cases=3, suites=("thm38",))
        status, reports = fuzz.run_fuzz(config)
        monkeypatch.setattr(binomial, "binomial_saturated", healthy)
        assert status == 1
        failure = reports[0]["failures"][0]
        script = tmp_path / "counterexample.ik"
        script.write_text(failure["instance_script"] + "\n")
        code, out, err = run_cli(capsys, "run", str(script))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]

    @pytest.mark.parametrize(
        "suite, module, attr, fault",
        [
            ("thm41_min", binomial, "binomial_symbolic", "square"),
            ("thm41_ass", binomial, "binomial_symbolic", "square"),
            ("lem32_36", binomial, "check_term_inclusions", "fail"),
            ("lem45", homology, "deriv_star", "unit"),
            ("thm41_min", fuzz, "symbolic_route_consistency", "disagree"),
        ],
        ids=["thm41_min", "thm41_ass", "lem32_36", "lem45", "thm41_min_routes"],
    )
    def test_every_suite_counterexample_reruns(
        self, suite, module, attr, fault, tmp_path, capsys, monkeypatch
    ):
        # break the checked call and confirm each reported script is executable
        healthy = getattr(module, attr)

        class Failing:
            passed = False

        broken = {
            "square": lambda *args: core.ideal_power(healthy(*args), 2),
            "fail": lambda *args: Failing(),
            "unit": lambda ideal: core.MonomialIdeal.unit(ideal.ring),
            "disagree": lambda *args: (False, {}),
        }[fault]
        with monkeypatch.context() as patch:
            patch.setattr(module, attr, broken)
            report = fuzz.run_suite(suite, fuzz.FuzzConfig(seed=1, cases=3))
        assert report["failures"]
        for failure in report["failures"]:
            if fault == "disagree":
                assert failure["expected"].endswith("; all saturation routes agree")
                assert failure["actual"].endswith("; a saturation route disagreed")
            script = tmp_path / "counterexample.ik"
            script.write_text(failure["instance_script"] + "\n")
            code, out, err = run_cli(capsys, "run", str(script))
            assert (code, err) == (0, "")
            lines = out.splitlines()
            assert len(lines) == failure["instance_script"].count("print ")
            if suite.startswith("thm41"):
                assert lines[0] == lines[1]

    @pytest.mark.parametrize("suite", ["thm41_min", "thm41_ass"])
    def test_thm41_reproducer_shows_a_split_route_fault(
        self, suite, tmp_path, capsys, monkeypatch
    ):
        # The binomial expansion of a joined sum is the split route; the
        # script's second line saturates the joined sum's power instead, so a
        # fault in the split route prints two different lines while it stays.
        healthy = powers._symbolic_split
        monkeypatch.setattr(
            powers, "_symbolic_split", lambda *args: core.ideal_power(healthy(*args), 2)
        )
        report = fuzz.run_suite(suite, fuzz.FuzzConfig(seed=1, cases=3))
        assert len(report["failures"]) == 3
        for failure in report["failures"]:
            script = tmp_path / "counterexample.ik"
            script.write_text(failure["instance_script"] + "\n")
            code, out, err = run_cli(capsys, "run", str(script))
            assert (code, err) == (0, "")
            first, second = out.splitlines()
            assert first != second

    def test_a_passing_case_prints_no_ideal_and_no_report(self, monkeypatch):
        # Failure texts are built only for a failing case.
        def unread(value):
            raise AssertionError(f"printed a {type(value).__name__} of a passing case")

        printed = [core.MonomialIdeal] + [
            cls for cls in vars(binomial).values()
            if isinstance(cls, type) and cls.__name__.endswith("Report")
        ]
        for cls in printed:
            monkeypatch.setattr(cls, "__str__", unread)
        status, reports = fuzz.run_fuzz(fuzz.FuzzConfig(seed=1, cases=3))
        assert status == 0
        assert all(r["passes"] == 3 and r["failures"] == [] for r in reports)

    def test_only_the_reported_failures_are_formatted(self, monkeypatch):
        # A report keeps the first five failures, so a suite that fails on
        # every case formats five failure texts, not one per case.
        formatted = []

        class Failing:
            passed = False

            def __str__(self):
                formatted.append(self)
                return "failing"

        monkeypatch.setattr(binomial, "check_term_inclusions", lambda *args: Failing())
        report = fuzz.run_suite("lem32_36", fuzz.FuzzConfig(seed=1, cases=8))
        assert (report["passes"], len(report["failures"])) == (0, 5)
        assert len(formatted) == 5

    def test_parser_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert fuzz.FuzzConfig(
            seed=args.seed,
            max_vars_per_side=args.max_vars,
            max_generators=args.max_gens,
            max_exponent=args.max_exp,
            max_s=args.max_s,
            cases=args.cases,
        ) == fuzz.FuzzConfig()
        assert (args.suite, args.char, args.json) == (None, 0, False)

    def test_human_report_prints_counter_lines(self, capsys):
        assert run_cli(
            capsys, "fuzz", "--suite", "cor43", "--suite", "lem25_29", "--cases", "3"
        ) == (
            0,
            "suite cor43: 3/3 pass\n  joint_equal: 3\n"
            "suite lem25_29: 3/3 pass\n  inconclusive: 0\n",
            "",
        )

    def test_bad_suite_name_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--suite", "nonsense"])
        assert exc.value.code == 2

    def test_invalid_cases_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "fuzz", "--cases", "0", "--suite", "thm38")
        assert code == 2

    @pytest.mark.parametrize(
        "char, suite", [("4", "thm38"), ("4", "thm44"), ("-3", "cor46")]
    )
    def test_bad_characteristic_is_usage_error(self, capsys, char, suite):
        code, out, err = run_cli(
            capsys, "fuzz", "--char", char, "--suite", suite, "--cases", "2"
        )
        assert code == 2
        assert out == ""
        assert err == f"error: characteristic must be 0 or a prime, got {char}\n"

    @pytest.mark.parametrize(
        "suites, seed, cases, char",
        [
            pytest.param(fuzz.SUITE_NAMES, 1, 5, 0, id="1"),
            pytest.param(fuzz.SUITE_NAMES, 2, 5, 0, id="2", marks=pytest.mark.slow),
            pytest.param(fuzz.SUITE_NAMES, 3, 5, 0, id="3", marks=pytest.mark.slow),
            # The Ass-structure suite: its grade check ranges over every prime
            # of 4 + 4-variable rings.
            pytest.param(["lem25_29"], 1, 50, 0, id="ass-structure"),
            # The depth and regularity suites read the largest Betti tables, up
            # to 138 generators, in characteristics 0, 2 and 3, those of the
            # betti benchmark workload.
            *(
                pytest.param(["cor46", "thm44"], 3, 5, char, id=f"betti-route-char{char}")
                for char in (0, 2, 3)
            ),
            # The symbolic-power suites read the min and ass folds of the
            # decomposition route, the ass one built on the min power.
            pytest.param(["thm41_min", "thm41_ass", "cor43"], 3, 20, 0, id="symbolic-routes"),
        ],
    )
    def test_larger_tier_passes_every_suite(self, suites, seed, cases, char):
        config = fuzz.FuzzConfig(seed=seed, cases=cases, suites=suites, **LARGER)
        status, reports = fuzz.run_fuzz(config, char)
        assert [r["suite"] for r in reports] == list(suites)
        assert [(r["passes"], r["failures"]) for r in reports] == [(cases, [])] * len(suites)
        assert status == 0


class TestRepl:
    def test_statements_evaluate_and_errors_recover(self, capsys, monkeypatch):
        import io

        lines = (
            "ring A = [a, b];\n"
            "ideal I = (a^2, a*b) in A;\n"
            "\n"
            "# note\n"
            "print nonsense(I);\n"
            "print symb_min(I, 2);\n"
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code, out, err = run_cli(capsys, "repl")
        assert code == 0
        assert "(a^2)" in out
        assert "unknown function" in out
        # the blank and the comment-only line print nothing, not even an error
        assert out.splitlines()[1:] == [
            "error: 1:7: unknown function 'nonsense'",
            "(a^2)",
        ]

    def test_deep_statement_is_an_error_and_the_loop_carries_on(
        self, capsys, monkeypatch
    ):
        import io

        lines = (
            "ring A = [a];\n"
            f"print {'+'.join(['a'] * 3000)};\n"
            "print a^2;\n"
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code, out, err = run_cli(capsys, "repl")
        assert code == 0
        assert f"error: 1:{6 + 2 * (dsl.MAX_DEPTH + 1)}: " in out
        assert out.endswith("a^2\n")

    def test_numbers_past_the_int_string_limit_are_errors(self, capsys, monkeypatch):
        import io

        nines = "9" * 4299
        lines = (
            "ring A = [a];\n"
            f"print a^{'9' * 5000};\n"
            f"print {'9' * 5000};\n"
            f"ideal I = (a^{nines}) in A; print I^11;\n"
            "print I;\n"
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code, out, err = run_cli(capsys, "repl")
        assert (code, err) == (0, "")
        limit = sys.get_int_max_str_digits()
        assert out.splitlines()[1:] == [
            f"error: 1:9: integer of 5000 digits is longer than the limit of {limit} digits",
            f"error: 1:7: integer of 5000 digits is longer than the limit of {limit} digits",
            f"error: 1:{len(nines) + 22}: cannot print a number of more than {limit} digits",
            f"(a^{nines})",
        ]

    def test_output_comes_before_a_later_error_on_the_same_line(
        self, capsys, monkeypatch
    ):
        import io

        lines = "ring A = [a, b];\nprint a; print zzz;\nprint b;\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code, out, err = run_cli(capsys, "repl")
        assert code == 0
        assert out.splitlines()[1:] == ["a", "error: 1:16: unbound name 'zzz'", "b"]

    def test_a_failing_last_line_keeps_its_earlier_output(self, capsys, monkeypatch):
        import io

        lines = "ring A = [a, b];\nprint a; print zzz;\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code, out, err = run_cli(capsys, "repl")
        assert code == 0
        assert out.splitlines()[1:] == ["a", "error: 1:16: unbound name 'zzz'"]


class TestStatementSpan:
    def test_every_front_end_executes_each_statement_once(
        self, tmp_path, capsys, monkeypatch
    ):
        # The benchmark tracer times dsl.eval and counts dsl.statements by
        # replacing Evaluator.execute on the class, so run_script, `run` and
        # `repl` must each call it through the instance once per statement.
        import io

        text = "ring A = [a, b];\nideal I = (a^2, a*b) in A;\nprint I^2;\nprint a;\n"
        expected = list(dsl.parse(text).statements)
        executed = []
        real = dsl.Evaluator.execute

        def counted(self, statement):
            executed.append(statement)
            return real(self, statement)

        monkeypatch.setattr(dsl.Evaluator, "execute", counted)
        assert dsl.run_script(text) == ["(a^4, a^3*b, a^2*b^2)", "a"]
        assert executed == expected

        executed.clear()
        script = tmp_path / "demo.ik"
        script.write_text(text)
        assert run_cli(capsys, "run", str(script)) == (
            0, "(a^4, a^3*b, a^2*b^2)\na\n", ""
        )
        assert executed == expected

        executed.clear()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, "repl")
        assert code == 0
        assert out.splitlines()[1:] == ["(a^4, a^3*b, a^2*b^2)", "a"]
        assert executed == expected


class TestClosedStdout:
    """A reader that closes stdout early, as ``| head`` does, gets exit 141
    (128 + SIGPIPE) and nothing on stderr: no traceback, no exit 1."""

    @staticmethod
    def _env():
        # Buffered, as a shell pipe leaves stdout unless PYTHONUNBUFFERED is set.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(idealkit.__file__)))
        env.pop("PYTHONUNBUFFERED", None)
        return env

    def test_run_exits_141_with_empty_stderr(self):
        # The script prints one 137 KB line, more than a 64 KB pipe buffer
        # holds, so the write is still under way when the reader goes.
        script = pathlib.Path(__file__).parent / "scripts" / "hard" / "betti_J5.idk"
        run = subprocess.Popen(
            [sys.executable, "-m", "idealkit.cli", "run", str(script)],
            env=self._env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        head = run.stdout.read(20)
        run.stdout.close()
        _, err = run.communicate(timeout=60)
        assert head == script.with_suffix(".out").read_bytes()[:20]
        assert (run.returncode, err) == (141, b"")

    @pytest.mark.parametrize(
        "argv", [["fuzz", "--seed", "1", "--cases", "3"], ["verify"], ["verify", "--json"]]
    )
    def test_a_buffered_last_write_exits_141_with_empty_stderr(self, argv):
        # These outputs fit stdout's buffer, so their one write is the flush
        # after the command returns; the reader is gone before it starts.
        read, write = os.pipe()
        os.close(read)
        try:
            run = subprocess.run(
                [sys.executable, "-m", "idealkit.cli", *argv],
                env=self._env(),
                stdout=write,
                stderr=subprocess.PIPE,
                timeout=60,
            )
        finally:
            os.close(write)
        assert (run.returncode, run.stderr) == (141, b"")

    @pytest.mark.parametrize(
        "argv",
        [["fuzz", "--seed", "1", "--cases", "3"], ["verify"], ["verify", "--json"], ["repl"]],
    )
    def test_a_closed_stdout_returns_141(self, argv, capsys, monkeypatch):
        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                raise io.UnsupportedOperation("fileno")

        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(argv) == 141
        monkeypatch.undo()
        assert capsys.readouterr() == ("", "")
