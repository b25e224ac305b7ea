import json
import random

import pytest

from idealkit import core, dsl, fuzz
from idealkit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_bad_characteristic_exits_2(self, tmp_path, capsys):
        script = tmp_path / "depth.ik"
        script.write_text("ring A = [a];\nprint depth((a));\n")
        code, out, err = run_cli(capsys, "run", str(script), "--char", "4")
        assert code == 2
        assert out == ""
        assert err == "error: characteristic must be 0 or a prime, got 4\n"


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

    def test_identical_config_gives_identical_bytes(self, capsys):
        args = ("fuzz", "--seed", "3", "--cases", "4", "--suite", "thm38", "--json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

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

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_larger_tier_passes_every_suite(self, seed):
        config = fuzz.FuzzConfig(
            seed=seed,
            max_vars_per_side=4,
            max_generators=5,
            max_exponent=4,
            max_s=4,
            cases=5,
        )
        status, reports = fuzz.run_fuzz(config)
        assert [r["suite"] for r in reports] == list(fuzz.SUITE_NAMES)
        assert [(r["passes"], r["failures"]) for r in reports] == [(5, [])] * 10
        assert status == 0


class TestRepl:
    def test_statements_evaluate_and_errors_recover(self, capsys, monkeypatch):
        import io

        lines = (
            "ring A = [a, b];\n"
            "ideal I = (a^2, a*b) in A;\n"
            "print nonsense(I);\n"
            "print symb_min(I, 2);\n"
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code, out, err = run_cli(capsys, "repl")
        assert code == 0
        assert "(a^2)" in out
        assert "unknown function" in out

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
