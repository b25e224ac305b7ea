import pathlib
import re

import pytest

from idealkit import dsl
from idealkit.dsl import EvalError, ParseError, parse, run_script, unparse


class TestGoldenScripts:
    def test_symbolic_power_example(self):
        output = run_script(
            "ring A = [a, b];\nideal I = (a^2, a*b) in A;\nprint symb_min(I, 2);"
        )
        assert output == ["(a^2)"]

    def test_saturation_example(self):
        output = run_script(
            "ring R = [x, y, z, t];\n"
            "print saturate((x^2, x*y, z^2, z*t), (x, y, z, t));"
        )
        assert output == ["(x^2, x*y, x*z, z^2, z*t)"]

    def test_zeroth_power_prints_unit(self):
        output = run_script("ring A = [a, b];\nideal I = (a^2, a*b) in A;\nprint I^0;")
        assert output == ["(1)"]

    def test_arithmetic_and_literals(self):
        output = run_script(
            "ring A = [x, y];\n"
            "ideal I = (x^2) in A;\n"
            "ideal J = (y) in A;\n"
            "ideal Z = (0) in A;\n"
            "ideal U = (1) in A;\n"
            "print I + J;\n"
            "print I * J;\n"
            "print intersect(I, J);\n"
            "print Z;\n"
            "print U;"
        )
        assert output == ["(y, x^2)", "(x^2*y)", "(x^2*y)", "(0)", "(1)"]

    def test_join_and_extend(self):
        output = run_script(
            "ring A = [x, y];\n"
            "ring B = [z];\n"
            "ring R = join(A, B);\n"
            "print R;\n"
            "ideal I = (x*y) in A;\n"
            "print extend(I, R) + (z);"
        )
        assert output == ["[x, y, z]", "(z, x*y)"]

    def test_prime_sets_render_sorted(self):
        output = run_script("ring A = [a, b];\nprint ass((a^2, a*b));")
        assert output == ["{(a), (a, b)}"]

    def test_decompose_renders_components(self):
        output = run_script("ring A = [a, b];\nprint decompose((a^2, a*b));")
        assert output == ["{(a): (a), (a, b): (b, a^2)}"]

    def test_depth_reg_and_witness(self):
        # the maximal ideal is associated, so the quotient has depth zero
        output = run_script(
            "ring A = [a, b];\n"
            "ideal I = (a^2, a*b) in A;\n"
            "print depth(I);\nprint reg(I);\nprint witness(I, min);\nprint depth((1));"
        )
        assert output == ["0", "1", "b", "+inf"]

    def test_check_reports_render(self):
        output = run_script(
            "ring A = [x, y];\nideal I = (x) in A;\nideal K = (y) in A;\n"
            "ring B = [z, t];\nideal J = (z) in B;\nideal L = (t) in B;\n"
            "print check_eq(I, K, J, L, 2);"
        )
        assert output == ["joint=yes componentwise=yes biconditional=pass"]

    def test_filtration_check_from_lists(self):
        output = run_script(
            "ring A = [x, y];\nideal I = (x^2, x*y) in A;\nideal K = (x, y) in A;\n"
            "ring B = [z, t];\nideal J = (z^2, z*t) in B;\n"
            "print check_filt([I, I^2], [K, K^2], [J, J^2], K, 2);"
        )
        assert output == [
            "premises=True disjoint=True sum=True step=True long=True colon=True"
        ]

    def test_ambient_ring_is_last_declared(self):
        output = run_script(
            "ring A = [a, b];\nring B = [c];\nprint radical((c));"
        )
        assert output == ["(c)"]

    def test_determinism(self):
        script = "ring A = [a, b];\nprint assstar((a^2, a*b), 3);"
        assert run_script(script) == run_script(script)


ROUND_TRIP_CORPUS = [
    "ring A = [a, b];",
    "ring R = join(A, B);",
    "ideal I = (a^2, a*b) in A;",
    "ideal I = (a^2) in A;",
    "ideal S = extend(I, R) + extend(J, R);",
    "print I + J * K;",
    "print (I + J) * K;",
    "print I + (J + K);",
    "print (I + J)^3;",
    "print x^2 * y;",
    "print satpow(I, K, 2);",
    "print binom_symb(I, J, 2, ass);",
    "print check_filt([I, I^2], [K, K^2], [J, J^2], K, 2);",
    "print saturate((x^2, x*y, z^2, z*t), (x, y, z, t));",
    "print 1;",
    "print contains(I, a^2);",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_print_then_parse_is_identity(self, text):
        tree = parse(text)
        assert parse(unparse(tree)) == tree

    def test_whole_script_round_trip(self):
        script = "\n".join(ROUND_TRIP_CORPUS)
        tree = parse(script)
        assert parse(unparse(tree)) == tree


class TestErrors:
    def test_lexical_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse("ring A = [x, y];\nprint I ? J;")
        assert err.value.line == 2
        assert "?" in str(err.value)

    def test_unicode_digit_is_not_an_integer(self):
        with pytest.raises(ParseError) as err:
            parse("ring A = [x];\nprint x^\u00b2;")
        assert (err.value.line, err.value.column) == (2, 9)
        assert "unexpected character '\u00b2'" in str(err.value)
        assert [(t.kind, t.text) for t in dsl.tokenize("x\u00b2")][0] == ("name", "x\u00b2")

    def test_syntax_error_reports_token(self):
        with pytest.raises(ParseError) as err:
            parse("ideal I = (x^2,, y) in A;")
        assert "got" in str(err.value)

    def test_unbound_name(self):
        with pytest.raises(EvalError) as err:
            run_script("print J;")
        assert "unbound" in str(err.value)

    def test_ring_mismatch_at_evaluation(self):
        script = (
            "ring A = [x];\nideal I = (x) in A;\n"
            "ring B = [z];\nideal J = (z) in B;\nprint I + J;"
        )
        with pytest.raises(EvalError) as err:
            run_script(script)
        assert "mismatch" in str(err.value)

    def test_binding_checked_against_declared_ring(self):
        script = "ring A = [x];\nideal I = (x) in A;\nring B = [z];\nideal J = I^2 in B;"
        with pytest.raises(EvalError):
            run_script(script)

    def test_unknown_function(self):
        with pytest.raises(EvalError) as err:
            run_script("ring A = [x];\nprint groebner((x));")
        assert "unknown function" in str(err.value)

    def test_arity_error(self):
        with pytest.raises(EvalError) as err:
            run_script("ring A = [x];\nprint saturate((x));")
        assert str(err.value) == "2:7: saturate expects 2 arguments, got 1"
        with pytest.raises(EvalError) as err:
            run_script("ring A = [x];\nprint witness((x), min, 2, 3);")
        assert str(err.value) == "2:7: witness expects 2 or 3 arguments, got 4"
        with pytest.raises(EvalError) as err:
            run_script("ring A = [x];\nprint satk_min_global();")
        assert str(err.value) == "2:7: satk_min_global expects 1 or 2 arguments, got 0"

    @pytest.mark.parametrize(
        "call",
        [
            "check_ass(I, J, 0)",
            "satk_min(I, 0)",
            "satk_ass(I, 0)",
            "check_terms(I, K, J, L, 0)",
            "check_eq(I, K, J, L, 0)",
            "check_symb_eq(I, J, 0)",
        ],
    )
    def test_power_zero_is_rejected(self, call):
        script = (
            "ring A = [x, y];\nideal I = (x^2, x*y) in A; ideal K = (x, y) in A;\n"
            "ring B = [z, t];\nideal J = (z^2, z*t) in B; ideal L = (z, t) in B;\n"
            f"print {call};"
        )
        with pytest.raises(EvalError) as err:
            run_script(script)
        assert str(err.value) == "5:7: power must be positive"

    @pytest.mark.parametrize(
        "shape, crossing_column",
        [
            # n '+' links; the (cap + 1)-th '+' crosses the budget
            (lambda n: "+".join(["a"] * (n + 1)), lambda cap: 6 + 2 * (cap + 1)),
            # n nested parentheses; the (cap + 1)-th '(' crosses it
            (lambda n: "(" * n + "a" + ")" * n, lambda cap: 6 + (cap + 1)),
            # n nested calls; the (cap + 1)-th call's name crosses it
            (
                lambda n: "radical(" * n + "a" + ")" * n,
                lambda cap: 7 + 8 * cap,
            ),
        ],
        ids=["sum_chain", "parentheses", "calls"],
    )
    def test_depth_budget(self, shape, crossing_column):
        cap = dsl.MAX_DEPTH
        assert run_script(f"ring A = [a];\nprint {shape(cap)};") in (["a"], ["(a)"])
        with pytest.raises(ParseError) as err:
            run_script(f"ring A = [a];\nprint {shape(cap + 1)};")
        assert (err.value.line, err.value.column) == (2, crossing_column(cap))
        assert f"deeper than {cap} levels" in str(err.value)

    def test_depth_counts_products_powers_and_brackets(self):
        # a*a^2 is two levels and each bracket one more
        cap = dsl.MAX_DEPTH
        text = "[" * (cap - 2) + "a*a^2" + "]" * (cap - 2)
        parse(f"print {text};")
        with pytest.raises(ParseError):
            parse(f"print [{text}];")

    def test_keyword_cannot_start_expression(self):
        with pytest.raises(ParseError):
            parse("print ring;")

    def test_extend_requires_matching_variable_names(self):
        script = (
            "ring A = [x];\nideal I = (x) in A;\n"
            "ring B = [z];\nprint extend(I, B);"
        )
        with pytest.raises(EvalError) as err:
            run_script(script)
        assert "missing" in str(err.value)

    def test_characteristic_flows_into_homology_calls(self):
        # Betti numbers of this squarefree ideal differ between Q and GF(2)
        triangles = "(v1*v2*v5, v1*v2*v6, v1*v3*v4, v1*v3*v6, v1*v4*v5, v2*v3*v4, v2*v3*v5, v2*v4*v6, v3*v5*v6, v4*v5*v6)"
        script = (
            "ring V = [v1, v2, v3, v4, v5, v6];\n"
            f"ideal P = {triangles} in V;\n"
            "print depth(P);"
        )
        assert run_script(script, char=0) == ["3"]
        assert run_script(script, char=2) == ["2"]


# every kernel operation must be reachable through the script language;
# each snippet carries the exact lines it prints after PRELUDE
COVERAGE_SNIPPETS = {
    "minimalize": ("ideal M = (x^2, x^3, x*y) in A; print M;", ["(x^2, x*y)"]),
    "contains": ("print contains(I, x^2);", ["true"]),
    "ideal_sum": ("print I + K;", ["(x, y)"]),
    "ideal_product": ("print I * K;", ["(x^3, x^2*y, x*y^2)"]),
    "ideal_power": ("print I^2;", ["(x^4, x^3*y, x^2*y^2)"]),
    "intersect": ("print intersect(I, K);", ["(x^2, x*y)"]),
    "colon": ("print colon(I, K);", ["(x)"]),
    "saturate": ("print saturate(I, K);", ["(x)"]),
    "radical": ("print radical(I);", ["(x)"]),
    "irreducible_decomposition": ("print irrdecomp(I);", ["{(x), (y, x^2)}"]),
    "primary_decomposition": ("print decompose(I);", ["{(x): (x), (x, y): (y, x^2)}"]),
    "associated_primes": ("print ass(I);", ["{(x), (x, y)}"]),
    "minimal_primes": ("print min(I);", ["{(x)}"]),
    "ass_star_bounded": ("print assstar(I, 3);", ["{(x), (x, y)} stabilized=true"]),
    "grade_zero": ("print gradezero((x), I);", ["true"]),
    "ass_module_quotient": ("print assquot(I, 1);", ["{(x), (x, y)}"]),
    "saturated_power": ("print satpow(I, K, 2);", ["(x^2)"]),
    "saturator_min": ("print satk_min(I, 2);", ["(x, y)"]),
    "saturator_ass": ("print satk_ass(I, 2);", ["(1)"]),
    "saturator_min_global": ("print satk_min_global(I, 3);", ["(x, y)"]),
    "saturator_ass_global": ("print satk_ass_global(I, 3);", ["(1)"]),
    "symbolic_min": ("print symb_min(I, 2);", ["(x^2)"]),
    "symbolic_ass": ("print symb_ass(I, 2);", ["(x^4, x^3*y, x^2*y^2)"]),
    "regular_witness": ("print witness(I, min);", ["y"]),
    "join_rings": ("print join(A, B);", ["[x, y, z, t]"]),
    "extend": ("ring R = join(A, B); print extend(I, R);", ["(x^2, x*y)"]),
    "binomial_saturated": ("print binom_sat(I, K, J, L, 2);", ["(x^2, x*z, z^2)"]),
    "binomial_symbolic": ("print binom_symb(I, J, 2, min);", ["(x^2, x*z, z^2)"]),
    "check_equality_criteria": (
        "print check_eq(I, K, J, L, 2);",
        ["joint=no componentwise=no biconditional=pass"],
    ),
    "check_symbolic_equality_implication": (
        "print check_symb_eq(I, J, 2);",
        ["joint=yes implication=pass"],
    ),
    "check_ass_structure": (
        "print check_ass(I, J, 1);",
        [
            "tensor=True lower=True upper=True quotients=True grade=True "
            "global_min=True global_ass=True"
        ],
    ),
    "check_filtration_identities": (
        "print check_filt([I], [K], [J], K, 1);",
        ["premises=True disjoint=True sum=True step=True long=True colon=True"],
    ),
    "check_term_inclusions": (
        "print check_terms(I, K, J, L, 2);",
        ["terms=yes,yes,yes inclusion=pass"],
    ),
    "betti_table": (
        "print betti(I);",
        ["{(0, 1): 1, (1, x^2): 1, (1, x*y): 1, (2, x^2*y): 1}"],
    ),
    "depth_quotient": ("print depth(I);", ["0"]),
    "reg_quotient": ("print reg(I);", ["1"]),
    "deriv_star": ("print dstar(I);", ["(x, y)"]),
    "check_depth_reg_binomial": (
        "print check_depthreg(I, K, J, L, 1);",
        ["depth 2 vs 2; reg 0 vs 0"],
    ),
    "check_depth_reg_symbolic_ass": (
        "print check_depthreg_ass(I, J, 1);",
        ["depth 0 vs 0; reg 2 vs 2"],
    ),
}

# side B first, so the ambient ring for bare literals in the snippets is A
PRELUDE = (
    "ring B = [z, t];\n"
    "ideal J = (z^2, z*t) in B;\n"
    "ideal L = (z, t) in B;\n"
    "ring A = [x, y];\n"
    "ideal I = (x^2, x*y) in A;\n"
    "ideal K = (x, y) in A;\n"
)


class TestCoverageAudit:
    @pytest.mark.parametrize("operation", sorted(COVERAGE_SNIPPETS))
    def test_operation_reachable(self, operation):
        snippet, expected = COVERAGE_SNIPPETS[operation]
        assert run_script(PRELUDE + snippet) == expected

    def test_every_registered_function_is_exercised(self):
        used = set()
        for snippet, _ in COVERAGE_SNIPPETS.values():
            for name in dsl.FUNCTION_NAMES:
                if name + "(" in snippet:
                    used.add(name)
        assert used == set(dsl.FUNCTION_NAMES)

    def test_readme_rows_name_the_registered_functions(self):
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        rows = re.findall(
            r"^\| `(\w+)\(.*?\)` \| `(\w+)`", readme.read_text(), re.MULTILINE
        )
        assert sorted(name for name, _ in rows) == sorted(dsl.FUNCTION_NAMES)
        for name, function in rows:
            module, attr = dsl._SIGNATURES[name][:2]
            if module is dsl:
                # a script-side handler: it calls the library function named
                assert function in getattr(dsl, attr).__code__.co_names, name
            else:
                assert attr == function, name
