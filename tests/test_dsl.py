import hashlib
import pathlib
import random
import re
import string

import pytest

from idealkit import core, dsl
from idealkit.dsl import (
    KEYWORDS,
    MAX_DEPTH,
    AddOp,
    BracketList,
    CallOp,
    EvalError,
    IdealDecl,
    IdealLit,
    IntLit,
    MulOp,
    Name,
    ParseError,
    PowOp,
    PrintStmt,
    RingDecl,
    Script,
    parse,
    run_script,
)


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

    def test_missing_witness_prints_none(self):
        output = run_script(
            "ring A = [a, b];\nideal I = (a^2*b, a*b^2) in A;\nprint witness(I, min);"
        )
        assert output == ["none"]

    def test_non_int_monomial_power_is_validated(self):
        # The parser only makes int exponents; a hand-built node may not.
        evaluator = dsl.Evaluator()
        evaluator.execute(parse("ring A = [x, y];").statements[0])
        assert evaluator.execute(PrintStmt(PowOp(Name("x"), 2.0))) == "x^2"

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

    def test_bracket_list_renders_entries(self):
        output = run_script(
            "ring A = [x, y];\nprint [x, y];\nprint [x*y^2, (x, y), [1, ass((x))]];"
        )
        assert output == ["[x, y]", "[x*y^2, (x, y), [1, {(x)}]]"]

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
    "ring A = [a,\tb];\r\nideal I = (a^2)\tin A;\r\n",
    "print x\u00b2 * y;",
    "print I;  # a trailing comment with no newline",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_print_then_parse_is_identity(self, text):
        if "\u00b2" in text:
            # Names are ASCII, so the superscript stops the scan at its column.
            with pytest.raises(ParseError) as err:
                dsl._scan(text)
            assert str(err.value) == "1:8: unexpected character '\u00b2'"
            return
        # Printing the tokens one space apart gives back the same tree.
        tree = parse(text)
        assert len(tree.statements) == text.count(";")
        assert parse(" ".join(token[1] for token in dsl._scan(text))) == tree


NAME_START = string.ascii_letters + "_"
NAME_REST = NAME_START + string.digits


def reference_tokenize(text):
    """(kind, text, line, column) tokens scanned one character at a time.

    This is the character loop the regex scanner replaced; it is kept as an
    independent oracle for it.  Names and integers are ASCII, as ``Ring``
    names are.
    """
    tokens = []
    line, column = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
        elif ch in " \t\r":
            column += 1
            i += 1
        elif ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch in string.digits:
            start = i
            while i < len(text) and text[i] in string.digits:
                i += 1
            tokens.append(("int", text[start:i], line, column))
            column += i - start
        elif ch in NAME_START:
            start = i
            while i < len(text) and text[i] in NAME_REST:
                i += 1
            tokens.append(("name", text[start:i], line, column))
            column += i - start
        elif ch in "()[],;+*^=":
            tokens.append(("punct", ch, line, column))
            column += 1
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(("eof", "", line, column))
    return tokens


def scan_outcome(tokenize, text):
    """The tokens of ``text``, or the ParseError's (message, line, column)."""
    try:
        return tokenize(text)
    except ParseError as err:
        return (str(err), err.line, err.column)


class TestTokenizer:
    ALPHABET = "ab_xyz019 \t\r\n#();,+*^=[]\u00b2\u00bd\u0663\u00e9\u03a9?!.-"

    def test_matches_reference_tokenizer(self):
        rng = random.Random(12)
        for _ in range(20000):
            text = "".join(rng.choices(self.ALPHABET, k=rng.randint(0, 24)))
            expected = scan_outcome(reference_tokenize, text)
            assert scan_outcome(dsl._scan, text) == expected, repr(text)

    NAME_ALPHABET = string.ascii_letters + string.digits + "_\u00e9\u00b2\u0663\u03a9"

    def test_names_are_the_ring_names(self):
        # A text scans to one name iff a ring takes it as a variable name.
        rng = random.Random(36)
        texts = ["\u00e9", "x\u00b2", "x\u0663", "\u03a9", "_1", "1x", "ring", ""]
        for _ in range(5000):
            texts.append("".join(rng.choices(self.NAME_ALPHABET, k=rng.randint(1, 6))))
        for text in texts:
            tokens = scan_outcome(dsl._scan, text)
            one_name = isinstance(tokens, list) and [t[0] for t in tokens] == ["name", "eof"]
            try:
                core.Ring((text,))
            except ValueError:
                accepted = False
            else:
                accepted = True
            assert one_name == accepted, repr(text)


def parse_outcome(text):
    """The tree of ``text`` and every node's (class, pos), or the ParseError's
    (message, line, column)."""
    try:
        tree = dsl.Parser(dsl._scan(text)).parse_script()
    except ParseError as err:
        return (str(err), err.line, err.column)
    return tree, node_positions(tree.statements)


def node_positions(value):
    """(class name, pos) of every node under ``value``, depth first in field order."""
    if isinstance(value, tuple):
        return [p for v in value for p in node_positions(v)]
    if isinstance(value, dsl.Node):
        fields = [getattr(value, f) for f in value.__match_args__]
        return [(type(value).__name__, value.pos)] + node_positions(tuple(fields))
    return []


def depth_shapes():
    """Expressions around the depth budget, one for each way of nesting."""
    for n in (MAX_DEPTH - 2, MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1):
        yield "+".join(["a"] * (n + 1))
        yield "*".join(["a^2"] * (n + 1))
        yield "(" * n + "a" + ")" * n
        yield "(" * n + "a" + ")" * n + "^2"
        yield "(" * n + "a, b" + ")" * n
        yield "[" * n + "a" + "]" * n
        yield "radical(" * n + "a" + ")" * n
        yield "radical(" * (n - 1) + "a^2" + ")" * (n - 1) + "^3"
        yield "f(" * n + ")" * n
        yield "[" * (n - 2) + "a*a^2" + "]" * (n - 2)
        yield "(" * (n // 2) + "+".join(["a"] * (n // 2)) + ")" * (n // 2)


PARSE_VOCABULARY = (
    "ring", "ideal", "print", "in", "a", "b", "I", "radical", "intersect",
    "0", "1", "2", "10", "(", ")", "[", "]", ",", ";", "+", "*", "^", "=",
)


def random_expression(rng, depth=0):
    roll = rng.random() if depth < 4 else 0.0
    if roll < 0.4:
        return rng.choice(["a", "b", "I", "0", "1", "2"])
    if roll < 0.55:
        return f"{random_expression(rng, depth + 1)}^{rng.choice(['0', '2', '10'])}"
    if roll < 0.75:
        op = rng.choice(["+", "*"])
        return f"{random_expression(rng, depth + 1)} {op} {random_expression(rng, depth + 1)}"
    entries = ", ".join(random_expression(rng, depth + 1) for _ in range(rng.randint(0, 3)))
    return rng.choice(["({})", "[{}]", "radical({})", "intersect({})"]).format(entries)


def random_token_text(rng):
    """A string of vocabulary tokens: either any tokens at all, or a
    well-formed statement with a few tokens deleted, inserted or replaced."""
    if rng.random() < 0.5:
        tokens = rng.choices(PARSE_VOCABULARY, k=rng.randint(0, 30))
    else:
        statement = rng.choice(
            ["print {};", "ideal I = {};", "ideal I = {} in A;", "ring A = {};"]
        ).format(random_expression(rng))
        tokens = [token[1] for token in dsl._scan(statement)[:-1]]
        for _ in range(rng.randint(0, 2)):
            at = rng.randint(0, len(tokens))
            edit = rng.choice(["delete", "insert", "replace"])
            if edit != "insert" and at < len(tokens):
                del tokens[at]
            if edit != "delete":
                tokens.insert(at, rng.choice(PARSE_VOCABULARY))
    return "".join(t + rng.choice([" ", " ", "\n"]) for t in tokens)


def outcome_digest(texts):
    """SHA-256 of the reprs of ``parse_outcome`` over ``texts``, one a line."""
    digest = hashlib.sha256()
    for text in texts:
        digest.update(repr(parse_outcome(text)).encode() + b"\n")
    return digest.hexdigest()


# Outcome digests recorded from the reference parser this one was checked
# against.  A change to any tree, node position, error message or depth count
# changes them.
CORPUS_DIGESTS = dict(
    zip(
        ROUND_TRIP_CORPUS,
        [
            "dcff06cd89dc49b466c97d34d9b485eb2d258ad260065e220d2ef79a217c9357",
            "a4328559d3c1cba57030613d07c381a69d4839689c9cc9e09f556135a0077aa7",
            "0471576b5afee3e5d230e365e1e0f72c738caef611bc546cb009cabdceac6e34",
            "2748022d07e875259c218c48c1b5f716e97de6fe2e718b214630dd6968bc6bc4",
            "bc54e5f1197a72fbdfab81ed572a0ab5c58e30227a20061f617edcd7636e8853",
            "9b1193fb711b6d99d5304798bfb564bd803e021555765cd8a779de45ee919ea0",
            "76db358ecb018c5b0ce71cfbf27c5525fd1610f7638aa1bb06a151a68a5a4eac",
            "195374c20f7605963c3a4d30ee42eb911ee70882875776cf0bf5007993bbcd57",
            "985164e1936c9969302e83bfb64afed46fd1483724bbcc8d5e2494394574dace",
            "44e424f5e57e6dbbaed912853e266353224df6e45ade78e495fe5707f87f55a7",
            "7b8da3228408558f55ab83f7a0f8f56c86977aafa7180e98985f35615b1ce04b",
            "7924b8095620878cdb8e4a12ea28466ee1f690fbd732fc2f12e616e1b5b006cc",
            "bea0d06abd2f00f4e6045d3373d11ab4b1340362a97fc9c7026dc5c6e5c61bd2",
            "2a8a60078af08da30a25da77a1b2ab8dd14c9cb80e3e3ae88ee569fc30dbcf59",
            "a3dcdfb712cdcd2fd6f0f2d864f7f32dd75064124cf5be7d679d87f43837e0aa",
            "10db491c306a208a9306d513fc2ae9c975ee24c8dbd4984eff80e1691d9d3750",
            "ff15be1f9cee2859339841d55111714e0124f01ee9d6914d70b587fd63679004",
            # The superscript is an unexpected character at 1:8: names are ASCII.
            "90c8ff1f73ddbb9611065f5218edde8ca6dbcfc9f0a7516239ccc1de0c071bd8",
            "9e1bce9b98735d712293e7f587ddd8b9dbac7265e3c4c312385eb0d492d3e6d2",
        ],
        strict=True,
    )
)


class TestParserMatchesReference:
    """``dsl.Parser`` gives the reference parser's trees, positions and errors."""

    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_round_trip_corpus(self, text):
        assert outcome_digest([text]) == CORPUS_DIGESTS[text]

    def test_depth_budget_shapes(self):
        texts = [
            text
            for shape in depth_shapes()
            for text in (f"print {shape};", f"ring A = [a];\nideal I = {shape} in A;")
        ]
        assert len(texts) == 88
        assert outcome_digest(texts) == (
            "d4098be46bf9a6d414d5a523dd5ef104e148cd5783b313f116c5279ab9993fca"
        )

    def test_random_token_strings(self):
        rng = random.Random(30)
        texts = [random_token_text(rng) for _ in range(20000)]
        assert {isinstance(parse_outcome(text)[0], Script) for text in texts} == {True, False}
        assert outcome_digest(texts) == (
            "3337026b1e979e382a3d630d7d1f0fad4ebccafa9730343ec90e81f247afa8fa"
        )


AB = "ring A = [a, b]; "


class TestErrors:
    def test_lexical_error_has_position(self):
        cases = [
            ("ring A = [x, y];\nprint I ? J;", (2, 9)),
            ("print\tI ? J;", (1, 9)),
            ("# a comment line\nprint I ? J;", (2, 9)),
            ("ring A = [x];\r\n\tprint x\t? y;", (2, 10)),
        ]
        for text, position in cases:
            with pytest.raises(ParseError) as err:
                parse(text)
            assert (err.value.line, err.value.column) == position, text
            assert "unexpected character '?'" in str(err.value)

    def test_unicode_digit_is_not_an_integer(self):
        for digit in ("\u00b2", "\u0663"):
            with pytest.raises(ParseError) as err:
                parse(f"ring A = [x];\nprint x^{digit};")
            assert (err.value.line, err.value.column) == (2, 9)
            assert f"unexpected character {digit!r}" in str(err.value)
            # Nor does it continue a name.
            assert scan_outcome(dsl._scan, f"x{digit}") == scan_outcome(
                reference_tokenize, f"x{digit}"
            )
            assert scan_outcome(dsl._scan, f"x{digit}")[1:] == (1, 2)

    def test_syntax_error_reports_token(self):
        with pytest.raises(ParseError) as err:
            parse("ideal I = (x^2,, y) in A;")
        assert "got" in str(err.value)
        # a comment does not advance the column: end of input sits at its '#'
        with pytest.raises(ParseError) as err:
            parse("print x # no semicolon")
        assert str(err.value) == "1:9: expected ';' (got 'end of input')"

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
        # One wanted argument is singular.
        with pytest.raises(EvalError) as err:
            run_script("ring A = [x];\nprint betti((x), (x));")
        assert str(err.value) == "2:7: betti expects 1 argument, got 2"

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
        "builtin", ["binom_sat", "check_eq", "check_terms", "check_depthreg"]
    )
    @pytest.mark.parametrize(
        "args", ["(a), (0), (b), (b)", "(a), (b), (b), (0)"], ids=["K", "L"]
    )
    def test_zero_saturating_ideal_has_one_message(self, builtin, args):
        with pytest.raises(EvalError) as err:
            run_script(f"ring A = [a, b];\nprint {builtin}({args}, 1);")
        assert str(err.value) == "2:7: saturated power needs nonzero ideals"

    def test_saturating_by_zero_keeps_its_message(self):
        with pytest.raises(EvalError) as err:
            run_script("ring A = [a, b];\nprint saturate((a), (0));")
        assert str(err.value) == "2:7: saturation by the zero ideal"

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

    @pytest.mark.parametrize(
        "script, message",
        [
            ("ring A = [a, 2];", "1:10: ring literal entries must be names"),
            ("ring A = 1;", "1:1: expected a ring on the right-hand side"),
            ("ring A = [a]; ideal I = (a) in Q;", "1:15: 'Q' is not a bound ring"),
            ("print (1, 2);", "1:7: ideal literal needs a ring in scope"),
            ("print 1 + 1;", "1:9: no ring in scope for an ideal constant"),
            ("ring A = [a]; print [a] + a;", "1:25: expected a monomial ideal"),
            ("print x^y;", "1:9: expected an integer exponent (got 'y')"),
            ("ring = 1;", "1:6: expected a name (got '=')"),
            ("foo;", "1:1: expected 'ring', 'ideal' or 'print' (got 'foo')"),
            (AB + "print (a, [a]);", "1:24: ideal literal entries must be monomials"),
            (AB + "print contains((a), (a, b));", "1:38: expected a monomial"),
            (AB + "print symb_min((a), a);", "1:38: expected an integer"),
            (AB + "print join(A, a);", "1:32: expected a ring"),
            (AB + "print witness((a), foo);", "1:37: expected 'min' or 'ass'"),
            (
                AB + "print gradezero((a^2), (a));",
                "1:36: expected a prime generated by variables",
            ),
            (
                AB + "print gradezero((0), (a));",
                "1:35: expected a prime generated by variables",
            ),
            (
                AB + "print gradezero((1), (a));",
                "1:35: expected a prime generated by variables",
            ),
            (
                AB + "print check_filt(a, [a], [a], a, 1);",
                "1:35: expected a bracket list of ideals",
            ),
        ],
    )
    def test_argument_and_statement_errors(self, script, message):
        with pytest.raises((ParseError, EvalError)) as err:
            run_script(script)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "script, printed",
        [
            (AB + "print (a, 1);", "(1)"),
            (AB + "print (a, 0);", "(a)"),
            (AB + "print contains((b^2), 1);", "false"),
            (AB + "ideal J = (a*b) in A; print contains((a), J);", "true"),
        ],
    )
    def test_constants_and_principal_ideals_coerce(self, script, printed):
        assert run_script(script) == [printed]

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


WITNESS_B = "ring A = [a, b];\nideal I = (a^2, a*b) in A;\nring B = [c];\n"


class TestMonomialLiterals:
    """Monomial literals are evaluated on exponent tuples, at run time."""

    def test_variable_table_is_bounded(self):
        assert dsl._variables.cache_info().maxsize == core._MEMO_SIZE

    def test_bindings_shadow_variable_names(self):
        # x is bound to an ideal, so x*y and x^2 are ideal operations.
        script = "ring A = [x, y];\nideal x = (y^2) in A;\nprint x * y;\nprint x^2;"
        assert run_script(script) == ["(y^3)", "(y^4)"]
        with pytest.raises(EvalError) as err:
            run_script(script + "\nprint (x, y);")
        assert str(err.value) == "5:7: ideal literal entries must be monomials"

    def test_products_and_powers(self):
        script = "ring A = [a, b, c];\nprint a*b^3*c^10 * (a^2)^2 * b^0;\nprint (c^12*a, 1, 0);"
        assert run_script(script) == ["a^5*b^3*c^10", "(1)"]
        assert run_script("ring A = [a, b];\nprint (a*b, b^2*a^0, 0);") == ["(a*b, b^2)"]

    @pytest.mark.parametrize(
        "statement, message",
        [
            # witness(I, min) is b in ring A, while c is a variable of B
            ("print witness(I, min) * c;", "4:23: ring mismatch: [a, b] vs [c]"),
            ("print (witness(I, min), c);", "4:7: generator c not in [a, b]"),
            ("print (c, witness(I, min), 1);", "4:7: generator b not in [c]"),
            # an entry that is no monomial is reported before a stray ring
            ("print (witness(I, min), c, I);", "4:7: ideal literal entries must be monomials"),
        ],
    )
    def test_ring_mismatch_messages(self, statement, message):
        with pytest.raises(EvalError) as err:
            run_script(WITNESS_B + statement)
        assert str(err.value) == message

    def test_monomials_of_other_rings_multiply_in_their_ring(self):
        script = "ring A = [a, b];\nideal I = (a^2, a*b) in A;\nprint witness(I, min)^3 * a;"
        assert run_script(script) == ["a*b^3"]


class TestCoverageAudit:
    @pytest.mark.parametrize("operation", sorted(COVERAGE_SNIPPETS))
    def test_operation_reachable(self, operation):
        snippet, expected = COVERAGE_SNIPPETS[operation]
        assert run_script(PRELUDE + snippet) == expected

    def test_every_registered_function_is_exercised(self):
        used = set()
        for snippet, _ in COVERAGE_SNIPPETS.values():
            for name in dsl._SIGNATURES:
                if name + "(" in snippet:
                    used.add(name)
        assert used == set(dsl._SIGNATURES)

    def test_a_misspelt_kind_fails_when_its_row_is_built(self):
        assert dsl._row(core, "radical", "ideal").readers == (dsl.Evaluator.ideal,)
        with pytest.raises(AttributeError, match="idael"):
            dsl._row(core, "radical", "idael")
        with pytest.raises(AttributeError, match="integr"):
            dsl._row(core, "radical", "ideal", "integr")

    def test_readme_rows_name_the_registered_functions(self):
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        rows = re.findall(
            r"^\| `(\w+)\(.*?\)` \| `(\w+)`", readme.read_text(), re.MULTILINE
        )
        assert sorted(name for name, _ in rows) == sorted(dsl._SIGNATURES)
        for name, function in rows:
            module, attr = dsl._SIGNATURES[name][:2]
            if module is dsl:
                # a script-side handler: it calls the library function named
                assert function in getattr(dsl, attr).__code__.co_names, name
            else:
                assert attr == function, name
