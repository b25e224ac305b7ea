"""The value protocol of the package's immutable classes, the build hook the
benchmark tracer counts through, and the cost of a cold import."""

import copy
import os
import pickle
import random
import subprocess
import sys

import pytest

import idealkit
from idealkit import fuzz
from idealkit.binomial import (
    AssStructureReport,
    DepthRegReport,
    EqualityCriteriaReport,
    FiltrationReport,
    SymbolicEqualityReport,
    RingEmbedding,
    TermInclusionReport,
)
from idealkit import dsl
from idealkit.core import Monomial, MonomialIdeal, MonomialPrime, Ring, _Value
from idealkit.decomposition import IrreducibleComponent, primary_decomposition
from idealkit.dsl import AddOp, MulOp, Name, parse
from idealkit.homology import ExtendedInt, betti_table

A = Ring.of("a", "b")
B = Ring.of("x", "y", "z")
I = MonomialIdeal.parse(A, "a^2, a*b")

# Each case builds one value afresh and names its fields in constructor order.
VALUES = {
    "Ring": (lambda: Ring.of("a", "b"), ["variables"]),
    "Monomial": (lambda: Monomial(A, (2, 1)), ["ring", "exponents"]),
    "MonomialIdeal": (lambda: MonomialIdeal.parse(A, "a^2, a*b"), ["ring", "generators"]),
    "MonomialPrime": (lambda: MonomialPrime(A, (1, 0)), ["ring", "support"]),
    "IrreducibleComponent": (
        lambda: IrreducibleComponent(A, ((1, 1), (0, 2))),
        ["ring", "powers"],
    ),
    "PrimaryDecomposition": (lambda: primary_decomposition(I), ["components"]),
    # The constructor, not the memoised join_rings, which returns one object.
    "RingEmbedding": (
        lambda: RingEmbedding(B, Ring.of("a", "b", "x", "y", "z"), (2, 3, 4)),
        ["source", "target", "index_map"],
    ),
    "BettiTable": (lambda: betti_table(I), ["ring", "against", "entries"]),
    "ExtendedInt": (lambda: ExtendedInt(float("-inf")), ["value"]),
    "DepthRegReport": (
        lambda: DepthRegReport(ExtendedInt(1), ExtendedInt(1), ExtendedInt(2), ExtendedInt(3)),
        ["depth_lhs", "depth_rhs", "reg_lhs", "reg_rhs"],
    ),
    "TermInclusionReport": (lambda: TermInclusionReport((True, False)), ["term_included"]),
    "EqualityCriteriaReport": (
        lambda: EqualityCriteriaReport((True,), (False, True), False),
        ["i_equal", "j_equal", "joint_equal"],
    ),
    "SymbolicEqualityReport": (
        lambda: SymbolicEqualityReport(True, (True,), (True, True)),
        ["joint_equal", "i_equal", "j_equal"],
    ),
    "AssStructureReport": (
        lambda: AssStructureReport(True, True, False, True, True, None, True, False),
        [
            "tensor_ass_equal",
            "lower_bound_holds",
            "upper_bound_holds",
            "quotient_ass_agrees",
            "grade_dichotomy_holds",
            "saturator_min_equal",
            "saturator_ass_equal",
            "stabilized",
        ],
    ),
    "FiltrationReport": (
        lambda: FiltrationReport(True, False, True, True, False, True),
        [
            "premises_ok",
            "disjoint_product_equal",
            "sum_intersection_equal",
            "single_step_equal",
            "long_intersection_equal",
            "colon_distributes",
        ],
    ),
    "FuzzConfig": (
        lambda: fuzz.FuzzConfig(seed=4, cases=7, suites=["thm38"]),
        [
            "seed",
            "max_vars_per_side",
            "max_generators",
            "max_exponent",
            "max_s",
            "cases",
            "suites",
        ],
    ),
    "Instance": (
        lambda: fuzz.generate_instance(random.Random(5), fuzz.FuzzConfig()),
        ["ring_a", "ideal_i", "sat_k", "ring_b", "ideal_j", "sat_l", "s"],
    ),
    "Script": (
        lambda: parse("ring A = [a, b];\nideal I = (a^2, a*b) in A;\nprint I^2 + a;"),
        ["statements"],
    ),
}

# An ideal hashes its ring and canonical exponent tuples, not its Monomial
# view, so a memo key builds no view; a Betti table likewise hashes its
# exponent-tuple rows, not its entries; every other value hashes its fields.
HASHED = {
    "MonomialIdeal": lambda i: (i.ring, i._exps),
    "BettiTable": lambda t: (t.ring, t.against, t._rows),
}


@pytest.mark.parametrize("name", VALUES)
class TestValueProtocol:
    def test_equal_fields_give_equal_values_and_hashes(self, name):
        build, fields = VALUES[name]
        value, again = build(), build()
        assert type(value).__name__ == name
        assert value is not again
        assert value == again and not value != again
        assert hash(value) == hash(again)
        hashed = HASHED.get(name, lambda v: tuple(getattr(v, f) for f in fields))
        assert hash(value) == hash(hashed(value))
        # The constructor takes every field by keyword and keeps it as given.
        rebuilt = type(value)(**{f: getattr(value, f) for f in fields})
        assert rebuilt == value and hash(rebuilt) == hash(value)

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        build, fields = VALUES[name]
        value = build()
        for field in fields:
            before = getattr(value, field)
            with pytest.raises(AttributeError):
                setattr(value, field, before)
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert getattr(value, field) is before
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_repr_lists_the_fields(self, name):
        build, fields = VALUES[name]
        value = build()
        shown = ", ".join(f"{f}={getattr(value, f)!r}" for f in fields)
        assert repr(value) == f"{name}({shown})"

    @pytest.mark.parametrize(
        "round_trip",
        [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trips_give_an_equal_value(self, name, round_trip):
        value = VALUES[name][0]()
        restored = round_trip(value)
        assert type(restored) is type(value)
        assert restored == value and hash(restored) == hash(value)
        assert repr(restored) == repr(value)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_class_is_covered():
    import idealkit.cli  # noqa: F401  (loads every module the CLI uses)

    records = {
        cls.__name__ for cls in _subclasses(_Value) if not issubclass(cls, dsl.Node)
    }
    assert records == set(VALUES)


# The records whose fields the shared _Value constructor stores, each with one
# value of every field in declared order.
RECORDS = {
    name: VALUES[name]
    for name in [
        "PrimaryDecomposition",
        "BettiTable",
        "DepthRegReport",
        "TermInclusionReport",
        "EqualityCriteriaReport",
        "SymbolicEqualityReport",
        "AssStructureReport",
        "FiltrationReport",
        "Instance",
        "Script",
    ]
}


@pytest.mark.parametrize("name", RECORDS)
class TestRecordConstructor:
    def test_positional_and_keyword_fields_mix(self, name):
        build, fields = RECORDS[name]
        value = build()
        values = [getattr(value, f) for f in fields]
        for split in range(len(fields) + 1):
            named = dict(zip(fields[split:], values[split:]))
            rebuilt = type(value)(*values[:split], **named)
            assert rebuilt == value and repr(rebuilt) == repr(value)

    def test_wrong_fields_raise_type_error_naming_them(self, name):
        build, fields = RECORDS[name]
        value = build()
        cls = type(value)
        values = [getattr(value, f) for f in fields]
        wrong = [
            ("missing", values[:-1], {}),
            ("extra", values + [None], {}),
            ("unknown", values, {"extra_field": None}),
            ("twice", values, {fields[0]: values[0]}),
            ("missing by name", [], dict(zip(fields[1:], values[1:]))),
        ]
        for label, args, named in wrong:
            with pytest.raises(TypeError, match=f"^{name} takes the fields") as info:
                cls(*args, **named)
            assert ", ".join(fields) in str(info.value), label


# One case per AST node class: its fields, given by position.
NODES = {
    dsl.Name: ("a",),
    dsl.IntLit: (3,),
    dsl.AddOp: (dsl.Name("a"), dsl.Name("b")),
    dsl.MulOp: (dsl.Name("a"), dsl.Name("b")),
    dsl.PowOp: (dsl.Name("a"), 2),
    dsl.CallOp: ("radical", (dsl.Name("I"),)),
    dsl.IdealLit: ((dsl.Name("a"), dsl.Name("b")),),
    dsl.BracketList: ((dsl.Name("a"),),),
    dsl.RingDecl: ("R", dsl.BracketList((dsl.Name("a"),))),
    dsl.IdealDecl: ("I", dsl.Name("a"), "R"),
    dsl.PrintStmt: (dsl.Name("a"),),
}


@pytest.mark.parametrize("cls", NODES, ids=lambda cls: cls.__name__)
def test_node_fields_are_given_by_position(cls):
    fields = NODES[cls]
    node = cls(*fields, pos=(4, 2))
    assert cls.__match_args__ and len(cls.__match_args__) == len(fields)
    assert tuple(getattr(node, f) for f in cls.__match_args__) == fields
    assert node.pos == (4, 2) and cls(*fields).pos == (0, 0)
    assert node == cls(*fields) and hash(node) == hash(cls(*fields))
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(cls.__match_args__, fields))
    assert repr(node) == f"{cls.__name__}({shown})"


def test_records_and_nodes_write_no_constructor():
    nodes = {cls for cls in _subclasses(dsl.Node) if not cls.__name__.startswith("_")}
    assert nodes == set(NODES)
    records = {type(build()) for build, _ in RECORDS.values()}
    for cls in nodes | records:
        assert "__init__" not in vars(cls), cls.__name__
    for cls in records:
        assert cls.__init__ is _Value.__init__, cls.__name__


class TestNodeEquality:
    def test_operators_of_different_kinds_differ(self):
        assert parse("print a + b;") != parse("print a * b;")
        a, b = Name("a"), Name("b")
        assert AddOp(a, b) != MulOp(a, b)

    def test_position_is_left_out(self):
        first = parse("print a + b^2;").statements[0]
        moved = parse("ring R = [a, b];\n\n   print a + b^2;").statements[1]
        assert first.pos == (1, 1) and moved.pos == (3, 4)
        assert first == moved and hash(first) == hash(moved)
        assert repr(first) == repr(moved)
        assert "pos" not in repr(first)
        assert Name("a", pos=(2, 5)) == Name("a")

    def test_position_is_keyword_only(self):
        with pytest.raises(TypeError):
            Name("a", (1, 1))
        for cls, fields in NODES.items():
            with pytest.raises(TypeError):
                cls(*fields, (1, 1))


class TestMonomialBuildHook:
    def test_each_public_build_calls_the_hook_on_the_class_once(self, monkeypatch):
        # The benchmark tracer counts core.monomial.built by replacing
        # Monomial.__post_init__ on the class, so the constructor must look the
        # hook up when it runs; kernel-built monomials must not reach it.
        built = []
        real = Monomial.__post_init__

        def counted(self):
            built.append(self.exponents)
            real(self)

        monkeypatch.setattr(Monomial, "__post_init__", counted)
        m = Monomial(A, [2, 1])
        n = A.monomial((0, 1))
        assert built == [[2, 1], (0, 1)]
        assert m.exponents == (2, 1)

        # parse builds its exponents whole, non-negative and in range.
        p = Monomial.parse(A, "a*b^3")
        m * n, m.lcm(n), m.divide_out(n), p.divide_exact(n), m.power(3)
        A.one(), A.variable(1), I.lcm_of_generators()
        MonomialIdeal(A, (m, n, p)) ** 2
        assert len(built) == 2

        with pytest.raises(ValueError):
            Monomial(A, (1, -1))
        assert len(built) == 3


class TestColdStart:
    @staticmethod
    def loaded_after_cli_import(names):
        """Which of ``names`` a fresh interpreter has loaded after ``import idealkit.cli``."""
        src = os.path.dirname(os.path.dirname(idealkit.__file__))
        probe = (
            "import sys, idealkit.cli\n"
            f"print(sorted({set(names)!r} & set(sys.modules)))\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        )
        return run.stdout

    def test_cli_import_skips_dataclasses_and_inspect(self):
        assert self.loaded_after_cli_import({"dataclasses", "inspect"}) == "[]\n"

    def test_cli_import_skips_fractions(self):
        # Only a characteristic-0 rank with a pivot other than 1 or -1 needs it.
        assert self.loaded_after_cli_import({"fractions", "decimal"}) == "[]\n"
