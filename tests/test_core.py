import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from idealkit import core
from idealkit.core import (
    IdealArgumentError,
    Monomial,
    MonomialIdeal,
    MonomialPrime,
    Ring,
    RingMismatchError,
    colon,
    colon_monomial,
    contains,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    intersect_all,
    minimalize,
    principal,
    radical,
    saturate,
)
from idealkit.binomial import RingEmbedding
from idealkit.decomposition import IrreducibleComponent, irreducible_decomposition
from idealkit.dsl import run_script
from monomial_boxes import monomials_of_degree_at_most
from small_ideals import A, R3, XY, exponent_vectors, ideal, ideals3, monomials3, proper3

nonzero3 = ideals3.filter(lambda i: not i.is_zero)


class TestRingAndMonomial:
    def test_ring_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Ring.of("x", "x")

    def test_ring_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Ring(("",))

    def test_monomial_parse_and_render(self):
        m = Monomial.parse(R3, "x^2*z")
        assert m.exponents == (2, 0, 1)
        assert str(m) == "x^2*z"
        assert str(R3.one()) == "1"

    def test_monomial_rejects_negative(self):
        with pytest.raises(ValueError):
            R3.monomial((-1, 0, 0))

    @pytest.mark.parametrize(
        "build, shown",
        [
            (lambda: A.monomial((2.5, 0)), "2.5"),
            (lambda: A.monomial((1, 1)).power(2.5), "2.5"),
            (lambda: A.monomial(("3", 0)), "'3'"),
            (lambda: MonomialPrime(A, (0.9,)), "0.9"),
            (lambda: IrreducibleComponent(A, ((0, 1.5),)), "1.5"),
            (lambda: RingEmbedding(A, XY, (0, 1.5)), "1.5"),
            (lambda: A.monomial((float("inf"), 0)), "inf"),
            (lambda: A.monomial((0, float("nan"))), "nan"),
            (lambda: A.monomial((None, 0)), "None"),
            (lambda: A.monomial(("x", 0)), "'x'"),
        ],
        ids=[
            "monomial",
            "power",
            "string",
            "prime",
            "component",
            "embedding",
            "inf",
            "nan",
            "none",
            "word",
        ],
    )
    def test_constructors_reject_values_that_are_not_whole(self, build, shown):
        with pytest.raises(ValueError, match=f"^expected a whole number, got {shown}$"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MonomialPrime(A, (2,)),
            lambda: MonomialPrime(A, (-1, 0)),
            lambda: IrreducibleComponent(A, ((5, 1),)),
            lambda: IrreducibleComponent(A, ((-1, 2),)),
            lambda: IrreducibleComponent(A, ((0, 1), (2, 3))),
        ],
        ids=["prime-high", "prime-low", "component-high", "component-low", "component-mixed"],
    )
    def test_constructors_reject_variable_indices_out_of_range(self, build):
        with pytest.raises(ValueError, match="^variable index out of range: "):
            build()

    def test_divide_out_clamps(self):
        m = Monomial.parse(R3, "x^2*y")
        d = Monomial.parse(R3, "x*y^3")
        assert m.divide_out(d) == Monomial.parse(R3, "x")

    def test_ring_mismatch_raises(self):
        with pytest.raises(RingMismatchError):
            Monomial.parse(A, "a") * Monomial.parse(XY, "x")

    @given(exponent_vectors, exponent_vectors, st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_arithmetic_matches_the_constructor(self, e, f, k):
        m, n = R3.monomial(e), R3.monomial(f)
        pairs = [
            (R3.variable(k % 3), [int(i == k % 3) for i in range(3)]),
            (m * n, [a + b for a, b in zip(e, f)]),
            (m.power(k), [a * k for a in e]),
            (m.power(True), list(e)),
            (m.power(2.0), [a * 2 for a in e]),
            (m.lcm(n), [max(a, b) for a, b in zip(e, f)]),
            (m.divide_out(n), [max(a - b, 0) for a, b in zip(e, f)]),
            ((m * n).divide_exact(n), list(e)),
        ]
        for built, exps in pairs:
            public = Monomial(R3, exps)
            assert built == public and hash(built) == hash(public)
            assert all(type(x) is int for x in built.exponents)

    @pytest.mark.parametrize(
        "value, other",
        [(A, ("a", "b")), (ideal(A, "a^2, a*b"), (A, ((2, 0), (1, 1))))],
        ids=["ring", "ideal"],
    )
    def test_values_never_equal_another_class(self, value, other):
        assert value.__eq__(other) is NotImplemented
        assert value != other and not value == other

    def test_arithmetic_error_messages(self):
        a, x = Monomial.parse(A, "a"), Monomial.parse(XY, "x")
        mismatch = r"^ring mismatch: \[a, b\] vs \[x, y\]$"
        for operation in (Monomial.__mul__, Monomial.lcm, Monomial.divide_out,
                          Monomial.divide_exact):
            with pytest.raises(RingMismatchError, match=mismatch):
                operation(a, x)
        with pytest.raises(ValueError, match="^negative power$"):
            x.power(-1)
        with pytest.raises(ValueError, match=r"^x\^2 does not divide x\*y$"):
            Monomial.parse(XY, "x*y").divide_exact(Monomial.parse(XY, "x^2"))


class TestCanonicalForm:
    def test_minimalize_drops_multiples(self):
        result = minimalize(
            A, (Monomial.parse(A, "a^2"), Monomial.parse(A, "a^3"), Monomial.parse(A, "a*b"))
        )
        assert result == ideal(A, "a^2, a*b")

    def test_minimalize_empty_is_zero(self):
        assert minimalize(A, ()).is_zero

    def test_unit_absorbs(self):
        result = minimalize(A, (A.one(), Monomial.parse(A, "a")))
        assert result.is_unit

    def test_render_matches_worked_examples(self):
        assert str(ideal(A, "a*b, a^2")) == "(a^2, a*b)"
        assert str(ideal_power(ideal(A, "a^2, a*b"), 2)) == "(a^4, a^3*b, a^2*b^2)"
        assert str(MonomialIdeal.zero(A)) == "(0)"
        assert str(MonomialIdeal.unit(A)) == "(1)"

    @given(st.lists(monomials3, min_size=1, max_size=5), st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_generator_order_is_irrelevant(self, gens, rnd):
        shuffled = list(gens)
        rnd.shuffle(shuffled)
        assert MonomialIdeal(R3, tuple(gens)) == MonomialIdeal(R3, tuple(shuffled))


class TestMembership:
    def test_spec_examples(self):
        i = ideal(A, "a^2, a*b")
        assert contains(i, Monomial.parse(A, "a^3"))
        assert not contains(i, Monomial.parse(A, "b^5"))
        assert contains(MonomialIdeal.unit(A), A.one())

    @given(ideals3, monomials3)
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_generator_scan(self, i, m):
        expected = any(g.divides(m) for g in i.generators)
        assert contains(i, m) == expected


class TestArithmetic:
    def test_power_of_example_ideal(self):
        i = ideal(A, "a^2, a*b")
        assert ideal_power(i, 2) == ideal(A, "a^4, a^3*b, a^2*b^2")

    def test_power_zero_is_unit(self):
        assert ideal_power(ideal(A, "a^2, a*b"), 0).is_unit

    def test_product_of_disjoint_variables(self):
        assert ideal_product(ideal(XY, "x"), ideal(XY, "y")) == ideal(XY, "x*y")

    def test_product_with_a_zero_side_is_the_callers_zero_ideal(self):
        zero, x = MonomialIdeal.zero(XY), ideal(XY, "x")
        for a, b in ((zero, x), (x, zero), (zero, zero)):
            product = ideal_product(a, b)
            assert product == zero and product.ring is XY and str(product) == "(0)"

    def test_operators_are_the_named_operations(self):
        i, j = ideal(XY, "x^2, x*y"), ideal(XY, "y^3")
        assert i + j == ideal_sum(i, j) == ideal(XY, "x^2, x*y, y^3")
        assert i * j == ideal_product(i, j) == ideal(XY, "x^2*y^3, x*y^4")

    def test_generator_lcm(self):
        assert ideal(XY, "x^2, x*y^3").lcm_of_generators() == Monomial.parse(XY, "x^2*y^3")
        with pytest.raises(IdealArgumentError, match="^zero ideal has no generator lcm$"):
            MonomialIdeal.zero(XY).lcm_of_generators()

    def test_intersect_disjoint_variables(self):
        assert intersect(ideal(XY, "x"), ideal(XY, "y")) == ideal(XY, "x*y")

    def test_intersect_example_components(self):
        assert intersect(ideal(A, "a"), ideal(A, "a^2, b")) == ideal(A, "a^2, a*b")

    def test_intersect_with_unit(self):
        i = ideal(A, "a^2, a*b")
        assert intersect(i, MonomialIdeal.unit(A)) == i

    @given(ideals3, ideals3)
    @settings(max_examples=50, deadline=None)
    def test_product_inside_intersection(self, i, j):
        prod = ideal_product(i, j)
        meet = intersect(i, j)
        assert meet.contains_ideal(prod)

    @given(proper3, proper3)
    @settings(max_examples=50, deadline=None)
    def test_product_equals_intersection_when_disjoint(self, i, j):
        supports_i = {v for g in i.generators for v in g.support()}
        supports_j = {v for g in j.generators for v in g.support()}
        if supports_i & supports_j:
            return
        assert ideal_product(i, j) == intersect(i, j)


class TestIntersectAll:
    def test_empty_collection_gives_the_unit_ideal(self):
        assert intersect_all(R3, []) == MonomialIdeal.unit(R3)
        assert intersect_all(A, iter(())).is_unit

    def test_first_ideal_in_another_ring_is_rejected(self):
        with pytest.raises(RingMismatchError) as info:
            intersect_all(R3, [ideal(A, "a"), ideal(A, "b")])
        assert str(info.value) == "ring mismatch: [x, y, z] vs [a, b]"
        with pytest.raises(RingMismatchError):
            intersect_all(R3, [ideal(R3, "x"), ideal(A, "b")])

    def test_the_fold_starts_from_the_first_ideal(self, monkeypatch):
        i, j, k = ideal(R3, "x^2, y"), ideal(R3, "y*z, x"), ideal(R3, "z^3")
        calls = []
        real = core.intersect

        def counted(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(core, "intersect", counted)
        assert intersect_all(R3, [i]) is i and calls == []
        assert intersect_all(R3, (i, j, k)) == real(real(i, j), k)
        assert len(calls) == 2 and calls[0] == (i, j)
        assert not any(a.is_unit for a, _ in calls)


def product_loop(i, s):
    """I^s as s products from the unit ideal, with no memo."""
    result = MonomialIdeal.unit(i.ring)
    for _ in range(s):
        result = ideal_product(result, i)
    return result


def module_container_sizes():
    return sum(
        len(value)
        for value in vars(core).values()
        if isinstance(value, (dict, set, list))
    )


class TestPowerMemo:
    @given(
        st.one_of(
            ideals3, st.sampled_from([MonomialIdeal.zero(R3), MonomialIdeal.unit(R3)])
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_product_loop(self, i):
        for s in range(5):
            assert ideal_power(i, s) == product_loop(i, s)

    def test_result_carries_the_callers_ring(self):
        other = Ring.of("p", "q")
        first = ideal_power(ideal(XY, "x^2, x*y"), 3)
        second = ideal_power(ideal(other, "p^2, p*q"), 3)
        assert [g.exponents for g in first.generators] == [
            g.exponents for g in second.generators
        ]
        assert first.ring == XY
        assert second.ring == other
        assert str(first) == "(x^6, x^5*y, x^4*y^2, x^3*y^3)"
        assert str(second) == "(p^6, p^5*q, p^4*q^2, p^3*q^3)"

    def test_repeated_power_is_the_stored_value(self):
        i = ideal(R3, "x^2, y*z, x*z^3")
        assert ideal_power(i, 3) is ideal_power(i, 3)

    def test_each_new_power_is_one_product(self, monkeypatch):
        products = []
        real = core.ideal_product

        def counted(a, b):
            products.append((a, b))
            return real(a, b)

        i = ideal(R3, "x^2, y*z, x*z^3")
        core._power.cache_clear()
        monkeypatch.setattr(core, "ideal_product", counted)
        try:
            assert ideal_power(i, 4) == product_loop(i, 4)
            assert len(products) == 3
            assert ideal_power(i, 6) == product_loop(i, 6)
            assert len(products) == 5
            ideal_power(i, 5)
            assert len(products) == 5
            assert all(b == i for _, b in products)
        finally:
            # The memo now holds powers built by the patched product.
            core._power.cache_clear()

    def test_memo_is_bounded(self):
        before = module_container_sizes()
        for a in range(1, 61):
            ideal_power(ideal(XY, f"x^{a}, y"), 20)
        assert module_container_sizes() == before
        info = core._power.cache_info()
        assert info.maxsize == core._MEMO_SIZE == 1024
        assert info.currsize <= 1024

    def test_concurrent_use_matches_serial(self):
        rnd = random.Random(5)
        cases = []
        while len(cases) < 60:
            gens = [
                R3.monomial([rnd.randint(0, 3) for _ in range(3)])
                for _ in range(rnd.randint(1, 4))
            ]
            cases.append((MonomialIdeal(R3, tuple(gens)), rnd.randint(0, 5)))
        # More distinct powers than the memo holds, so threads also evict.
        cases += [
            (ideal(XY, f"x^{a}, x*y, y^{b}"), 10) for a in range(2, 14) for b in range(2, 14)
        ]
        serial = [product_loop(i, s) for i, s in cases]
        core._power.cache_clear()
        results = [None] * 4

        def work(k):
            order = list(range(len(cases)))
            random.Random(k).shuffle(order)
            found = [None] * len(cases)
            for n in order:
                found[n] = ideal_power(*cases[n])
            results[k] = found

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(r == serial for r in results)

    def test_long_chain_stays_shallow(self):
        core._power.cache_clear()
        assert run_script("ring A = [x];\nprint (x)^5000;") == ["x^5000"]
        # (x) alone is a monomial; the declared ideal takes the ideal power.
        script = "ring A = [x];\nideal I = (x) in A;\nprint I^5000;"
        assert run_script(script) == ["(x^5000)"]


def brute_force_colon(i, k, degree_cap):
    """m is in i : k iff m*g is in i for every generator g of k."""
    ring = i.ring
    members = [
        m
        for m in monomials_of_degree_at_most(ring, degree_cap)
        if all(contains(i, m * g) for g in k.generators)
    ]
    return members


class TestColon:
    def test_derived_example_against_brute_force(self):
        i = ideal(A, "a^2, a*b")
        k = ideal(A, "a, b")
        result = colon(i, k)
        assert result == ideal(A, "a")
        for m in monomials_of_degree_at_most(A, 3):
            assert contains(result, m) == all(
                contains(i, m * g) for g in k.generators
            )

    def test_colon_by_unit(self):
        i = ideal(A, "a^2, a*b")
        assert colon(i, MonomialIdeal.unit(A)) == i

    def test_self_colon_is_unit(self):
        assert colon(ideal(XY, "x"), ideal(XY, "x")).is_unit

    def test_colon_by_zero_rejected(self):
        with pytest.raises(IdealArgumentError):
            colon(ideal(A, "a"), MonomialIdeal.zero(A))

    @given(proper3, nonzero3, nonzero3)
    @settings(max_examples=50, deadline=None)
    def test_colon_laws(self, i, k, k2):
        quotient = colon(i, k)
        assert quotient.contains_ideal(i)
        # antitone in k: a larger divisor ideal gives a smaller quotient
        bigger_k = ideal_sum(k, k2)
        assert quotient.contains_ideal(colon(i, bigger_k))
        assert colon(i, bigger_k) == intersect(colon(i, k), colon(i, k2))
        # monotone in i
        bigger_i = ideal_sum(i, k2)
        assert colon(bigger_i, k).contains_ideal(quotient)
        # iterated colon is colon by the product
        assert colon(quotient, k2) == colon(i, ideal_product(k, k2))

    @given(proper3, nonzero3)
    @settings(max_examples=50, deadline=None)
    def test_brute_force_agreement(self, i, k):
        result = colon(i, k)
        for m in monomials_of_degree_at_most(R3, 4):
            assert contains(result, m) == all(
                contains(i, m * g) for g in k.generators
            )


class TestSaturate:
    def test_sum_example(self):
        ring = Ring.of("x", "y", "z", "t")
        i = ideal(ring, "x^2, x*y, z^2, z*t")
        k = ideal(ring, "x, y, z, t")
        assert saturate(i, k) == ideal(ring, "x*z, x^2, x*y, z^2, z*t")

    def test_example_ideal(self):
        assert saturate(ideal(A, "a^2, a*b"), ideal(A, "a, b")) == ideal(A, "a")

    def test_saturate_by_unit(self):
        i = ideal(A, "a^2, a*b")
        assert saturate(i, MonomialIdeal.unit(A)) == i

    def test_saturate_by_zero_rejected(self):
        with pytest.raises(IdealArgumentError):
            saturate(ideal(A, "a"), MonomialIdeal.zero(A))

    def test_saturator_with_more_generators_than_variables(self):
        # more generators in the saturator than variables in the ring
        i = ideal(XY, "x^5*y^5")
        k = ideal(XY, "x^2, x*y, y^2")
        # the components (x^5) and (y^5) both survive: their radicals miss k
        assert saturate(i, k) == i
        assert saturate(ideal(XY, "x^5, y^5"), k).is_unit
        assert saturate(ideal(XY, "x^3*y^3, x^6"), ideal(XY, "y")) == ideal(XY, "x^3")

    @given(proper3, nonzero3)
    @settings(max_examples=50, deadline=None)
    def test_idempotent_and_increasing(self, i, k):
        once = saturate(i, k)
        assert once.contains_ideal(i)
        assert saturate(once, k) == once

    @given(ideals3, nonzero3)
    @settings(max_examples=200, deadline=None)
    def test_matches_colon_fixpoint(self, i, k):
        # independent route: the chain i : k^t grows until it stabilizes
        current = i
        while True:
            nxt = colon(current, k)
            if nxt == current:
                break
            current = nxt
        assert saturate(i, k) == current


class TestRadical:
    def test_examples(self):
        assert radical(ideal(A, "a^2, a*b")) == ideal(A, "a")
        assert radical(ideal(XY, "x^2*y^3")) == ideal(XY, "x*y")
        assert radical(MonomialIdeal.unit(A)).is_unit

    @given(ideals3)
    @settings(max_examples=50, deadline=None)
    def test_radical_is_idempotent_and_contains(self, i):
        rad = radical(i)
        assert radical(rad) == rad
        assert rad.contains_ideal(i)


class TestPrincipal:
    def test_principal_wraps_monomial(self):
        m = Monomial.parse(A, "a*b")
        assert principal(m) == ideal(A, "a*b")


class TestParsing:
    def test_ideal_parse_round_trips_degenerate_forms(self):
        for text in ("(0)", "(1)", "(a^2, a*b)"):
            parsed = MonomialIdeal.parse(A, text)
            assert MonomialIdeal.parse(A, str(parsed)) == parsed

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            Monomial.parse(A, "q^2")

    @pytest.mark.parametrize(
        "parse",
        [
            lambda: Monomial.parse(A, "c"),
            lambda: MonomialIdeal.parse(A, "c"),
            lambda: MonomialIdeal.parse(A, "a, c^2"),
            lambda: MonomialPrime.of_names(A, "a", "c"),
            lambda: A.index_of("c"),
        ],
        ids=["monomial", "ideal", "second_entry", "prime", "index_of"],
    )
    def test_unknown_variable_is_named(self, parse):
        with pytest.raises(ValueError) as err:
            parse()
        assert str(err.value) == "unknown variable 'c' in [a, b]"

    @pytest.mark.parametrize(
        "text, power",
        [
            ("a^1_0", "1_0"),
            ("a^\u0663", "\u0663"),
            ("a^", ""),
            ("b*a^", ""),
            ("a^+3", "+3"),
            ("a^-1", "-1"),
            ("a^2.0", "2.0"),
        ],
    )
    def test_exponents_are_ascii_decimal(self, text, power):
        # int() would read "1_0" as 10 and the Arabic-Indic digit as 3
        for parse in (Monomial.parse, MonomialIdeal.parse):
            with pytest.raises(ValueError) as err:
                parse(A, text)
            assert str(err.value) == f"bad exponent {power!r} in {text!r}"

    def test_zero_entries_add_no_generator(self):
        # as the script language reads (a, 0)
        assert MonomialIdeal.parse(A, "a, 0") == ideal(A, "a")
        assert MonomialIdeal.parse(A, "(0, b^2, 0)") == ideal(A, "b^2")
        assert MonomialIdeal.parse(A, "0, 0").is_zero
        assert MonomialIdeal.parse(A, "0").is_zero
        assert MonomialIdeal.parse(A, "a^03") == ideal(A, "a^3")

    def test_parse_tolerates_spacing(self):
        assert MonomialIdeal.parse(A, " a^2 ,  a * b ".replace(" * ", "*")) == ideal(
            A, "a^2, a*b"
        )


# -- the Monomial-based kernel that the exponent-tuple kernel replaced --


def ref_antichain(gens):
    ordered = sorted(set(gens), key=Monomial.sort_key)
    kept = []
    for m in ordered:
        if not any(k.divides(m) for k in kept):
            kept.append(m)
    return tuple(kept)


def ref_one(ring):
    return Monomial(ring, (0,) * ring.nvars)


def ref_sum(a, b):
    return ref_antichain(a.generators + b.generators)


def ref_product(a, b):
    if a.is_zero or b.is_zero:
        return ()
    return ref_antichain(tuple(g * h for g in a.generators for h in b.generators))


def ref_intersect_gens(gs, hs):
    if not gs or not hs:
        return ()
    return ref_antichain(tuple({g.lcm(h) for g in gs for h in hs}))


def ref_intersect(a, b):
    return ref_intersect_gens(a.generators, b.generators)


def ref_colon_monomial(a, m):
    return ref_antichain(tuple(g.divide_out(m) for g in a.generators))


def ref_saturate(a, k):
    n = a.max_exponent()
    result = (ref_one(a.ring),)
    for g in k.generators:
        result = ref_intersect_gens(result, ref_colon_monomial(a, g.power(n)))
    return result


def ref_radical(a):
    return ref_antichain(
        tuple(
            Monomial(a.ring, tuple(1 if e > 0 else 0 for e in g.exponents))
            for g in a.generators
        )
    )


@st.composite
def kernel_inputs(draw):
    """A ring of 1-5 variables, two ideals (zero and unit included) and a monomial."""
    ring = Ring(tuple(f"x{i}" for i in range(draw(st.integers(1, 5)))))
    exponent = st.one_of(st.integers(0, 3), st.integers(128, 300))
    monomials = st.lists(exponent, min_size=ring.nvars, max_size=ring.nvars).map(
        lambda e: Monomial(ring, tuple(e))
    )
    ideals = st.one_of(
        st.lists(monomials, max_size=5).map(lambda g: MonomialIdeal(ring, tuple(g))),
        st.sampled_from([MonomialIdeal.zero(ring), MonomialIdeal.unit(ring)]),
    )
    return ring, draw(ideals), draw(ideals), draw(monomials)


def assert_same_value(built, ring, expected_gens):
    """``built`` lies in ``ring``, the operands' ring, and equals and hashes
    like the publicly constructed ideal and generators."""
    assert built.ring == ring
    public = MonomialIdeal(ring, expected_gens)
    assert built == public and hash(built) == hash(public)
    assert built.generators == expected_gens
    for g, h in zip(built.generators, expected_gens):
        assert hash(g) == hash(h) and all(type(e) is int for e in g.exponents)
    assert MonomialIdeal(built.ring, built.generators) == built


class TestTupleKernel:
    @given(kernel_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_monomial_kernel(self, inputs):
        ring, a, b, m = inputs
        assert core._antichain([g.exponents for g in a.generators + b.generators]) == [
            g.exponents for g in ref_sum(a, b)
        ]
        assert_same_value(a, ring, ref_antichain(a.generators))
        assert_same_value(ideal_sum(a, b), ring, ref_sum(a, b))
        assert_same_value(ideal_product(a, b), ring, ref_product(a, b))
        assert_same_value(intersect(a, b), ring, ref_intersect(a, b))
        assert_same_value(colon_monomial(a, m), ring, ref_colon_monomial(a, m))
        assert_same_value(radical(a), ring, ref_radical(a))
        if not b.is_zero:
            assert_same_value(saturate(a, b), ring, ref_saturate(a, b))
        for g in b.generators:
            assert a.contains(g) == any(h.divides(g) for h in a.generators)

    def test_internal_constants_equal_the_public_ones(self):
        for ring in (A, R3, Ring.of("x0", "x1", "x2", "x3", "x4")):
            one = ring.one()
            assert one == Monomial(ring, (0,) * ring.nvars) and hash(one) == hash(
                Monomial(ring, (0,) * ring.nvars)
            )
            assert_same_value(MonomialIdeal.unit(ring), ring, (Monomial(ring, one.exponents),))
            assert_same_value(MonomialIdeal.zero(ring), ring, ())

    def test_components_equal_the_public_ones(self):
        i = ideal(R3, "x^2*y, x*z^3, y^130*z")
        for c in irreducible_decomposition(i):
            public = IrreducibleComponent(R3, c.powers)
            assert c == public and hash(c) == hash(public)
            prime = MonomialPrime(R3, [v for v, _ in c.powers])
            assert c.radical() == prime and hash(c.radical()) == hash(prime)
            gens = tuple(
                R3.monomial([e if v == j else 0 for j in range(3)]) for v, e in c.powers
            )
            assert_same_value(c.as_ideal(), R3, ref_antichain(gens))

    def test_public_constructors_still_validate(self):
        with pytest.raises(ValueError, match=re.escape("negative exponent in (1, -1, 0)")):
            Monomial(R3, (1, -1, 0))
        with pytest.raises(ValueError, match=re.escape("expected 3 exponents, got 2")):
            Monomial(R3, (1, 1))
        with pytest.raises(ValueError, match=re.escape("expected 3 exponents, got 2")):
            R3.monomial((1, 1))
        with pytest.raises(RingMismatchError, match=re.escape("generator a not in [x, y, z]")):
            MonomialIdeal(R3, (Monomial.parse(A, "a"),))
        with pytest.raises(RingMismatchError, match=re.escape("ring mismatch: [a, b] vs [x, y]")):
            ideal_product(ideal(A, "a"), ideal(XY, "x"))
        with pytest.raises(RingMismatchError, match=re.escape("ring mismatch: [a, b] vs [x, y]")):
            ideal(A, "a").contains(Monomial.parse(XY, "x"))


class TestCanonicalisationSpan:
    def test_each_operation_reaches_the_module_antichain(self, monkeypatch):
        # The benchmark tracer spans canonicalisation by replacing the
        # module global core._antichain and reads len() of its argument
        # and result.
        i = ideal(R3, "x^2*y, y*z, x*z^3")
        j = ideal(R3, "x*y, z^2")
        m = Monomial.parse(R3, "x*z")
        calls = []
        real = core._antichain

        def counted(exps):
            calls.append(len(exps))
            result = real(exps)
            len(result)
            return result

        monkeypatch.setattr(core, "_antichain", counted)
        operations = {
            "ideal_product": lambda: ideal_product(i, j),
            "ideal_sum": lambda: ideal_sum(i, j),
            "intersect": lambda: intersect(i, j),
            "colon_monomial": lambda: colon_monomial(i, m),
            "saturate": lambda: saturate(i, j),
            "radical": lambda: radical(i),
            "MonomialIdeal": lambda: MonomialIdeal(R3, i.generators),
        }
        for name, operation in operations.items():
            calls.clear()
            operation()
            assert calls, name


class TestAntichainDegrees:
    def test_only_lower_degrees_are_tested(self, monkeypatch):
        line = ideal(XY, "x, y")
        tests = []
        real = core._le

        def counted(a, b):
            tests.append((a, b))
            return real(a, b)

        monkeypatch.setattr(core, "_le", counted)
        # An equigenerated input, repeats included, makes no divisibility test.
        assert core._antichain([(3 - i, i) for i in range(4)] * 2) == [
            (3, 0), (2, 1), (1, 2), (0, 3)
        ]
        power = ideal_power(line, 300)
        assert len(power.generators) == 301 and power.generators[1] == Monomial(XY, (299, 1))
        assert tests == []
        # Across degrees the tests still run and drop the multiples.
        assert core._antichain([(2, 1), (1, 0), (0, 2), (1, 1)]) == [(1, 0), (0, 2)]
        assert tests


class TestGeneratorView:
    """Kernel results hold exponent tuples; ``generators`` is built on first read."""

    @staticmethod
    def count_monomials(monkeypatch):
        built = []
        real = core._monomial

        def counted(ring, exps):
            built.append(exps)
            return real(ring, exps)

        monkeypatch.setattr(core, "_monomial", counted)
        return built

    def test_kernel_operations_build_no_monomial(self, monkeypatch):
        from idealkit import decomposition, powers

        i = ideal(R3, "x^2*y, y*z, x*z^3")
        j = ideal(R3, "x*y, z^2")
        unit = MonomialIdeal.unit(R3)
        built = self.count_monomials(monkeypatch)
        results = [
            intersect(i, j),
            saturate(i, j),
            ideal_power(i, 3),
            powers._binomial_sum(R3, [unit, i, ideal_power(i, 2)], [unit, j, j]),
        ]
        decomposition._components(ideal_power(j, 2))
        # The memos keyed by ideals hash them, and the hash reads no view.
        powers.saturated_power(i, j, 2)
        powers.symbolic_power(i, 2, "min")
        # j splits into (x*y) + (z^2), so its power takes the binomial route.
        powers.symbolic_power(j, 2, "ass")
        decomposition.ass_star_bounded(j, 3)
        assert results[0] == intersect(j, i) and results[2] != results[3]
        assert built == []

    def test_the_first_read_builds_the_view_once(self, monkeypatch):
        i = ideal(R3, "x^2*y, y*z, x*z^3")
        hash(i)
        built = self.count_monomials(monkeypatch)
        power = ideal_power(i, 2)
        assert built == []
        view = power.generators
        assert built == list(power._exps) and len(built) == len(view)
        assert power.generators is view
        assert len(built) == len(power.generators)
        assert power == MonomialIdeal(R3, power.generators)

    def test_printing_builds_no_monomial(self, monkeypatch):
        ideals = [
            ideal_power(ideal(R3, "x^2*y, y*z, x*z^3"), 2),
            MonomialIdeal.zero(R3),
            MonomialIdeal.unit(R3),
        ]
        built = self.count_monomials(monkeypatch)
        texts = [str(i) for i in ideals]
        assert built == []
        assert all("generators" not in vars(i) for i in ideals)
        assert texts[1:] == ["(0)", "(1)"]
        assert texts[0] == "(" + ", ".join(str(g) for g in ideals[0].generators) + ")"


# Rings of 1 to 5 variables, and ideals over them whose exponents run from 0
# through multi-digit values, so every form of a printed factor shows up.
_print_rings = st.integers(1, 5).map(lambda n: Ring(tuple("xyzuv"[:n])))
_printed_ideals = _print_rings.flatmap(
    lambda ring: st.lists(
        st.tuples(*[st.sampled_from((0, 1, 2, 9, 10, 123))] * ring.nvars), max_size=5
    ).map(lambda exps: MonomialIdeal(ring, tuple(Monomial(ring, e) for e in exps)))
)


class TestPrinting:
    """Ideals print from their exponent tuples exactly as from their generators."""

    @given(_printed_ideals)
    @settings(max_examples=200, deadline=None)
    def test_str_matches_the_generators(self, i):
        expected = "(" + ", ".join(str(g) for g in i.generators) + ")"
        assert str(i) == ("(0)" if i.is_zero else expected)

    @pytest.mark.parametrize(
        "ring, text, printed",
        [
            (R3, "0", "(0)"),
            (R3, "1", "(1)"),
            (R3, "x^2, y^10*z, x*z^123", "(x^2, y^10*z, x*z^123)"),
            (Ring.of("a"), "a^2", "(a^2)"),
        ],
    )
    def test_zero_unit_and_multi_digit_exponents(self, ring, text, printed):
        assert str(MonomialIdeal.parse(ring, text)) == printed
