import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from idealkit import core
from idealkit.core import (
    IdealArgumentError,
    Monomial,
    MonomialIdeal,
    Ring,
    RingMismatchError,
    colon,
    contains,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    minimalize,
    monomials_of_degree_at_most,
    principal,
    radical,
    saturate,
)
from idealkit.dsl import run_script

A = Ring.of("a", "b")
XY = Ring.of("x", "y")
R3 = Ring.of("x", "y", "z")


def ideal(ring, text):
    return MonomialIdeal.parse(ring, text)


# -- hypothesis strategies over a fixed 3-variable ring --

exponent_vectors = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)
monomials3 = exponent_vectors.map(lambda e: R3.monomial(e))
ideals3 = st.lists(monomials3, min_size=1, max_size=4).map(
    lambda gens: MonomialIdeal(R3, tuple(gens))
)
nonzero3 = ideals3.filter(lambda i: not i.is_zero)
proper3 = ideals3.filter(lambda i: not i.is_zero and not i.is_unit)


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

    def test_divide_out_clamps(self):
        m = Monomial.parse(R3, "x^2*y")
        d = Monomial.parse(R3, "x*y^3")
        assert m.divide_out(d) == Monomial.parse(R3, "x")

    def test_ring_mismatch_raises(self):
        with pytest.raises(RingMismatchError):
            Monomial.parse(A, "a") * Monomial.parse(XY, "x")


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
        assert info.maxsize == core._POWER_MEMO_SIZE == 1024
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

    def test_parse_tolerates_spacing(self):
        assert MonomialIdeal.parse(A, " a^2 ,  a * b ".replace(" * ", "*")) == ideal(
            A, "a^2, a*b"
        )
