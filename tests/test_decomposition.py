import itertools
import operator
import time
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from idealkit import core, decomposition, powers
from idealkit.core import (
    IdealArgumentError,
    MonomialIdeal,
    MonomialPrime,
    Ring,
    _ideal,
    colon,
    colon_monomial,
    contains,
    ideal_power,
    intersect,
    intersect_all,
    radical,
    saturate,
)
from idealkit.decomposition import (
    IrreducibleComponent,
    ass_module_quotient,
    ass_module_quotient_exhaustive,
    ass_star_bounded,
    associated_primes,
    default_power_bound,
    grade_zero,
    irreducible_decomposition,
    minimal_primes,
    primary_decomposition,
)
from idealkit.homology import taylor_betti_table
from idealkit.powers import saturator_min, symbolic_min
from monomial_boxes import monomials_below
from packed_meet import packed_meet, tuple_components, tuple_meet
from small_ideals import A, PATHOLOGICAL, R12, R13, R3, R4, R5, X1, XY, ideal, proper3
from small_ideals import boundary_ideals, sparse_ideal
from memo_rows import ROW, check_cold_past_the_bound, check_threads_find


monomials4 = st.tuples(*[st.integers(0, 3)] * 4).map(R4.monomial)
proper4 = (
    st.lists(monomials4, min_size=1, max_size=4)
    .map(lambda gens: MonomialIdeal(R4, tuple(gens)))
    .filter(lambda i: not i.is_zero and not i.is_unit)
)


RINGS_UP_TO_4 = [Ring(tuple("xyzt"[:n])) for n in range(1, 5)]
proper_up_to_4 = (
    st.sampled_from(RINGS_UP_TO_4)
    .flatmap(
        lambda ring: st.lists(
            st.tuples(*[st.integers(0, 3)] * ring.nvars).map(ring.monomial),
            min_size=1,
            max_size=4,
        ).map(lambda gens: MonomialIdeal(ring, tuple(gens)))
    )
    .filter(lambda i: not i.is_zero and not i.is_unit)
)


ideals_up_to_4 = st.one_of(
    proper_up_to_4, st.sampled_from(RINGS_UP_TO_4).map(MonomialIdeal.unit)
)


# Exponent tuples of degree d or d + 1 with entries <= 4: a drawn list of them
# reduces to a mixed-degree antichain of 6-24 generators far more often than
# uniformly drawn tuples do: the size of the duals folded for small ideals.
_shells = {
    d: [t for t in itertools.product(range(5), repeat=5) if sum(t) in (d, d + 1)]
    for d in range(3, 10)
}
antichains5 = (
    st.sampled_from(sorted(_shells))
    .flatmap(lambda d: st.lists(st.sampled_from(_shells[d]), min_size=6, max_size=30))
    .map(lambda exps: _ideal(R5, exps))
    .filter(lambda i: 6 <= len(i.generators) <= 24)
)


def irreducible_for(i, data):
    """A drawn irreducible ideal of i's ring; anchored, it holds a generator of i."""
    n = i.ring.nvars
    exps = data.draw(
        st.dictionaries(st.integers(0, n - 1), st.integers(1, 4), min_size=1)
    )
    nonunit = [g for g in i.generators if not g.is_one()]
    if nonunit and data.draw(st.booleans()):
        g = data.draw(st.sampled_from(nonunit))
        j = data.draw(st.sampled_from(g.support()))
        exps[j] = data.draw(st.integers(1, g.exponents[j]))
    return IrreducibleComponent(i.ring, tuple(exps.items()))


def reference_split(i, memo):
    """Irreducible components by splitting, one canonical MonomialIdeal per node.

    This is the splitter the exponent-tuple kernel replaced; it is kept as
    an independent oracle for it.
    """
    if i in memo:
        return memo[i]
    pivot = next((g for g in i.generators if len(g.support()) >= 2), None)
    if pivot is None:
        powers = tuple((g.support()[0], g.degree()) for g in i.generators)
        result = frozenset({IrreducibleComponent(i.ring, powers)})
    else:
        v = pivot.support()[0]
        head = i.ring.variable(v).power(pivot.exponents[v])
        tail = pivot.divide_exact(head)
        left = MonomialIdeal(i.ring, i.generators + (head,))
        right = MonomialIdeal(i.ring, i.generators + (tail,))
        result = reference_split(left, memo) | reference_split(right, memo)
    memo[i] = result
    return result


def reference_decomposition(i):
    """Split, then drop every component that contains another one as an ideal."""
    raw = sorted(reference_split(i, {}), key=IrreducibleComponent.sort_key)
    ideals = {c: c.as_ideal() for c in raw}
    return tuple(
        c
        for c in raw
        if not any(d is not c and ideals[c].contains_ideal(ideals[d]) for d in raw)
    )


def ass_by_colon_oracle(i):
    """Associated primes are exactly the prime colons I : m with m | lcm(G(I))."""
    primes = set()
    for m in monomials_below(i.lcm_of_generators()):
        if i.contains(m):
            continue
        quotient = colon_monomial(i, m)
        if quotient.is_zero or quotient.is_unit:
            continue
        if all(g.degree() == 1 for g in quotient.generators):
            primes.add(
                MonomialPrime(i.ring, tuple(g.support()[0] for g in quotient.generators))
            )
    return frozenset(primes)


class TestIrreducibleDecomposition:
    @pytest.mark.parametrize(
        "powers, message",
        [
            ((), "^irreducible component must be nonempty$"),
            (((0, 0),), r"^exponents must be positive: \(\(0, 0\),\)$"),
            (((0, 1), (0, 2)), r"^repeated variable in \(\(0, 1\), \(0, 2\)\)$"),
        ],
        ids=["empty", "zero-exponent", "repeated-variable"],
    )
    def test_irreducible_component_rejects(self, powers, message):
        with pytest.raises(ValueError, match=message):
            IrreducibleComponent(A, powers)

    def test_example_ideal(self):
        comps = {c.as_ideal() for c in irreducible_decomposition(ideal(A, "a^2, a*b"))}
        assert comps == {ideal(A, "a"), ideal(A, "a^2, b")}
        assert intersect_all(A, comps) == ideal(A, "a^2, a*b")
        for c in comps:
            others = [d for d in comps if d != c]
            assert not c.contains_ideal(intersect_all(A, others)) or not others

    def test_sum_example(self):
        comps = {
            c.as_ideal()
            for c in irreducible_decomposition(ideal(R4, "x^2, x*y, z^2, z*t"))
        }
        assert comps == {
            ideal(R4, "x, z"),
            ideal(R4, "x, z^2, t"),
            ideal(R4, "x^2, y, z"),
            ideal(R4, "x^2, y, z^2, t"),
        }

    def test_pure_power_is_already_irreducible(self):
        comps = irreducible_decomposition(ideal(XY, "x^3"))
        assert [c.as_ideal() for c in comps] == [ideal(XY, "x^3")]

    def test_rejects_zero_and_unit(self):
        with pytest.raises(IdealArgumentError):
            irreducible_decomposition(MonomialIdeal.zero(A))
        with pytest.raises(IdealArgumentError):
            irreducible_decomposition(MonomialIdeal.unit(A))

    @given(proper3)
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_and_irredundancy(self, i):
        comps = [c.as_ideal() for c in irreducible_decomposition(i)]
        assert intersect_all(R3, comps) == i
        for dropped in range(len(comps)):
            rest = [c for k, c in enumerate(comps) if k != dropped]
            if rest:
                assert intersect_all(R3, rest) != i

    @given(proper3, st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_independent_of_generator_order(self, i, rnd):
        gens = list(i.generators)
        rnd.shuffle(gens)
        again = MonomialIdeal(R3, tuple(gens))
        assert irreducible_decomposition(i) == irreducible_decomposition(again)

    @given(proper4)
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_splitter(self, i):
        for power in (i, ideal_power(i, 2)):
            assert irreducible_decomposition(power) == reference_decomposition(power)

    def test_roadmap_pathological_square(self):
        square = ideal_power(ideal(R12, PATHOLOGICAL), 2)
        assert len(irreducible_decomposition(square)) == 400
        assert len(associated_primes(square)) == 64

    def test_roadmap_pathological_cube(self):
        i = ideal(R12, PATHOLOGICAL)
        cube = ideal_power(i, 3)
        decomposition._irredundant.cache_clear()
        started = time.monotonic()
        assert len(irreducible_decomposition(cube)) == 1200
        assert len(associated_primes(cube)) == 64
        symbolic = symbolic_min(i, 3)
        assert time.monotonic() - started < 5
        assert len(symbolic.generators) == 56
        assert symbolic == saturate(cube, saturator_min(i, 3))


class TestMeet:
    """The packed kernel, through a test-local pack and unpack, against the
    tuple kernel it replaced (``packed_meet.tuple_meet``) and ``intersect``."""

    @given(ideals_up_to_4, st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_generic_intersection(self, i, data):
        q = irreducible_for(i, data)
        gens = [g.exponents for g in i.generators]
        result = packed_meet(gens, q.powers, data.draw(st.integers(0, 3)))
        assert result == tuple_meet(gens, q.powers)
        expected = intersect(i, q.as_ideal())
        assert _ideal(i.ring, result) == expected
        # Already minimal: no duplicates and no generator dividing another.
        assert sorted(result) == sorted(g.exponents for g in expected.generators)

    @given(antichains5, st.data())
    @settings(max_examples=150, deadline=None)
    def test_large_antichains_with_full_supports_and_ties(self, i, data):
        gens = [g.exponents for g in i.generators]
        support = data.draw(
            st.one_of(st.just(set(range(5))), st.sets(st.integers(0, 4), min_size=1))
        )
        exps = {j: data.draw(st.integers(1, 4)) for j in sorted(support)}
        # A tie g_j = e_j puts g in Q on the boundary of the test g_j >= e_j.
        g = data.draw(st.sampled_from(gens))
        for j in sorted(support):
            if g[j] and data.draw(st.booleans()):
                exps[j] = g[j]
        q = IrreducibleComponent(R5, tuple(exps.items()))
        result = packed_meet(gens, q.powers)
        assert result == tuple_meet(gens, q.powers)
        expected = intersect(i, q.as_ideal())
        assert _ideal(R5, result) == expected
        assert len(set(result)) == len(result)
        assert not any(
            h != r and all(map(operator.le, h, r)) for h in result for r in result
        )
        shuffled = data.draw(st.permutations(gens))
        assert set(packed_meet(shuffled, q.powers)) == set(result)

    def test_generators_inside_q_are_kept_unchanged(self):
        i = ideal(R3, "x^2*y, y^2*z, x*z^3")
        q = IrreducibleComponent(R3, ((0, 2), (2, 2)))
        gens = [g.exponents for g in i.generators]
        result = packed_meet(gens, q.powers)
        assert result == tuple_meet(gens, q.powers)
        assert sorted(result) == [(0, 2, 2), (1, 0, 3), (2, 1, 0)]

    def test_saturation_route_and_oracles_never_call_it(self, monkeypatch):
        i = ideal(R3, "x^2*y, y^2*z, x*z^3")
        cube = ideal_power(i, 3)
        # Warm the decomposition memo: Ass and Min are read from it, and
        # only the intersections of the saturation route are under test.
        primes = associated_primes(cube)
        minimal_primes(i)

        def forbidden(*args):
            raise AssertionError("the saturation route reached _meet")

        # The symbolic fold reaches the kernel through decomposition's global.
        monkeypatch.setattr(decomposition, "_meet", forbidden)
        with pytest.raises(AssertionError):
            powers.symbolic_min(i, 3)
        for notion in powers.NOTIONS:
            saturate(cube, powers._saturator(i, primes, notion))
        colon(cube, i)
        intersect(cube, i)
        ass_module_quotient_exhaustive(i, 3)
        taylor_betti_table(i, 0)

        # The box oracle builds no colon ideal per point: with the cube in
        # the power memo, it reads no colon and canonicalises nothing.
        def canonical(*args):
            raise AssertionError("the box oracle built an ideal")

        monkeypatch.setattr(core, "_colon", canonical)
        monkeypatch.setattr(core, "_antichain", canonical)
        assert ass_module_quotient_exhaustive(i, 3) == primes


class TestFieldWidths:
    """Every decomposition and symbolic fold at the field-width boundaries,
    against the tuple kernel and against ``intersect``."""

    # Ideals of 1-3 generators, each in 1-2 variables.
    @given(st.one_of(boundary_ideals(X1, 2, 3), boundary_ideals(R13, 2, 3)), st.integers(1, 2))
    @example(sparse_ideal(X1, [{0: 2**62}]), 2)
    @example(sparse_ideal(R13, [{0: 2**62 + 1, 12: 1}, {12: 2**30}, {5: 7, 6: 2**62 - 1}]), 2)
    @example(sparse_ideal(R13, [{0: 3, 1: 4}, {1: 2, 12: 8}, {0: 1, 12: 9}]), 2)
    @settings(max_examples=80, deadline=None)
    def test_boundary_exponents_match_the_tuple_and_intersect_routes(self, i, s):
        ring, unit = i.ring, [(0,) * i.ring.nvars]
        power = ideal_power(i, s)
        components = irreducible_decomposition(power)
        assert [c.powers for c in components] == tuple_components(power._exps)
        assert intersect_all(ring, [c.as_ideal() for c in components]) == power
        primary = primary_decomposition(power)
        assert primary.primes() == {c.radical() for c in components}
        for prime, q in primary:
            group = [c for c in components if c.radical() == prime]
            assert q == intersect_all(ring, [c.as_ideal() for c in group])
            assert q == _ideal(ring, reduce(tuple_meet, [c.powers for c in group], unit))
        # The kept rules, on the supports of the tuple kernel's components of I.
        supports = {frozenset(j for j, _ in c) for c in tuple_components(i._exps)}
        kept = {
            "min": lambda p: not any(q < p for q in supports),
            "ass": lambda p: any(p <= q for q in supports),
        }
        for notion, keep in kept.items():
            chosen = [c for c in components if keep(frozenset(c.radical().support))]
            expected = intersect_all(ring, [c.as_ideal() for c in chosen])
            assert expected == _ideal(ring, reduce(tuple_meet, [c.powers for c in chosen], unit))
            assert powers._symbolic_direct(i, s, notion) == expected
            assert powers.symbolic_power(i, s, notion) == expected


class TestDecompositionMemo:
    def test_result_carries_the_callers_ring(self):
        other = Ring.of("p", "q", "r", "s")
        first = irreducible_decomposition(ideal(R4, "x^2*y, y*z^3, z*t"))
        second = irreducible_decomposition(ideal(other, "p^2*q, q*r^3, r*s"))
        assert [c.powers for c in first] == [c.powers for c in second]
        assert all(c.ring == R4 for c in first)
        assert all(c.ring == other for c in second)
        assert [str(c) for c in first] == [
            "(z, x^2)", "(y, z)", "(y, t)", "(t, x^2, z^3)"
        ]
        assert [str(c) for c in second] == [
            "(r, p^2)", "(q, r)", "(q, s)", "(s, p^2, r^3)"
        ]

    def test_memo_is_bounded(self):
        check_cold_past_the_bound(ROW["decomposition._irredundant"])

    def test_concurrent_use_matches_serial(self):
        row = ROW["decomposition._irredundant"]
        check_threads_find(row, [row.reference(*case) for case in row.cases])


class TestPrimaryDecomposition:
    def test_example_ideal_grouping(self):
        decomposition = primary_decomposition(ideal(A, "a^2, a*b"))
        as_dict = {p: q for p, q in decomposition}
        assert as_dict == {
            MonomialPrime.of_names(A, "a"): ideal(A, "a"),
            MonomialPrime.of_names(A, "a", "b"): ideal(A, "a^2, b"),
        }

    def test_sum_example_keys(self):
        decomposition = primary_decomposition(ideal(R4, "x^2, x*y, z^2, z*t"))
        assert decomposition.primes() == {
            MonomialPrime.of_names(R4, "x", "z"),
            MonomialPrime.of_names(R4, "x", "z", "t"),
            MonomialPrime.of_names(R4, "x", "y", "z"),
            MonomialPrime.of_names(R4, "x", "y", "z", "t"),
        }

    def test_primary_ideal_is_its_own_decomposition(self):
        square = ideal_power(ideal(A, "a, b"), 2)
        decomposition = primary_decomposition(square)
        assert len(decomposition) == 1
        assert decomposition.component(MonomialPrime.of_names(A, "a", "b")) == square

    def test_component_of_a_prime_not_in_the_decomposition(self):
        decomposition = primary_decomposition(ideal_power(ideal(A, "a, b"), 2))
        with pytest.raises(KeyError, match=r"^'\(a\)'$"):
            decomposition.component(MonomialPrime.of_names(A, "a"))

    @given(proper3)
    @settings(max_examples=40, deadline=None)
    def test_components_reconstruct_and_radicals_match_keys(self, i):
        decomposition = primary_decomposition(i)
        assert intersect_all(R3, (q for _, q in decomposition)) == i
        for p, q in decomposition:
            assert radical(q) == p.as_ideal()


class TestAssociatedPrimes:
    def test_example_ideal(self):
        i = ideal(A, "a^2, a*b")
        assert associated_primes(i) == {
            MonomialPrime.of_names(A, "a"),
            MonomialPrime.of_names(A, "a", "b"),
        }
        assert minimal_primes(i) == {MonomialPrime.of_names(A, "a")}

    def test_sum_example_minimal(self):
        assert minimal_primes(ideal(R4, "x^2, x*y, z^2, z*t")) == {
            MonomialPrime.of_names(R4, "x", "z")
        }

    def test_prime_is_its_own_ass_and_min(self):
        p = ideal(XY, "x, y")
        assert associated_primes(p) == minimal_primes(p) == {
            MonomialPrime.of_names(XY, "x", "y")
        }

    @given(proper3)
    @settings(max_examples=50, deadline=None)
    def test_colon_oracle_agreement(self, i):
        assert associated_primes(i) == ass_by_colon_oracle(i)

    @given(proper3)
    @settings(max_examples=50, deadline=None)
    def test_min_inside_ass_and_radical_identity(self, i):
        mins = minimal_primes(i)
        assert mins <= associated_primes(i)
        assert intersect_all(R3, (p.as_ideal() for p in mins)) == radical(i)


class TestAssStar:
    def test_example_ideal(self):
        star, stabilized = ass_star_bounded(ideal(A, "a^2, a*b"), 3)
        assert star == {
            MonomialPrime.of_names(A, "a"),
            MonomialPrime.of_names(A, "a", "b"),
        }
        assert stabilized

    def test_prime_powers_are_primary(self):
        star, stabilized = ass_star_bounded(ideal(XY, "x, y"), 2)
        assert star == {MonomialPrime.of_names(XY, "x", "y")}
        assert stabilized

    def test_embedded_prime_appears_in_some_power(self):
        star, _ = ass_star_bounded(ideal(XY, "x^2*y, x*y^2"), 4)
        assert star >= {
            MonomialPrime.of_names(XY, "x"),
            MonomialPrime.of_names(XY, "y"),
            MonomialPrime.of_names(XY, "x", "y"),
        }

    def test_default_bound_and_validation(self):
        i = ideal(A, "a^2, a*b")
        assert default_power_bound(i) == 4
        with pytest.raises(ValueError):
            ass_star_bounded(i, 1)


class TestGradeZero:
    def test_spec_examples(self):
        assert grade_zero(MonomialPrime.of_names(A, "a", "b"), ideal(A, "a^2, a*b"))
        assert not grade_zero(MonomialPrime.of_names(A, "b"), ideal(A, "a"))
        assert grade_zero(MonomialPrime.of_names(XY, "x"), ideal(XY, "x"))

    def test_rejects_empty_prime(self):
        with pytest.raises(IdealArgumentError):
            grade_zero(MonomialPrime(A, ()), ideal(A, "a"))


class TestQuotientAss:
    def test_quotient_by_first_power_is_ass_of_quotient_ring(self):
        assert ass_module_quotient(ideal(A, "a^2, a*b"), 1) == {
            MonomialPrime.of_names(A, "a"),
            MonomialPrime.of_names(A, "a", "b"),
        }

    def test_cyclic_quotient(self):
        assert ass_module_quotient(ideal(XY, "x"), 2) == {
            MonomialPrime.of_names(XY, "x")
        }

    def test_derived_example_against_exhaustive(self):
        i = ideal(XY, "x^2, x*y")
        result = ass_module_quotient(i, 1)
        assert result == ass_module_quotient_exhaustive(i, 1)
        assert result == {
            MonomialPrime.of_names(XY, "x"),
            MonomialPrime.of_names(XY, "x", "y"),
        }

    def test_index_validation(self):
        with pytest.raises(ValueError):
            ass_module_quotient(ideal(A, "a"), 0)

    @pytest.mark.parametrize(
        "argument, index, error, message",
        [
            (MonomialIdeal.zero(A), 1, IdealArgumentError,
             "the zero ideal has no primary decomposition here"),
            (MonomialIdeal.unit(A), 1, IdealArgumentError,
             "the unit ideal has no primary decomposition"),
            (MonomialIdeal.zero(A), 0, IdealArgumentError,
             "the zero ideal has no primary decomposition here"),
            (ideal(A, "a"), 0, ValueError, "quotient index must be positive"),
            (ideal(A, "a"), -1, ValueError, "quotient index must be positive"),
        ],
    )
    def test_rejections_pinned(self, argument, index, error, message):
        # Both routes validate alike: the ideal first, then the index.
        for route in (ass_module_quotient, ass_module_quotient_exhaustive):
            with pytest.raises(ValueError) as caught:
                route(argument, index)
            assert (caught.type, str(caught.value)) == (error, message)

    def test_square_of_a_product_has_both_variable_primes(self):
        # I^2 = (x^2*y^2) has components (x^2) and (y^2), with witnesses
        # x*y^2 and x^2*y, both in I.
        assert ass_module_quotient(ideal(XY, "x*y"), 2) == {
            MonomialPrime.of_names(XY, "x"),
            MonomialPrime.of_names(XY, "y"),
        }

    @given(proper_up_to_4, st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_ass_of_power_matches_exhaustive_box(self, i, index):
        assert ass_module_quotient(i, index) == ass_module_quotient_exhaustive(
            i, index
        )

    @given(proper_up_to_4, st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_a_variable_times_m_in_the_power_puts_m_in_the_one_below(self, i, index):
        # The lemma behind ass_module_quotient, with no decomposition: if
        # x_j * m lies in I^index, then m lies in I^(index-1).  Membership in
        # I^index ignores exponents above the lcm of G(I^index), and m lies
        # in I^(index-1) once its meet with that lcm does, so the box below
        # the lcm covers every m.
        high, low = ideal_power(i, index), ideal_power(i, index - 1)
        variables = [i.ring.variable(j) for j in range(i.ring.nvars)]
        for m in monomials_below(high.lcm_of_generators()):
            if any(contains(high, x * m) for x in variables):
                assert contains(low, m)

    @given(proper_up_to_4)
    @settings(max_examples=30, deadline=None)
    def test_no_component_is_shared_by_two_powers(self, i):
        # Consequence (b) of the lemma.  For a component
        # Q = (x_j^e_j : j in T) of I^k, let m_j = e_j - 1 on T and m exceed
        # every generator exponent off T.  Then m misses Q and lies in every
        # other component, so x_j * m lies in I^k for j in T, and m lies in
        # I^(k-1) by the lemma.  Every lower power holds m, so none lies
        # inside Q, and Q is none of their components.
        seen = {}
        for index in range(1, 5):
            for c, _ in decomposition._components(ideal_power(i, index)):
                assert seen.setdefault(c, index) == index

    @staticmethod
    def box_candidates(i, index):
        """Box points m with m in I^(index-1) and m outside I^index."""
        low, high = ideal_power(i, index - 1), ideal_power(i, index)
        box = high.lcm_of_generators().lcm(low.lcm_of_generators())
        return high, [
            m for m in monomials_below(box) if low.contains(m) and not high.contains(m)
        ]

    @staticmethod
    def count_prime_tests(monkeypatch):
        """The colons, as lists of (g - e)^+, that the oracle tests for a prime."""
        read = []
        prime_support = decomposition._prime_support

        def counted(gens):
            read.append(tuple(gens))
            return prime_support(gens)

        monkeypatch.setattr(decomposition, "_prime_support", counted)
        return read

    @staticmethod
    def colon_tuples(high, m):
        """I^i : m as the (g - e)^+ over the generators g of I^i, e = exp(m)."""
        return tuple(
            tuple(max(a - b, 0) for a, b in zip(g, m.exponents)) for g in high._exps
        )

    def test_box_oracle_builds_fewer_colons(self, monkeypatch):
        # Of the 94 box points in I^2 and outside I^3, 45 have some x_j * m
        # in I^3; only their colons are tested for a prime.
        i = ideal(R3, "x^3, x*y^2, y^3*z")
        _, candidates = self.box_candidates(i, 3)
        read = self.count_prime_tests(monkeypatch)
        assert ass_module_quotient_exhaustive(i, 3) == ass_module_quotient(i, 3)
        assert (len(read), len(candidates)) == (45, 94)

    @given(proper3, st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_box_oracle_skips_only_colons_without_a_variable(self, i, index):
        # Same result as testing the canonical colon at every candidate, and
        # every skipped candidate's colon holds no variable.
        high, candidates = self.box_candidates(i, index)
        with pytest.MonkeyPatch.context() as monkeypatch:
            read = self.count_prime_tests(monkeypatch)
            result = ass_module_quotient_exhaustive(i, index)
        every = {
            decomposition._prime_support(colon_monomial(high, m)._exps)
            for m in candidates
        }
        assert result == decomposition._primes(i.ring, every - {0})
        for m in candidates:
            if self.colon_tuples(high, m) not in read:
                assert all(g.degree() > 1 for g in colon_monomial(high, m).generators)

    @given(proper_up_to_4, st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_box_oracle_matches_a_full_box_scan(self, i, index):
        # The oracle scans only the sub-boxes one step below a generator of
        # I^index; a scan of every box point, with a colon at each, agrees.
        high, candidates = self.box_candidates(i, index)
        primes = set()
        for m in candidates:
            gens = colon_monomial(high, m).generators
            if all(g.degree() == 1 for g in gens):
                primes.add(MonomialPrime(i.ring, [g.support()[0] for g in gens]))
        assert ass_module_quotient_exhaustive(i, index) == primes

    @given(
        st.sampled_from(RINGS_UP_TO_4).flatmap(
            lambda ring: st.tuples(
                st.just(ring),
                st.lists(st.tuples(*[st.integers(0, 3)] * ring.nvars), max_size=6),
            )
        )
    )
    @example((R3, [(1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 1, 0)]))
    @example((R3, [(0, 0, 0), (1, 0, 0)]))
    @example((R3, [(1, 0, 0), (0, 1, 1)]))
    @example((R3, []))
    @settings(max_examples=200, deadline=None)
    def test_prime_support_reads_any_generating_set(self, ring_and_gens):
        # Repeats, the zero tuple and non-minimal lists included, the mask is
        # that of the canonical generators when all of them are variables.
        ring, gens = ring_and_gens
        canonical = MonomialIdeal(ring, tuple(map(ring.monomial, gens))).generators
        expected = 0
        if all(g.degree() == 1 for g in canonical):
            for g in canonical:
                expected |= 1 << g.support()[0]
        assert decomposition._prime_support(gens) == expected

    @given(proper3, st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_contained_in_ass_of_power(self, i, index):
        assert ass_module_quotient(i, index) <= associated_primes(
            ideal_power(i, index)
        )

    @given(proper3, st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_filtration_covers_ass_of_power_quotient(self, i, index):
        union = set()
        for j in range(1, index + 1):
            union |= ass_module_quotient(i, j)
        assert associated_primes(ideal_power(i, index)) <= union
