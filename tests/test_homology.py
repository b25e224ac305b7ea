import copy
import hashlib
import inspect
import itertools
import pickle
import random
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import and_, or_
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from idealkit.core import (
    IdealArgumentError,
    Monomial,
    MonomialIdeal,
    Ring,
    _MEMO_SIZE,
    ideal_power,
)
from idealkit.homology import (
    _is_prime_number,
    NEG_INF,
    POS_INF,
    BettiTable,
    ExtendedInt,
    _collapse_core,
    _cone_ranks,
    _core_homology,
    _maximal,
    _rank,
    _upper_koszul_faces,
    betti_table,
    depth_quotient,
    deriv_star,
    reduced_homology_dimensions,
    reg_quotient,
    taylor_betti_table,
)
from idealkit import homology
from idealkit.binomial import (
    DepthRegReport,
    check_depth_reg_binomial,
    check_depth_reg_symbolic_ass,
    joined_sum,
)
from idealkit.powers import saturated_power
from lattice_betti import lattice_betti_table, lattice_points, lattice_walk, walk_facets
from packed_cone import packed_cone_ranks, tuple_collapse_keys, tuple_cone_ranks
from small_ideals import A, PATHOLOGICAL, R12, R13, R3, R4, R5, X1, ideal
from small_ideals import boundary_ideals, sparse_ideal

ABCD = Ring.of("a", "b", "c", "d")




def reference_sum(a, b):
    """The sum of two ExtendedInt values, by the case rules that
    ``ExtendedInt.__add__`` once spelled out by hand."""
    if isinstance(a, int) and isinstance(b, int):
        return a + b
    if a == float("inf") and b == float("-inf"):
        raise ValueError("cannot add +inf and -inf")
    if a == float("-inf") and b == float("inf"):
        raise ValueError("cannot add +inf and -inf")
    return a if isinstance(a, float) else b


def reference_str(value):
    """``str`` of an ExtendedInt value, by the rules ``__str__`` once spelled out."""
    if value == float("inf"):
        return "+inf"
    if value == float("-inf"):
        return "-inf"
    return str(value)


EXTENDED_VALUES = (-2, 0, 3, float("inf"), float("-inf"))


class TestExtendedInt:
    @pytest.mark.parametrize("a, b", list(itertools.product(EXTENDED_VALUES, repeat=2)))
    def test_every_sum_follows_the_case_rules(self, a, b):
        try:
            expected = reference_sum(a, b)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                ExtendedInt(a) + ExtendedInt(b)
            assert str(info.value) == str(exc)
            return
        total = ExtendedInt(a) + ExtendedInt(b)
        assert total == ExtendedInt(expected)
        assert type(total.value) is type(expected)
        assert str(total) == reference_str(expected)
        assert str(ExtendedInt(a)) == reference_str(a)

    def test_finite_arithmetic(self):
        assert ExtendedInt(2) + ExtendedInt(3) == ExtendedInt(5)

    def test_infinities_absorb_ints_beyond_float_range(self):
        # A regularity past 1e308 is one exponent of that size away.
        huge = ExtendedInt(10**400)
        assert huge + POS_INF == POS_INF and NEG_INF + huge == NEG_INF
        assert str(huge + huge) == str(2 * 10**400)

    def test_infinities_absorb(self):
        assert POS_INF + ExtendedInt(5) == POS_INF
        assert NEG_INF + ExtendedInt(5) == NEG_INF

    def test_conflicting_infinities_rejected(self):
        with pytest.raises(ValueError):
            POS_INF + NEG_INF

    def test_conflicting_infinities_rejected_with_minus_inf_first(self):
        with pytest.raises(ValueError, match=r"^cannot add \+inf and -inf$"):
            NEG_INF + POS_INF

    def test_order_operators(self):
        assert NEG_INF <= ExtendedInt(-2) <= ExtendedInt(-2) <= POS_INF <= POS_INF
        assert not POS_INF <= ExtendedInt(7) and not ExtendedInt(3) <= ExtendedInt(2)

    def test_ordering_for_min_max(self):
        values = [ExtendedInt(1), POS_INF, ExtendedInt(-2), NEG_INF]
        assert min(values) == NEG_INF
        assert max(values) == POS_INF
        assert str(POS_INF) == "+inf" and str(NEG_INF) == "-inf"

    @pytest.mark.parametrize(
        "value, shown", [("3", "'3'"), (None, "None"), (2.5, "2.5"), (float("nan"), "nan")]
    )
    def test_rejects_values_that_are_not_whole(self, value, shown):
        with pytest.raises(ValueError, match=f"^expected a whole number, got {shown}$"):
            ExtendedInt(value)

    def test_whole_values_become_ints_and_infinities_stay(self):
        assert ExtendedInt(2.0).value == 2 and type(ExtendedInt(2.0).value) is int
        assert ExtendedInt(True).value == 1 and type(ExtendedInt(True).value) is int
        assert ExtendedInt(2.0) + ExtendedInt(1) == ExtendedInt(3)
        assert ExtendedInt(float("inf")) == POS_INF
        assert ExtendedInt(float("-inf")) == NEG_INF


def reference_rank(rows, char):
    """Rank of a dense integer matrix by Gaussian elimination on its rows:
    over Q with Fractions when ``char`` is 0, over GF(char) otherwise."""
    if char:
        m = [[v % char for v in row] for row in rows]
    else:
        m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inverse = pow(m[rank][col], -1, char) if char else 1 / m[rank][col]
        for r in range(rank + 1, len(m)):
            factor = m[r][col] * inverse
            m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
            if char:
                m[r] = [a % char for a in m[r]]
        rank += 1
    return rank


def as_columns(rows):
    """The sparse columns {row: entry} of a dense matrix, zeros left out."""
    width = len(rows[0]) if rows else 0
    return [{r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(width)]


class TestRanks:
    def test_rank_of_identity(self):
        for char in (0, 2):
            assert _rank([{0: 1}, {1: 1}], char) == 2

    def test_rank_drops_mod_p(self):
        # [[1, 1], [1, -1]] has determinant -2: invertible over Q, singular
        # over GF(2)
        columns = [{0: 1, 1: 1}, {0: 1, 1: -1}]
        assert _rank(columns, 0) == 2
        assert _rank(columns, 2) == 1

    def test_empty_matrix(self):
        assert _rank([], 0) == 0

    def test_pivot_other_than_one_over_the_rationals(self):
        # The only path that needs fractions, imported when first reached.
        assert _rank([{0: 2}], 0) == 1
        assert _rank([{0: 2, 1: 3}, {0: 4, 1: 6}, {1: 5}], 0) == 2

    @pytest.mark.parametrize("char", [0, 2, 3, (1 << 61) - 1])
    def test_matches_dense_reference(self, char):
        rng = random.Random(char)
        for _ in range(300):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
            zero, repeat = rng.randrange(ncols), rng.randrange(ncols)
            zero_column = rng.random() < 0.5
            for row in rows:
                if zero_column:
                    row[zero] = 0
                row.append(row[repeat])
            columns = as_columns(rows)
            assert _rank(columns, char) == reference_rank(rows, char), rows
            assert columns == as_columns(rows)  # the input is left as it was


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def chernick_carmichael_numbers(count):
    """(6k+1)(12k+1)(18k+1) with all three factors prime: Carmichael numbers."""
    out, k = [], 1
    while len(out) < count:
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(trial_division_is_prime(f) for f in factors):
            out.append(factors[0] * factors[1] * factors[2])
        k += 1
    return out


class TestPrimality:
    def test_agrees_with_trial_division(self):
        for n in range(-5, 200_000):
            assert _is_prime_number(n) == trial_division_is_prime(n), n

    def test_carmichael_numbers_are_composite(self):
        numbers = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]
        numbers += chernick_carmichael_numbers(12)
        # Some of them have no factor among the Miller-Rabin bases.
        assert any(all(n % b for b in range(2, 38)) for n in numbers)
        for n in numbers:
            assert not _is_prime_number(n), n

    @pytest.mark.parametrize(
        "factors", [(151, 751, 28351), (149491, 747451, 34233211)]
    )
    def test_strong_pseudoprimes_to_small_bases_are_composite(self, factors):
        # Strong pseudoprimes to the bases 2..7 and 2..23 respectively.
        n = reduce(lambda a, b: a * b, factors)
        assert n in (3215031751, 3825123056546413051)
        assert not _is_prime_number(n)

    @pytest.mark.parametrize(
        "n", [2**31 - 1, 2**61 - 1, 1000000000000037, 2**64 - 59]
    )
    def test_large_primes_are_prime_and_fast(self, n):
        started = time.monotonic()
        assert _is_prime_number(n)
        assert time.monotonic() - started < 0.1


class TestReducedHomology:
    def test_point_has_no_homology(self):
        faces = {frozenset(), frozenset({0})}
        assert reduced_homology_dimensions(faces) == {}

    def test_empty_complex_has_minus_one_homology(self):
        assert reduced_homology_dimensions({frozenset()}) == {-1: 1}

    def test_void_complex(self):
        assert reduced_homology_dimensions(set()) == {}

    def test_circle(self):
        # hollow triangle
        faces = {frozenset()}
        for v in range(3):
            faces.add(frozenset({v}))
        for e in ((0, 1), (0, 2), (1, 2)):
            faces.add(frozenset(e))
        assert reduced_homology_dimensions(faces) == {1: 1}

    def test_two_points(self):
        faces = {frozenset(), frozenset({0}), frozenset({1})}
        assert reduced_homology_dimensions(faces) == {0: 1}

    def test_vertex_labels_need_not_be_consecutive(self):
        faces = {frozenset(), frozenset({3}), frozenset({7}), frozenset({9})}
        faces |= {frozenset({3, 7}), frozenset({3, 9}), frozenset({7, 9})}
        assert reduced_homology_dimensions(faces) == {1: 1}
        assert reduced_homology_dimensions(faces, 3) == {1: 1}

    @pytest.mark.parametrize(
        "faces, missing",
        [
            ({frozenset(), frozenset({0, 1})}, "face {0} of {0, 1} is missing"),
            ({frozenset({0})}, "the empty face {} is missing"),
            (
                {
                    frozenset(),
                    frozenset({0}),
                    frozenset({1}),
                    frozenset({0, 1}),
                    frozenset({0, 1, 2}),
                },
                "face {0, 2} of {0, 1, 2} is missing",
            ),
        ],
    )
    def test_face_sets_not_closed_under_subsets_are_rejected(self, faces, missing):
        with pytest.raises(ValueError, match="not a simplicial complex") as info:
            reduced_homology_dimensions(faces)
        assert missing in str(info.value)


class TestBettiTable:
    def test_single_variable(self):
        table = betti_table(ideal(R3, "x"))
        assert table.total_betti(0) == 1
        assert table.total_betti(1) == 1
        assert table.projective_dimension() == 1
        assert table.depth() == ExtendedInt(2)

    def test_complete_intersection_of_two_variables(self):
        table = betti_table(ideal(R4, "x, z"))
        assert table.projective_dimension() == 2
        assert table.depth() == ExtendedInt(2)
        assert table.regularity() == ExtendedInt(0)

    def test_edge_ideal_of_triangle(self):
        table = betti_table(ideal(R3, "x*y, x*z, y*z"))
        assert table.total_betti(0) == 1
        assert table.total_betti(1) == 3
        assert table.total_betti(2) == 2
        assert table.projective_dimension() == 2

    def test_squarefree_multidegrees_only_divide_lcm(self):
        i = ideal(R3, "x*y, x*z, y*z")
        top = i.lcm_of_generators()
        for _, b, _ in betti_table(i).entries:
            assert b.divides(top)

    def test_unit_ideal_is_zero_module(self):
        table = betti_table(MonomialIdeal.unit(R3))
        assert table.entries == ()
        assert table.depth() == POS_INF
        assert table.regularity() == NEG_INF

    def test_taylor_oracle_of_the_unit_ideal_is_empty(self):
        table = taylor_betti_table(MonomialIdeal.unit(R3))
        assert table == betti_table(MonomialIdeal.unit(R3)) and table.entries == ()

    def test_never_equals_another_class(self):
        table = betti_table(ideal(R3, "x"))
        assert table.__eq__(table.entries) is NotImplemented
        assert table != table.entries and not table == table.entries

    def test_zero_ideal_resolves_the_ring(self):
        table = betti_table(MonomialIdeal.zero(R3))
        assert table.projective_dimension() == 0
        assert table.depth() == ExtendedInt(3)
        assert table.regularity() == ExtendedInt(0)

    def test_depth_reg_of_principal_ideal(self):
        assert depth_quotient(ideal(A, "a")) == ExtendedInt(1)
        assert reg_quotient(ideal(A, "a")) == ExtendedInt(0)

    def test_square_of_two_variable_prime(self):
        i = ideal_power(ideal(ABCD, "a, c"), 2)
        assert depth_quotient(i) == ExtendedInt(2)
        assert reg_quotient(i) == ExtendedInt(1)
        assert betti_table(i) == taylor_betti_table(i)

    def test_lattice_contains_generators(self):
        i = ideal(R3, "x*y, y*z")
        gens = [g.exponents for g in i.generators]
        lattice = tuple_closure(gens)
        assert set(gens) <= lattice
        assert i.lcm_of_generators().exponents in lattice
        # The walk drops the generators, whose K^b is {emptyset}, and keeps
        # x*y*z, where the faces {x} and {z} are disjoint; the generators'
        # rows come from the ideal itself.
        assert lattice_points(i) == [(1, 1, 1)]
        table = betti_table(i)
        assert {b.exponents for j, b, _ in table.entries if j == 1} == set(gens)
        assert table.multiplicity(2, R3.monomial((1, 1, 1))) == 1

    def test_lattice_of_zero_ideal_is_empty(self):
        assert lattice_points(MonomialIdeal.zero(R3)) == []

    def test_cone_multidegree_has_no_betti_number(self):
        # At a^2*b^2 the generator a*b gives the facet {a, b}, which holds
        # the facets {b} of a^2 and {a} of b^2: K^b is a simplex, a cone.
        i = ideal(A, "a^2, a*b, b^2")
        gens = [g.exponents for g in i.generators]
        b = A.monomial((2, 2))
        assert b.exponents in tuple_closure(gens)
        assert generator_facets(gens, b.exponents) == [0b11]
        # A simplex, so the walk never yields it.
        assert b.exponents not in lattice_points(i)
        table = betti_table(i)
        assert all(table.multiplicity(k, b) == 0 for k in range(4))
        assert table == taylor_betti_table(i)

    def test_hollow_triangle_multidegree(self):
        # At x^2*y^2*z^2 the three generators give the three edges of a
        # triangle and nothing more: H~_1 = 1, so beta_{3,b} = 1.
        i = ideal(R3, "x*y*z^2, x*y^2*z, x^2*y*z")
        b = R3.monomial((2, 2, 2))
        facets = walk_facets(i)[b.exponents]
        assert facets == [0b011, 0b101, 0b110]
        assert _collapse_core(tuple(facets)) == (0b011, 0b101, 0b110)
        assert reduce(and_, facets) == 0
        for char in (0, 2, 3):
            table = betti_table(i, char)
            assert table.multiplicity(3, b) == 1
            assert table == taylor_betti_table(i, char)


small_vectors = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
random_ideals = (
    st.lists(small_vectors.map(lambda e: R3.monomial(e)), min_size=1, max_size=5)
    .map(lambda gens: MonomialIdeal(R3, tuple(gens)))
    .filter(lambda i: not i.is_zero and not i.is_unit)
)


def all_subset_lcms(i):
    gens = i.generators
    return {
        reduce(Monomial.lcm, subset)
        for size in range(1, len(gens) + 1)
        for subset in combinations(gens, size)
    }


def bfs_upper_koszul_faces(i, b):
    """Faces t <= supp(b) with x^(b-t) in i, found breadth first with one
    membership probe per candidate face, as frozensets of variables."""
    if not i.contains(b):
        return set()
    faces = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        new = []
        for face in frontier:
            top = max(face) if face else -1
            for v in b.support():
                if v <= top:
                    continue
                candidate = face | {v}
                exps = list(b.exponents)
                for w in candidate:
                    exps[w] -= 1
                if i.contains(Monomial(i.ring, tuple(exps))):
                    faces.add(candidate)
                    new.append(candidate)
        frontier = new
    return faces


def as_mask(face):
    return sum(1 << v for v in face)


def wide_generators(ring, count):
    vector = st.tuples(*[st.integers(0, 3)] * ring.nvars).filter(lambda e: sum(e) >= 4)
    return st.lists(vector.map(ring.monomial), min_size=count, max_size=count)


# Ideals in 4-5 variables with exponents up to 3 and at most 14 generators,
# the Taylor oracle's cap; the generator count is drawn first so that long
# generator lists are as likely as short ones.
wide_ideals = st.tuples(st.sampled_from([R4, R5]), st.integers(1, 14)).flatmap(
    lambda shape: wide_generators(*shape).map(
        lambda gens: MonomialIdeal(shape[0], tuple(gens))
    )
)


def spread(i):
    """i with each exponent e > 0 sent to e * 2^61 + 1.  The map keeps the
    order of each variable's exponents, so the lcm lattice and the Betti
    numbers stay, while K^b is read past 64-bit fields."""
    exps = [tuple([e * 2**61 + 1 if e else 0 for e in g]) for g in i._exps]
    return MonomialIdeal(i.ring, tuple(map(i.ring.monomial, exps)))


class TestOracleAgreement:
    @given(random_ideals)
    @settings(max_examples=30, deadline=None)
    def test_upper_koszul_matches_taylor(self, i):
        table = betti_table(i)
        assert table == taylor_betti_table(i)
        top = i.lcm_of_generators()
        assert all(b.divides(top) for _, b, _ in table.entries)
        assert table.multiplicity(0, R3.one()) == 1
        wide = spread(i)
        for char in (0, 2):
            assert betti_table(wide, char) == taylor_betti_table(wide, char)

    @given(random_ideals)
    @settings(max_examples=30, deadline=None)
    def test_depth_plus_pd_is_nvars(self, i):
        table = betti_table(i)
        assert table.depth() == ExtendedInt(R3.nvars - table.projective_dimension())

    @given(random_ideals)
    @settings(max_examples=15, deadline=None)
    def test_char_two_agrees_with_taylor(self, i):
        assert betti_table(i, 2) == taylor_betti_table(i, 2)

    @given(wide_ideals, st.sampled_from([0, 2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_wide_ideals_agree_with_taylor(self, i, char):
        assert betti_table(i, char) == taylor_betti_table(i, char)
        wide = spread(i)
        assert betti_table(wide, char) == taylor_betti_table(wide, char)

    # Every second degree-5 monomial of R4 in descending lex order, up to the
    # Taylor oracle's cap of 14 generators, and every fourth one.
    DEGREE_FIVE_ANTICHAINS = {
        2: "x^5, x^4*z, x^3*y^2, x^3*y*t, x^3*z*t, x^2*y^3, x^2*y^2*t, "
        "x^2*y*z*t, x^2*z^3, x^2*z*t^2, x*y^4, x*y^3*t, x*y^2*z*t, x*y*z^3",
        4: "x^5, x^3*y^2, x^3*z*t, x^2*y^2*t, x^2*z^3, x*y^4, x*y^2*z*t, "
        "x*y*z*t^2, x*z^2*t^2, y^4*z, y^3*t^2, y^2*t^3, y*z*t^3, z^3*t^2",
    }

    @pytest.mark.parametrize("char", [0, 3])
    @pytest.mark.parametrize("step", sorted(DEGREE_FIVE_ANTICHAINS))
    def test_fourteen_generator_antichain_agrees_with_taylor(self, step, char):
        i = ideal(R4, self.DEGREE_FIVE_ANTICHAINS[step])
        assert len(i.generators) == 14
        started = time.monotonic()
        assert betti_table(i, char) == taylor_betti_table(i, char)
        assert time.monotonic() - started < 5

    def test_taylor_oracle_rejects_fifteen_generators(self):
        i = ideal(R4, ", ".join(f"x^{k}*y^{14 - k}" for k in range(15)))
        assert len(i.generators) == 15
        with pytest.raises(IdealArgumentError, match="14 generators"):
            taylor_betti_table(i)

    @given(wide_ideals)
    @settings(max_examples=40, deadline=None)
    def test_closed_form_faces_match_membership_search(self, i):
        for b, facets in walk_facets(i).items():
            expected = {as_mask(f) for f in bfs_upper_koszul_faces(i, i.ring.monomial(b))}
            assert _upper_koszul_faces(facets) == expected

    @given(wide_ideals.filter(lambda i: len(i.generators) <= 8))
    @settings(max_examples=40, deadline=None)
    def test_lattice_is_every_subset_lcm(self, i):
        gens = [g.exponents for g in i.generators]
        lattice = tuple_closure(gens)
        assert lattice == {m.exponents for m in all_subset_lcms(i)}
        points = lattice_points(i)
        assert len(points) == len(set(points))
        assert set(points) <= lattice


def generator_facets(gens, b):
    """The maximal S_g(b) found one generator and one coordinate at a time."""
    masks = set()
    for g in gens:
        mask = 0
        for i, (e, top) in enumerate(zip(g, b)):
            if e > top:
                break
            if e < top:
                mask |= 1 << i
        else:
            masks.add(mask)
    return sorted(m for m in masks if not any(m != o and m & o == m for o in masks))


def tuple_closure(gens):
    """Subset lcms by one pass per generator, on exponent tuples."""
    points = set()
    for g in gens:
        points |= {tuple(map(max, p, g)) for p in points}
        points.add(g)
    return points


zero_and_unit = st.sampled_from(
    [MonomialIdeal.zero(R) for R in (R4, R5)] + [MonomialIdeal.unit(R) for R in (R4, R5)]
)


def generator_blocks(gens, b):
    """Per distinct S_g(b), the bitmask of the generators g dividing b that
    have it, found one generator at a time."""
    blocks = {}
    for k, g in enumerate(gens):
        if all(e <= top for e, top in zip(g, b)):
            face = sum(1 << i for i, (e, top) in enumerate(zip(g, b)) if e < top)
            blocks[face] = blocks.get(face, 0) | 1 << k
    return blocks


class TestLatticeWalk:
    @given(st.one_of(wide_ideals, zero_and_unit))
    @settings(max_examples=60, deadline=None)
    def test_facets_match_the_per_generator_definition(self, i):
        gens = [g.exponents for g in i.generators]
        for b, faces in lattice_walk(gens):
            assert _maximal(faces) == generator_facets(gens, b)

    @given(st.one_of(wide_ideals, zero_and_unit))
    @settings(max_examples=60, deadline=None)
    def test_faces_are_those_of_the_dividing_generators_each_once(self, i):
        gens = [g.exponents for g in i.generators]
        for b, faces in lattice_walk(gens):
            assert set(faces) == generator_blocks(gens, b).keys()
            assert len(set(faces)) == len(faces)

    @given(st.one_of(wide_ideals, zero_and_unit))
    @settings(max_examples=60, deadline=None)
    def test_points_are_the_tuple_closure_each_once(self, i):
        gens = [g.exponents for g in i.generators]
        points = [b for b, _ in lattice_walk(gens)]
        assert len(points) == len(set(points))
        assert set(points) <= tuple_closure(gens)
        # A point is left out only when K^b has a single facet: a simplex.
        for b in tuple_closure(gens) - set(points):
            assert len(generator_facets(gens, b)) == 1

    @given(st.one_of(wide_ideals, zero_and_unit))
    @settings(max_examples=60, deadline=None)
    def test_points_are_the_closure_points_that_are_not_simplices(self, i):
        gens = [g.exponents for g in i.generators]
        walked = list(lattice_walk(gens))
        expected = {}
        for b in tuple_closure(gens):
            faces = generator_blocks(gens, b).keys()
            if reduce(or_, faces) not in faces:
                expected[b] = set(faces)
        assert len(walked) == len(expected)
        assert {b: set(faces) for b, faces in walked} == expected

    def test_points_stream(self):
        gens = [g.exponents for g in ideal(R3, "x*y, y*z, x*z").generators]
        walk = lattice_walk(gens)
        assert inspect.isgenerator(walk)
        first, _ = next(walk)
        assert first in tuple_closure(gens)

    def test_zero_and_unit_ideals(self):
        assert list(lattice_walk([])) == []
        assert tuple_closure([]) == set()
        # The unit ideal's one lattice point has the face {emptyset} only.
        assert tuple_closure([(0, 0, 0)]) == {(0, 0, 0)}
        assert generator_blocks([(0, 0, 0)], (0, 0, 0)) == {0: 1}
        assert list(lattice_walk([(0, 0, 0)])) == []
        for ring in (R4, R5):
            assert walk_facets(MonomialIdeal.zero(ring)) == {}
            assert walk_facets(MonomialIdeal.unit(ring)) == {}
            unit = [g.exponents for g in MonomialIdeal.unit(ring).generators]
            assert tuple_closure(unit) == {(0,) * ring.nvars}


def all_subfaces(facets):
    return {
        frozenset(v for v in range(8) if face >> v & 1)
        for face in _upper_koszul_faces(facets)
    }


# Nonempty sets of vertex bitmasks over 8 vertices, the empty face included.
facet_sets = st.sets(st.integers(0, 255), min_size=1, max_size=10).map(
    lambda faces: _maximal(faces)
)


class TestCollapseCore:
    @given(facet_sets, st.sampled_from([0, 2, 3]))
    @settings(max_examples=200, deadline=None)
    def test_core_keeps_the_homology(self, facets, char):
        expected = reduced_homology_dimensions(all_subfaces(facets), char)
        assert dict(_core_homology(_collapse_core(tuple(facets)), char)) == expected

    @given(facet_sets)
    @settings(max_examples=100, deadline=None)
    def test_core_has_no_dominated_vertex(self, facets):
        core = _collapse_core(tuple(facets))
        assert list(core) == _maximal(set(core))
        assert all_subfaces(core) <= all_subfaces(facets)
        if len(core) > 1:
            for v in range(8):
                holding = [f for f in core if f >> v & 1]
                if holding:
                    assert reduce(and_, holding) == 1 << v

    @given(facet_sets, st.integers(0, 7), st.sampled_from([0, 2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_cones_and_simplices_collapse_to_one_facet(self, facets, apex, char):
        # Every facet holds the apex, so a vertex other than the apex is
        # dominated until one facet is left.
        cone = tuple(_maximal({f | 1 << apex for f in facets}))
        assert len(_collapse_core(cone)) == 1
        assert _core_homology(_collapse_core(cone), char) == ()
        simplex = reduce(or_, facets) | 1 << apex
        assert _collapse_core((simplex,)) == (simplex,)
        assert _core_homology((simplex,), char) == ()

    def test_cone_collapses_to_one_facet(self):
        # Three triangles around the apex 0.
        assert len(_collapse_core((0b0111, 0b1011, 0b1101))) == 1

    def test_empty_complex_of_a_generator_is_kept(self):
        assert _collapse_core((0,)) == (0,)
        assert _core_homology(_collapse_core((0,)), 0) == ((-1, 1),)

    def test_hanging_edge_collapses_onto_the_circle(self):
        # A hollow triangle on 0, 1, 2 with an edge from 2 to 3.
        facets = [0b0011, 0b0101, 0b0110, 0b1100]
        assert _collapse_core(tuple(facets)) == (0b011, 0b101, 0b110)
        assert _core_homology(_collapse_core(tuple(facets)), 0) == ((1, 1),)


def total_betti_polynomial(table):
    top = table.projective_dimension() or 0
    return [table.total_betti(k) for k in range(top + 1)]


def polynomial_product(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for a, x in enumerate(p):
        for b, y in enumerate(q):
            out[a + b] += x * y
    return out


def three_variable_ideals(ring):
    vector = st.tuples(*[st.integers(0, 3)] * 3).filter(any)
    return st.lists(vector.map(ring.monomial), min_size=1, max_size=9).map(
        lambda gens: MonomialIdeal(ring, tuple(gens))
    )


class TestPathologicalIdeal:
    @pytest.mark.parametrize(
        "s, digest, totals, depth, reg",
        [
            (
                1,
                "ef00577394db1df3c097eb9ce426a85d54863eaf7b427d892c5c38054df7d0bc",
                [1, 6, 14, 16, 9, 2],
                7,
                8,
            ),
            (
                2,
                "15c2f806a0662c327d0655bdaa00d608e4d4a9d1f5dd42f31be0f16d948a79e7",
                [1, 21, 64, 81, 48, 11],
                7,
                12,
            ),
        ],
        ids=["I", "I^2"],
    )
    def test_pinned_tables(self, s, digest, totals, depth, reg):
        i = ideal_power(ideal(R12, PATHOLOGICAL), s)
        started = time.monotonic()
        table = betti_table(i)
        assert time.monotonic() - started < 5
        assert hashlib.sha256(str(table).encode()).hexdigest() == digest
        assert total_betti_polynomial(table) == totals
        assert table.depth() == ExtendedInt(depth)
        assert table.regularity() == ExtendedInt(reg)

    def test_totals_are_the_product_over_the_summands(self):
        # (1 + 3t + 2t^2)(1 + t)^3: the resolution of a sum in disjoint
        # variables is the tensor product of the summands' resolutions.
        summands = ["a^2*b, a*b*c, c^2*d", "e*f", "g*h", "i*j*k*l"]
        product = [1]
        for text in summands:
            product = polynomial_product(
                product, total_betti_polynomial(betti_table(ideal(R12, text)))
            )
        assert product == [1, 6, 14, 16, 9, 2]
        assert total_betti_polynomial(betti_table(ideal(R12, PATHOLOGICAL))) == product

    @given(
        three_variable_ideals(R3),
        three_variable_ideals(Ring.of("u", "v", "w")),
        st.sampled_from([0, 2, 3]),
    )
    @settings(max_examples=25, deadline=None)
    def test_disjoint_sums_multiply_total_betti_polynomials(self, i, j, char):
        # Up to 18 generators, past the Taylor oracle's cap.
        total = joined_sum(i, j)[3]
        expected = polynomial_product(
            total_betti_polynomial(betti_table(i, char)),
            total_betti_polynomial(betti_table(j, char)),
        )
        assert total_betti_polynomial(betti_table(total, char)) == expected


HOLLOW_TRIANGLE = "x*y*z^2, x*y^2*z, x^2*y*z"
# At x*y^2*z the cone ranks are {1: 1, 2: 1}, in consecutive degrees, so
# the table reads K^b there: a cone, with beta = 0.
CONE_AT_XY2Z = "x*z, y^2, y*z"
# The Stanley-Reisner ideal of the 6-vertex real projective plane; at
# a*b*c*d*e*f the cone ranks are {2: 1, 3: 1}.
ABCDEF = Ring.of(*"abcdef")
PROJECTIVE_PLANE = (
    "a*b*d, a*b*e, a*c*d, a*c*f, a*e*f, b*c*e, b*c*f, b*d*f, c*d*e, d*e*f"
)


class TestHomologyMemo:
    def test_memo_is_bounded(self):
        assert _core_homology.cache_info().maxsize == _MEMO_SIZE

    def test_collapse_memo_is_bounded(self):
        assert _collapse_core.cache_info().maxsize == _MEMO_SIZE

    @given(wide_ideals, st.sampled_from([0, 2, 3]))
    @settings(max_examples=30, deadline=None)
    def test_cold_and_warm_tables_agree(self, i, char):
        _core_homology.cache_clear()
        _collapse_core.cache_clear()
        cold = betti_table(i, char)
        misses = _core_homology.cache_info().misses
        collapse_misses = _collapse_core.cache_info().misses
        warm = betti_table(i, char)
        assert cold == warm
        assert _core_homology.cache_info().misses == misses
        assert _collapse_core.cache_info().misses == collapse_misses

    def test_a_float_characteristic_fails_alike_cold_and_warm(self):
        # The memos are typed: char 2.0 never reads the entries char 2 left.
        i = ideal(ABCDEF, PROJECTIVE_PLANE)
        with pytest.raises(ValueError) as cold:
            betti_table(i, 2.0)
        betti_table(i, 2)
        with pytest.raises(ValueError) as warm:
            betti_table(i, 2.0)
        assert (warm.type, str(warm.value)) == (cold.type, str(cold.value))

    @pytest.mark.parametrize("char", [2.0, 0.0, 3.0, "2", Fraction(2), False])
    @pytest.mark.parametrize("text", [PROJECTIVE_PLANE, "a*b"])
    def test_a_characteristic_that_is_no_int_is_refused_cold_and_warm(self, text, char):
        # RP^2 reaches the mod-p rank and (a*b) never does; both are refused
        # before any memo is read, and the message names the value.
        i = ideal(ABCDEF, text)
        triangle = {frozenset(f) for f in ((), (0,), (1,), (2,), (0, 1), (1, 2), (0, 2))}
        calls = [
            lambda c: betti_table(i, c),
            lambda c: taylor_betti_table(i, c),
            lambda c: reduced_homology_dimensions(triangle, c),
        ]
        message = f"characteristic must be an int, got {char!r}"
        for call in calls:
            _core_homology.cache_clear()
            _collapse_core.cache_clear()
            with pytest.raises(ValueError) as cold:
                call(char)
            call(int(char))
            with pytest.raises(ValueError) as warm:
                call(char)
            assert str(cold.value) == str(warm.value) == message

    def test_collapse_memo_ignores_the_characteristic(self):
        # RP^2's top multidegree is the one that needs K^b, and its table
        # differs between the two characteristics.
        i = ideal(ABCDEF, PROJECTIVE_PLANE)
        _collapse_core.cache_clear()
        zero = betti_table(i, 0)
        before = _collapse_core.cache_info()
        assert before.misses > 0
        two = betti_table(i, 2)
        after = _collapse_core.cache_info()
        assert after.misses == before.misses and after.hits > before.hits
        assert zero == taylor_betti_table(i, 0) and two == taylor_betti_table(i, 2)
        assert zero != two

    def test_memo_is_ring_free(self):
        betti_table(ideal(ABCDEF, PROJECTIVE_PLANE), 2)
        before = _core_homology.cache_info()
        other = Ring.of(*"uvwxyz")
        renamed = PROJECTIVE_PLANE.translate(str.maketrans("abcdef", "uvwxyz"))
        table = betti_table(ideal(other, renamed), 2)
        after = _core_homology.cache_info()
        assert after.misses == before.misses and after.hits > before.hits
        assert table.multiplicity(4, other.monomial((1,) * 6)) == 1

    def test_threads_share_the_memo(self):
        # More distinct cores than the memo holds, so threads also evict.
        # Squarefree ideals in 8 variables give far more distinct
        # multidegrees that need K^b than the small exponent boxes of
        # wide_ideals; they are drawn until both memos have missed more
        # often than they hold.
        ring = Ring(tuple(f"x{k}" for k in range(8)))
        rnd = random.Random(0)
        _core_homology.cache_clear()
        _collapse_core.cache_clear()
        serial = {}
        while min(
            _core_homology.cache_info().misses, _collapse_core.cache_info().misses
        ) <= _MEMO_SIZE:
            gens = [
                ring.monomial([rnd.randint(0, 1) for _ in range(8)])
                for _ in range(rnd.randint(12, 18))
            ]
            i = MonomialIdeal(ring, tuple(gens))
            if not i.is_unit:
                for char in (0, 2, 3):
                    serial[(i, char)] = betti_table(i, char)
        ideals = list(serial)
        _core_homology.cache_clear()
        _collapse_core.cache_clear()
        results = [{} for _ in range(4)]

        def work(k):
            order = list(ideals)
            random.Random(k).shuffle(order)
            for key in order:
                results[k][key] = betti_table(*key)

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

    @given(wide_ideals, st.sampled_from([0, 2, 3]))
    @settings(max_examples=20, deadline=None)
    def test_oracles_leave_the_memo_alone(self, i, char):
        before = _core_homology.cache_info()
        collapse_before = _collapse_core.cache_info()
        with mock.patch.object(
            homology, "_collapse_core", wraps=homology._collapse_core
        ) as core:
            taylor_betti_table(i, char)
            circle = {frozenset(f) for f in ([], [0], [1], [2], [0, 1], [1, 2], [0, 2])}
            assert reduced_homology_dimensions(circle, char) == {1: 1}
            assert _core_homology.cache_info() == before
            assert _collapse_core.cache_info() == collapse_before
            assert core.call_count == 0
            # The counters do see the Betti route reach the core.
            _collapse_core.cache_clear()
            betti_table(ideal(R3, CONE_AT_XY2Z), char)
            assert core.call_count > 0
            assert _collapse_core.cache_info().misses > 0


class TestSingleFacetShortCut:
    @pytest.mark.parametrize("char", [0, 2, 3])
    def test_minimal_generators_keep_betti_one(self, char):
        i = ideal(R3, HOLLOW_TRIANGLE + ", z^3")
        table = betti_table(i, char)
        assert table.total_betti(1) == len(i.generators) == 4
        assert all(table.multiplicity(1, g) == 1 for g in i.generators)
        assert table == taylor_betti_table(i, char)

    def test_principal_ideal_needs_no_maximal_faces(self):
        with mock.patch.object(homology, "_maximal", wraps=homology._maximal) as scan:
            table = betti_table(ideal(R3, "x^2*y"))
        assert scan.call_count == 0
        assert str(table) == "{(0, 1): 1, (1, x^2*y): 1}"

    @given(wide_ideals, st.sampled_from([0, 2, 3]))
    @settings(max_examples=30, deadline=None)
    def test_points_with_one_nonempty_facet_have_no_entry(self, i, char):
        gens = [g.exponents for g in i.generators]
        simplices = set()
        for b in tuple_closure(gens):
            facets = generator_facets(gens, b)
            if len(facets) == 1 and facets[0]:
                simplices.add(b)
        assert not simplices & set(lattice_points(i))
        table = betti_table(i, char)
        assert not any(b.exponents in simplices for _, b, _ in table.entries)
        assert table == taylor_betti_table(i, char)
        assert {b.exponents for j, b, _ in table.entries if j == 1} == set(gens)


# Two nonempty vertex sets over 8 vertices that share no vertex.
disjoint_pairs = (
    st.tuples(st.integers(1, 255), st.integers(1, 255))
    .map(lambda pair: (pair[0], pair[1] & ~pair[0]))
    .filter(lambda pair: pair[1])
)


class TestTwoFacetShortCut:
    @given(disjoint_pairs)
    @settings(max_examples=100, deadline=None)
    def test_two_disjoint_simplices_have_one_reduced_zero_cycle(self, pair):
        facets = tuple(sorted(pair))
        # Each simplex collapses onto one of its vertices.
        core = _collapse_core(facets)
        assert len(core) == 2 and all(v.bit_count() == 1 for v in core)
        assert all(v & f for v, f in zip(core, facets))
        for char in (0, 2, 3):
            assert _core_homology(core, char) == ((0, 1),)
            assert reduced_homology_dimensions(all_subfaces(facets), char) == {0: 1}

    @pytest.mark.parametrize("char", [0, 2, 3])
    def test_disjoint_pair_needs_no_core_or_rank(self, char):
        # At x*y*z*t the faces are {z, t} of x*y and {x, y} of z*t.
        i = ideal(R4, "x*y, z*t")
        with mock.patch.object(homology, "_collapse_core", side_effect=AssertionError), \
                mock.patch.object(homology, "_core_homology", side_effect=AssertionError):
            table = betti_table(i, char)
        assert str(table) == "{(0, 1): 1, (1, x*y): 1, (1, z*t): 1, (2, x*y*z*t): 1}"
        assert table == taylor_betti_table(i, char)


class TestTaylorIndependence:
    @given(wide_ideals, st.sampled_from([0, 2, 3]))
    @settings(max_examples=20, deadline=None)
    def test_oracle_runs_with_the_fast_route_broken(self, i, char):
        expected = betti_table(i, char)
        names = ["_cone_ranks", "_maximal", "_collapse_core", "_core_homology", "_unchecked"]
        patches = [
            mock.patch.object(homology, name, side_effect=AssertionError(name))
            for name in names
        ]
        for patch in patches:
            patch.start()
        try:
            with pytest.raises(AssertionError, match="_cone_ranks"):
                betti_table(i, char)
            assert taylor_betti_table(i, char) == expected
        finally:
            for patch in patches:
                patch.stop()


def rank_table(i, spare=0):
    """The packed tree's ranks of ``i``, keyed on exponent tuples; the same
    lists, in the same order, as the tuple tree's."""
    ranks = packed_cone_ranks(i._exps, i.ring.nvars, spare)
    expected = tuple_cone_ranks(i._exps)
    assert ranks == expected and list(ranks) == list(expected)
    return ranks


def adjacent(at):
    return any(d + 1 in at for d in at)


class TestConeRanks:
    @given(st.one_of(wide_ideals, zero_and_unit))
    @settings(max_examples=40, deadline=None)
    def test_generators_sit_only_in_degree_zero(self, i):
        ranks = rank_table(i)
        assert {b for b, at in ranks.items() if 0 in at} == set(i._exps)
        assert all(Counter(ranks[g]) == {0: 1} for g in i._exps)

    def test_no_generators_give_no_ranks(self):
        assert _cone_ranks((), 1, 0) == {}
        assert _cone_ranks([], 1, 0) == {}
        assert tuple_cone_ranks(()) == {}
        for ring in (R3, R4):
            table = betti_table(MonomialIdeal.zero(ring))
            assert table._rows == ((0, (0,) * ring.nvars, 1),)
            assert str(table) == "{(0, 1): 1}"

    @given(wide_ideals, st.sampled_from([0, 2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_ranks_bound_the_betti_numbers(self, i, char):
        ranks = rank_table(i)
        for k, b, beta in taylor_betti_table(i, char)._rows:
            if k:
                assert Counter(ranks[b])[k - 1] >= beta

    @given(wide_ideals, st.sampled_from([0, 2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_ranks_in_non_adjacent_degrees_are_the_betti_numbers(self, i, char):
        taylor = taylor_betti_table(i, char)
        rows = {(k, b): beta for k, b, beta in taylor._rows}
        for b, at in rank_table(i).items():
            if not adjacent(at):
                assert {k: v for (k, e), v in rows.items() if e == b} == {
                    d + 1: r for d, r in Counter(at).items()
                }

    @pytest.mark.parametrize("char", [0, 2, 3])
    def test_fixtures_need_the_upper_koszul_complex(self, char):
        cone = ideal(R3, CONE_AT_XY2Z)
        assert Counter(rank_table(cone)[(1, 2, 1)]) == {1: 1, 2: 1}
        table = betti_table(cone, char)
        assert all(table.multiplicity(k, R3.monomial((1, 2, 1))) == 0 for k in range(5))
        assert table == taylor_betti_table(cone, char)
        plane = ideal(ABCDEF, PROJECTIVE_PLANE)
        assert Counter(rank_table(plane)[(1,) * 6]) == {2: 1, 3: 1}
        assert betti_table(plane, char) == taylor_betti_table(plane, char)
        # K^b is read exactly at the multidegrees whose ranks are adjacent.
        for i in (cone, plane):
            with mock.patch.object(
                homology, "_collapse_core", wraps=homology._collapse_core
            ) as core:
                betti_table(i, char)
            assert core.call_count == sum(map(adjacent, rank_table(i).values())) >= 1

    @given(st.one_of(wide_ideals, zero_and_unit), st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_spare_field_bits_change_no_rank(self, i, spare):
        assert rank_table(i, spare) == rank_table(i)

    @pytest.mark.parametrize("char", [0, 2, 3])
    def test_collapse_keys_are_the_tuple_routes_variable_masks(self, char):
        cone, plane = ideal(R3, CONE_AT_XY2Z), ideal(ABCDEF, PROJECTIVE_PLANE)
        for i in (cone, plane, spread(cone), spread(plane)):
            with mock.patch.object(
                homology, "_collapse_core", wraps=homology._collapse_core
            ) as core:
                betti_table(i, char)
            keys = [call.args[0] for call in core.call_args_list]
            assert keys == tuple_collapse_keys(i._exps) != []
            # Bit k is variable k, whatever the field width.
            assert all(0 < facet < 1 << i.ring.nvars for key in keys for facet in key)

    def test_projective_plane_depends_on_the_characteristic(self):
        plane = ideal(ABCDEF, PROJECTIVE_PLANE)
        top = ABCDEF.monomial((1,) * 6)
        zero, two, three = (betti_table(plane, char) for char in (0, 2, 3))
        assert zero != two and zero == three
        assert [zero.multiplicity(k, top) for k in (3, 4)] == [0, 0]
        assert [two.multiplicity(k, top) for k in (3, 4)] == [1, 1]
        assert str(two).endswith("(3, a*b*c*d*e*f): 1, (4, a*b*c*d*e*f): 1}")
        assert zero._rows == two._rows[:-2]


CHAIN = "a^2*b, a*b*c, c^2*d, d*e*f, f*g*h, h*i*j*k*l"


def power_generators(shape):
    ring, s, count = shape
    vector = st.tuples(*[st.integers(0, 3)] * ring.nvars).filter(any)
    return st.lists(vector.map(ring.monomial), min_size=count, max_size=count).map(
        lambda gens: ideal_power(MonomialIdeal(ring, tuple(gens)), s)
    )


# I^2 and I^3 of ideals in 4-6 variables, with 15 to 60 generators: past
# the Taylor oracle's cap of 14.
large_powers = (
    st.one_of(
        st.tuples(st.sampled_from([R4, R5, ABCDEF]), st.just(2), st.integers(6, 10)),
        st.tuples(st.sampled_from([R4, R5, ABCDEF]), st.just(3), st.integers(4, 6)),
    )
    .flatmap(power_generators)
    .filter(lambda i: 15 <= len(i._exps) <= 60)
)


class TestLatticeReference:
    """The tree's tables against the lcm-lattice walk, past the Taylor cap."""

    @given(wide_ideals, st.sampled_from([0, 2, 3]))
    @settings(max_examples=30, deadline=None)
    def test_reference_agrees_with_taylor(self, i, char):
        assert lattice_betti_table(i, char) == taylor_betti_table(i, char)

    @given(large_powers, st.sampled_from([0, 2, 3]))
    @settings(max_examples=25, deadline=None)
    def test_powers_past_the_taylor_cap(self, i, char):
        assert betti_table(i, char) == lattice_betti_table(i, char)

    @pytest.mark.parametrize("char", [0, 2, 3])
    @pytest.mark.parametrize("text", [PATHOLOGICAL, CHAIN], ids=["I^3", "J^3"])
    def test_cubes_of_the_twelve_variable_ideals(self, text, char):
        cube = ideal_power(ideal(R12, text), 3)
        assert len(cube._exps) > 14
        assert betti_table(cube, char) == lattice_betti_table(cube, char)


R20 = Ring(tuple("abcdefghijklmnopqrst"))


class TestFieldWidths:
    """Betti tables at the field-width boundaries, against the Taylor
    oracle up to its cap of 14 generators and the lattice walk past it.
    The packed tree's fields hold degrees, so 13 variables at 2^62 + 1 take
    67 bits each."""

    # Ideals of 1-5 generators, each in 1-3 variables.
    @given(
        st.one_of(*(boundary_ideals(ring, 3, 5) for ring in (X1, R13, R20))),
        st.integers(1, 3),
        st.sampled_from([0, 2, 3]),
    )
    @example(sparse_ideal(X1, [{0: 2**62 + 1}]), 3, 0)
    @example(
        sparse_ideal(R13, [{0: 2**62 + 1, 12: 1}, {12: 2**30}, {5: 7, 6: 2**62 - 1}]), 2, 2
    )
    @settings(max_examples=60, deadline=None)
    def test_boundary_exponents_match_the_oracles(self, i, s, char):
        power = ideal_power(i, s)
        oracle = taylor_betti_table if len(power._exps) <= 14 else lattice_betti_table
        assert betti_table(power, char) == oracle(power, char)

    @pytest.mark.parametrize("char", [0, 2, 3])
    def test_a_cube_past_the_taylor_cap(self, char):
        i = sparse_ideal(
            R13, [{0: 2**62, 1: 3}, {1: 2**30 + 1}, {2: 9, 12: 2**62 - 1}, {0: 1, 12: 4}, {7: 2}]
        )
        cube = ideal_power(i, 3)
        assert len(cube._exps) > 14
        assert betti_table(cube, char) == lattice_betti_table(cube, char)


class TestBettiRows:
    """Tables hold exponent-tuple rows; ``entries`` is built on first read."""

    @staticmethod
    def count_monomials(monkeypatch):
        built = []
        real = homology._monomial

        def counted(ring, exps):
            built.append(exps)
            return real(ring, exps)

        monkeypatch.setattr(homology, "_monomial", counted)
        monkeypatch.setattr(Monomial, "__post_init__", lambda m: built.append(m))
        return built

    @staticmethod
    def printed_entries(table):
        """The table as printed from its ``entries`` by ``Monomial.__str__``."""
        return "{" + ", ".join(f"({i}, {b}): {v}" for i, b, v in table.entries) + "}"

    def tables(self):
        return [
            betti_table(ideal(R3, HOLLOW_TRIANGLE + ", z^3"), 2),
            betti_table(MonomialIdeal.zero(R3)),
            betti_table(MonomialIdeal.unit(R3)),
        ]

    def test_printing_and_invariants_build_no_monomial(self, monkeypatch):
        tables = self.tables()
        built = self.count_monomials(monkeypatch)
        texts = [str(t) for t in tables]
        invariants = [
            (t.depth(), t.regularity(), t.projective_dimension(), t.total_betti(1))
            for t in tables
        ]
        hash(tables[0]), tables[0] == tables[1]
        assert built == []
        assert all("entries" not in vars(t) for t in tables)
        assert texts[1:] == ["{(0, 1): 1}", "{}"]
        assert invariants[1:] == [
            (ExtendedInt(3), ExtendedInt(0), 0, 0), (POS_INF, NEG_INF, None, 0)
        ]
        assert texts[0] == self.printed_entries(tables[0])

    @given(wide_ideals, st.sampled_from([0, 2, 3]))
    @settings(max_examples=20, deadline=None)
    def test_the_table_prints_as_its_entries(self, i, char):
        # spread(i) has exponents past 2^61, the printer's widest pieces.
        for table in (betti_table(i, char), betti_table(spread(i), char)):
            assert str(table) == self.printed_entries(table)

    @given(wide_ideals, st.sampled_from([0, 2, 3]))
    @settings(max_examples=20, deadline=None)
    def test_entries_equal_the_eager_tuple(self, i, char):
        table = betti_table(i, char)
        # The oracle's public constructor is given Monomial entries eagerly.
        eager = taylor_betti_table(i, char).entries
        assert table.entries == eager
        assert table.entries is table.entries
        assert BettiTable(i.ring, i, eager) == table
        assert hash(BettiTable(i.ring, i, eager)) == hash(table)

    def test_the_first_read_builds_the_entries_once(self, monkeypatch):
        table = self.tables()[0]
        built = self.count_monomials(monkeypatch)
        entries = table.entries
        assert built == [b.exponents for _, b, _ in entries]
        assert table.entries is entries
        assert len(built) == len(entries) == len(table._rows)

    @pytest.mark.parametrize(
        "round_trip",
        [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trips_keep_the_rows(self, round_trip):
        for table in self.tables():
            restored = round_trip(table)
            assert "entries" not in vars(restored)
            assert restored == table and hash(restored) == hash(table)
            assert str(restored) == str(table)
            table.entries
            read = round_trip(table)
            assert read.entries == table.entries and read == table

    def test_constructor_keeps_its_errors(self):
        table = self.tables()[0]
        with pytest.raises(TypeError, match=r"^BettiTable takes the fields \(ring, against, entries\)"):
            BettiTable(table.ring, table.against)
        with pytest.raises(TypeError, match="^BettiTable takes the fields"):
            BettiTable(table.ring, table.against, table.entries, rows=())
        rebuilt = BettiTable(table.ring, against=table.against, entries=table.entries)
        assert rebuilt == table and str(rebuilt) == str(table)


class TestDerivStar:
    def test_example_ideal(self):
        assert deriv_star(ideal(A, "a^2, a*b")) == ideal(A, "a, b")

    def test_single_variable(self):
        assert deriv_star(ideal(R3, "x")).is_unit

    def test_zero_and_unit(self):
        assert deriv_star(MonomialIdeal.zero(R3)).is_zero
        assert deriv_star(MonomialIdeal.unit(R3)).is_unit

    def test_generator_level_equals_full_definition(self):
        from monomial_boxes import monomials_of_degree_at_most

        i = ideal(R3, "x^2*y, y*z^2")
        result = deriv_star(i)
        for m in monomials_of_degree_at_most(R3, 4):
            if not i.contains(m):
                continue
            for v in m.support():
                assert result.contains(m.divide_exact(R3.variable(v)))

    @given(random_ideals, st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_saturated_power_inclusion(self, i, s):
        k = ideal(R3, "x, y")
        high = deriv_star(saturated_power(i, k, s))
        low = saturated_power(i, k, s - 1)
        assert low.contains_ideal(high)


class TestDepthRegFormulas:
    @pytest.mark.parametrize("depth_rhs", [ExtendedInt(2), ExtendedInt(3)])
    @pytest.mark.parametrize("reg_rhs", [NEG_INF, ExtendedInt(1)])
    def test_passed_needs_both_sides_equal(self, depth_rhs, reg_rhs):
        report = DepthRegReport(ExtendedInt(2), depth_rhs, NEG_INF, reg_rhs)
        assert report.passed == (depth_rhs == ExtendedInt(2) and reg_rhs == NEG_INF)

    def test_worked_example(self):
        report = check_depth_reg_binomial(
            ideal(A, "a^2, a*b"),
            ideal(A, "a, b"),
            ideal(Ring.of("c", "d"), "c^2, c*d"),
            ideal(Ring.of("c", "d"), "c, d"),
            2,
        )
        assert report.depth_lhs == ExtendedInt(2)
        assert report.reg_lhs == ExtendedInt(1)
        assert report.passed

    def test_two_plain_variables(self):
        report = check_depth_reg_binomial(
            ideal(Ring.of("x"), "x"),
            MonomialIdeal.unit(Ring.of("x")),
            ideal(Ring.of("z"), "z"),
            MonomialIdeal.unit(Ring.of("z")),
            1,
        )
        assert report.depth_lhs == ExtendedInt(0)
        assert report.passed

    def test_two_variables_inside_larger_rings(self):
        report = check_depth_reg_binomial(
            ideal(Ring.of("x", "y"), "x"),
            MonomialIdeal.unit(Ring.of("x", "y")),
            ideal(Ring.of("z", "t"), "z"),
            MonomialIdeal.unit(Ring.of("z", "t")),
            1,
        )
        assert report.depth_lhs == ExtendedInt(2)
        assert report.passed

    def test_symbolic_ass_variant(self):
        report = check_depth_reg_symbolic_ass(
            ideal(A, "a^2, a*b"), ideal(Ring.of("c", "d"), "c^2, c*d"), 2
        )
        assert report.passed

    def test_formulas_hold_in_each_characteristic_separately(self):
        # Stanley-Reisner ideal of the 6-vertex projective plane: depth and
        # regularity depend on the characteristic, the formulas still hold.
        ring = Ring.of("v1", "v2", "v3", "v4", "v5", "v6")
        triangles = [
            (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
            (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
        ]
        gens = []
        for t in triangles:
            exps = [0] * 6
            for v in t:
                exps[v - 1] = 1
            gens.append(ring.monomial(tuple(exps)))
        plane = MonomialIdeal(ring, tuple(gens))
        assert depth_quotient(plane, 0) == ExtendedInt(3)
        assert reg_quotient(plane, 0) == ExtendedInt(2)
        assert depth_quotient(plane, 2) == ExtendedInt(2)
        assert reg_quotient(plane, 2) == ExtendedInt(3)
        other = ideal(Ring.of("w"), "w^2")
        for char in (0, 2):
            report = check_depth_reg_binomial(
                plane,
                MonomialIdeal.unit(ring),
                other,
                MonomialIdeal.unit(Ring.of("w")),
                1,
                char,
            )
            assert report.passed
