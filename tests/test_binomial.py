import itertools

import pytest
from hypothesis import given, settings, strategies as st

from idealkit import binomial, core
from idealkit.core import (
    IdealArgumentError,
    MonomialIdeal,
    MonomialPrime,
    Ring,
    ideal_power,
)
from idealkit.binomial import (
    AssStructureReport,
    FiltrationReport,
    RingEmbedding,
    TermInclusionReport,
    binomial_saturated,
    binomial_symbolic,
    check_ass_structure,
    check_equality_criteria,
    check_filtration_identities,
    check_symbolic_equality_implication,
    check_term_inclusions,
    direct_saturated_sum,
    extend,
    join_rings,
    joined_sum,
    prime_sum,
    symbolic_of_sum,
)
from idealkit.decomposition import _mask, _primes, _summands, _supports, associated_primes
from idealkit.powers import NOTIONS, _binomial_sum, _symbolic_direct, saturated_power
from small_ideals import A, R3, R4, XY, ideal

B2 = Ring.of("z", "t")
CD = Ring.of("c", "d")


small_exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))


def ideals_over(ring, proper):
    gens = small_exponents.map(lambda e: ring.monomial(e))
    pool = st.lists(gens, min_size=1, max_size=3).map(
        lambda g: MonomialIdeal(ring, tuple(g))
    )
    if proper:
        return pool.filter(lambda i: not i.is_zero and not i.is_unit)
    return pool.filter(lambda i: not i.is_zero)


proper_r3 = (
    st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=3)
    .map(lambda gens: MonomialIdeal(R3, tuple(map(R3.monomial, gens))))
    .filter(lambda i: not i.is_unit)
)


def reference_binomial_symbolic(i, j, s, notion):
    """Sum over t of I^(t) J^(s-t), each side expanded in its own ring: the
    sides' direct-route symbolic powers, extended into the joined ring and
    summed there, with no split route on either side or on the sum."""
    joined, emb_a, emb_b = join_rings(i.ring, j.ring)
    side_a = [extend(_symbolic_direct(i, t, notion), emb_a) for t in range(s + 1)]
    side_b = [extend(_symbolic_direct(j, t, notion), emb_b) for t in range(s + 1)]
    return _binomial_sum(joined, side_a, side_b)


@st.composite
def split_side(draw, prefix):
    """A nonzero proper ideal summed from 1-3 blocks in disjoint variables,
    each block over 1-3 variables with 1-2 generators, exponents at most 2."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    ring = Ring(tuple(f"{prefix}{n}" for n in range(sum(sizes))))
    exps, start = [], 0
    for size in sizes:
        block = st.tuples(*[st.integers(0, 2)] * size).filter(any)
        for g in draw(st.lists(block, min_size=1, max_size=2)):
            exps.append((0,) * start + g + (0,) * (ring.nvars - start - size))
        start += size
    return MonomialIdeal(ring, tuple(map(ring.monomial, exps)))


# At least one side splits into two or more summands.
split_pairs = st.tuples(split_side("x"), split_side("y")).filter(
    lambda pair: max(len(_summands(side)) for side in pair) > 1
)
SPLIT_I = ideal(Ring(tuple("abcd")), "a^2*b, a*b*c, c^2*d")
SPLIT_J = ideal(Ring(tuple("efghijkl")), "e*f, g*h, i*j*k*l")


class TestJoin:
    def test_disjoint_names_concatenate(self):
        joined, emb_a, emb_b = join_rings(XY, B2)
        assert joined == R4
        assert emb_a.index_map == (0, 1)
        assert emb_b.index_map == (2, 3)

    def test_collision_renaming(self):
        joined, _, _ = join_rings(Ring.of("x"), Ring.of("x"))
        assert joined == Ring.of("x", "x_1")

    def test_nested_collision_renaming(self):
        joined, _, _ = join_rings(Ring.of("x", "x_1"), Ring.of("x"))
        assert joined == Ring.of("x", "x_1", "x_2")

    def test_plain_join(self):
        joined, _, _ = join_rings(A, CD)
        assert joined == Ring.of("a", "b", "c", "d")


class TestMaskSums:
    """The prime sum P + Q on support bitmasks, as check_ass_structure forms it."""

    @given(proper_r3, ideals_over(B2, True))
    @settings(max_examples=40, deadline=None)
    def test_shifted_or_is_prime_sum(self, i, j):
        # B2's "z" collides with R3's, so the join renames it and still
        # places J's variables after I's.
        _, emb_a, emb_b = join_rings(i.ring, j.ring)
        by_prime_sum = {
            _mask(prime_sum(p, q, emb_a, emb_b).support)
            for p in associated_primes(i)
            for q in associated_primes(j)
        }
        shift = i.ring.nvars
        assert by_prime_sum == {p | q << shift for p in _supports(i) for q in _supports(j)}

    def test_primes_round_trip_every_mask(self):
        r5 = Ring.of("a", "b", "c", "d", "e")
        for m in range(1 << r5.nvars):
            (p,) = _primes(r5, [m])
            assert _mask(p.support) == m
            assert p == MonomialPrime(r5, p.support)
        assert len(_primes(r5, range(1 << r5.nvars))) == 1 << r5.nvars


class TestExtend:
    def test_extension_keeps_generators(self):
        joined, emb_a, _ = join_rings(XY, B2)
        extended = extend(ideal(XY, "x^2, x*y"), emb_a)
        assert extended == ideal(joined, "x^2, x*y")

    def test_unit_and_zero(self):
        joined, emb_a, _ = join_rings(XY, B2)
        assert extend(MonomialIdeal.unit(XY), emb_a).is_unit
        assert extend(MonomialIdeal.zero(XY), emb_a).is_zero

    def test_wrong_source_rejected(self):
        _, emb_a, _ = join_rings(XY, B2)
        with pytest.raises(IdealArgumentError):
            extend(ideal(B2, "z"), emb_a)


class TestJoinAndExtendMemos:
    def test_both_memos_have_the_package_bound(self):
        # Only the join is memoised; an extension is a copy of exponents.
        assert join_rings.cache_info().maxsize == core._MEMO_SIZE
        assert not hasattr(extend, "cache_info")

    def test_a_repeated_join_is_one_entry(self):
        first = join_rings(XY, B2)
        assert join_rings(Ring.of("x", "y"), Ring.of("z", "t")) is first
        assert join_rings.cache_info()[:2] == (1, 1)

    def test_results_live_in_the_callers_ring(self):
        # Equal exponent tuples over other rings are other keys.
        i, renamed = ideal(XY, "x^2, x*y"), ideal(A, "a^2, a*b")
        assert i._exps == renamed._exps
        seen = set()
        for base in (i, renamed):
            for other in (B2, CD):
                joined, emb_a, emb_b = join_rings(base.ring, other)
                extended = extend(base, emb_a)
                assert extended.ring == joined and extended._exps == (
                    (2, 0, 0, 0), (1, 1, 0, 0)
                )
                assert extend(MonomialIdeal.unit(other), emb_b).ring == joined
                seen.add(joined)
        assert len(seen) == 4

    def test_wrong_source_raises_the_same_cold_and_warm(self):
        _, emb_a, emb_b = join_rings(XY, B2)
        wrong = ideal(B2, "z")

        def error():
            with pytest.raises(IdealArgumentError) as info:
                extend(wrong, emb_a)
            return str(info.value)

        cold = error()
        extend(ideal(XY, "x"), emb_a), extend(wrong, emb_b)
        assert error() == cold == "ideal does not live in the embedding source"


class TestBinomialSaturated:
    def test_derived_example_s1(self):
        i, k = ideal(XY, "x^2, x*y"), ideal(XY, "x, y")
        j, l = ideal(B2, "z^2, z*t"), ideal(B2, "z, t")
        joined = R4
        result = binomial_saturated(i, k, j, l, 1)
        assert result == ideal(joined, "x, z")
        assert result == direct_saturated_sum(i, k, j, l, 1)

    def test_derived_example_s2(self):
        i, k = ideal(XY, "x^2, x*y"), ideal(XY, "x, y")
        j, l = ideal(B2, "z^2, z*t"), ideal(B2, "z, t")
        joined = R4
        result = binomial_saturated(i, k, j, l, 2)
        assert result == ideal(joined, "x^2, x*z, z^2")
        assert result == direct_saturated_sum(i, k, j, l, 2)

    def test_unit_saturators_give_ordinary_power(self):
        i, j = ideal(XY, "x^2, x*y"), ideal(B2, "z^2, z*t")
        _, _, _, total = joined_sum(i, j)
        for s in (1, 2, 3):
            assert binomial_saturated(
                i, MonomialIdeal.unit(XY), j, MonomialIdeal.unit(B2), s
            ) == ideal_power(total, s)

    @given(
        ideals_over(XY, True),
        ideals_over(XY, False),
        ideals_over(B2, True),
        ideals_over(B2, False),
        st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_expansion_equals_direct_saturation(self, i, k, j, l, s):
        assert binomial_saturated(i, k, j, l, s) == direct_saturated_sum(i, k, j, l, s)

    @given(
        ideals_over(XY, True),
        ideals_over(XY, False),
        ideals_over(B2, True),
        ideals_over(B2, False),
        st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_each_term_included(self, i, k, j, l, s):
        assert check_term_inclusions(i, k, j, l, s).passed

    def test_term_report_renders_each_term(self):
        passing = TermInclusionReport((True, True))
        failing = TermInclusionReport((True, False, True))
        assert str(passing) == "terms=yes,yes inclusion=pass"
        assert str(failing) == "terms=yes,no,yes inclusion=FAIL"


class TestBinomialSymbolic:
    def test_min_example(self):
        i, j = ideal(A, "a^2, a*b"), ideal(CD, "c^2, c*d")
        joined = Ring.of("a", "b", "c", "d")
        result = binomial_symbolic(i, j, 2, "min")
        assert result == ideal(joined, "a^2, a*c, c^2")
        assert result == symbolic_of_sum(i, j, 2, "min")

    def test_ass_example_is_ordinary_square(self):
        i, j = ideal(A, "a^2, a*b"), ideal(CD, "c^2, c*d")
        _, _, _, total = joined_sum(i, j)
        assert binomial_symbolic(i, j, 2, "ass") == ideal_power(total, 2)

    def test_two_disjoint_copies_of_a_variable(self):
        i = ideal(Ring.of("x"), "x")
        j = ideal(Ring.of("x"), "x")
        result = binomial_symbolic(i, j, 1, "min")
        assert result == ideal(Ring.of("x", "x_1"), "x, x_1")

    @given(ideals_over(XY, True), ideals_over(B2, True), st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_expansion_matches_direct_symbolic(self, i, j, s):
        for notion in ("min", "ass"):
            assert binomial_symbolic(i, j, s, notion) == symbolic_of_sum(i, j, s, notion)

    @given(split_pairs, st.sampled_from(NOTIONS), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_split_sides_match_the_per_side_reference(self, pair, notion, s):
        i, j = pair
        assert binomial_symbolic(i, j, s, notion) == reference_binomial_symbolic(
            i, j, s, notion
        )

    @pytest.mark.parametrize("notion", NOTIONS)
    def test_split_pair_at_six(self, notion):
        # The sum is the pathological ideal of test_powers, with 4 summands.
        result = binomial_symbolic(SPLIT_I, SPLIT_J, 6, notion)
        assert len(result.generators) == 462
        assert result == reference_binomial_symbolic(SPLIT_I, SPLIT_J, 6, notion)

    @pytest.mark.parametrize("zero_first", [True, False])
    def test_errors_keep_their_order(self, zero_first):
        # s, then a unit side, then the notion, then a zero side.
        zero = MonomialIdeal.zero(A)

        def expand(other, s, notion):
            pair = (zero, other) if zero_first else (other, zero)
            return binomial_symbolic(*pair, s, notion)

        unit, proper = MonomialIdeal.unit(CD), ideal(CD, "c^2, c*d")
        with pytest.raises(ValueError, match="^power must be positive$"):
            expand(unit, 0, "max")
        with pytest.raises(IdealArgumentError, match="^binomial symbolic expansion needs"):
            expand(unit, 2, "max")
        with pytest.raises(ValueError, match="^notion must be one of"):
            expand(proper, 2, "max")
        for notion in NOTIONS:
            with pytest.raises(IdealArgumentError) as info:
                expand(proper, 2, notion)
            assert str(info.value) == "the zero ideal has no primary decomposition here"


class TestEqualityCriteria:
    def test_saturating_primes_by_outside_variables(self):
        report = check_equality_criteria(
            ideal(XY, "x"), ideal(XY, "y"), ideal(B2, "z"), ideal(B2, "t"), 3
        )
        assert report.joint_equal and report.componentwise and report.passed

    def test_mixed_example(self):
        report = check_equality_criteria(
            ideal(XY, "x^2, x*y"),
            ideal(XY, "x, y"),
            ideal(B2, "z"),
            MonomialIdeal.unit(B2),
            1,
        )
        assert report.i_equal == (False,)
        assert report.j_equal == (True,)
        assert not report.joint_equal
        assert report.passed

    def test_doubly_saturated_example(self):
        report = check_equality_criteria(
            ideal(A, "a^2, a*b"),
            ideal(A, "a, b"),
            ideal(CD, "c^2, c*d"),
            ideal(CD, "c, d"),
            2,
        )
        assert not report.joint_equal
        assert not report.componentwise
        assert report.passed

    def test_powers_of_proper_ideals_never_stabilize(self):
        for text in ("x", "x^2, x*y", "x*y"):
            i = ideal(XY, text)
            for s in (1, 2, 3):
                assert ideal_power(i, s) != ideal_power(i, s + 1)

    @given(
        ideals_over(XY, True),
        ideals_over(XY, False),
        ideals_over(B2, True),
        ideals_over(B2, False),
        st.integers(1, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_biconditional(self, i, k, j, l, s):
        assert check_equality_criteria(i, k, j, l, s).passed

    @given(ideals_over(XY, True), ideals_over(B2, True), st.integers(1, 2))
    @settings(max_examples=20, deadline=None)
    def test_symbolic_implication(self, i, j, s):
        assert check_symbolic_equality_implication(i, j, s).passed


class TestProperPairGuards:
    @pytest.mark.parametrize(
        "check, message",
        [
            (
                lambda i, j: check_equality_criteria(i, i, j, j, 1),
                "equality criteria need nonzero proper ideals",
            ),
            (
                lambda i, j: check_symbolic_equality_implication(i, j, 1),
                "implication check needs nonzero proper ideals",
            ),
            (lambda i, j: check_ass_structure(i, j, 1), "structure check needs nonzero proper ideals"),
        ],
        ids=["check_eq", "check_symb_eq", "check_ass"],
    )
    def test_a_zero_or_unit_side_is_refused(self, check, message):
        i, j = ideal(XY, "x"), ideal(B2, "z")
        for side in (MonomialIdeal.zero, MonomialIdeal.unit):
            for pair in ((side(XY), j), (i, side(B2))):
                with pytest.raises(IdealArgumentError, match=f"^{message}$"):
                    check(*pair)


class TestAssStructure:
    def test_tensor_example(self):
        report = check_ass_structure(ideal(A, "a^2, a*b"), ideal(CD, "c^2, c*d"), 2)
        assert report.passed and not report.inconclusive

    def test_two_variables(self):
        i = ideal(Ring.of("x"), "x")
        j = ideal(Ring.of("z"), "z")
        _, _, _, total = joined_sum(i, j)
        from idealkit.decomposition import associated_primes

        assert associated_primes(total) == {
            MonomialPrime.of_names(Ring.of("x", "z"), "x", "z")
        }
        assert check_ass_structure(i, j, 1).passed

    def test_sum_example(self):
        report = check_ass_structure(ideal(XY, "x^2, x*y"), ideal(B2, "z^2, z*t"), 1)
        assert report.passed

    def test_prime_sum_helper(self):
        _, emb_a, emb_b = join_rings(XY, B2)
        p = MonomialPrime.of_names(XY, "x")
        q = MonomialPrime.of_names(B2, "z", "t")
        assert prime_sum(p, q, emb_a, emb_b) == MonomialPrime.of_names(R4, "x", "z", "t")

    @given(ideals_over(XY, True), ideals_over(B2, True), st.integers(1, 2))
    @settings(max_examples=15, deadline=None)
    def test_structure_fuzz(self, i, j, s):
        report = check_ass_structure(i, j, s)
        assert report.quotient_ass_agrees
        assert report.passed

    def test_cross_check_catches_a_dropped_quotient_prime(self, monkeypatch):
        healthy = binomial.ass_module_quotient

        def dropping(ideal, index):
            primes = healthy(ideal, index)
            return primes - {max(primes, key=MonomialPrime.sort_key)}

        monkeypatch.setattr(binomial, "ass_module_quotient", dropping)
        report = check_ass_structure(ideal(A, "a^2, a*b"), ideal(CD, "c^2, c*d"), 2)
        assert report.quotient_ass_agrees is False
        assert not report.passed

    def test_grade_check_reads_the_ass_sets_in_hand(self, monkeypatch):
        from idealkit import decomposition, powers

        asked = []
        real = decomposition._supports

        def counted(ideal):
            asked.append(ideal)
            return real(ideal)

        for module in (binomial, decomposition, powers):
            monkeypatch.setattr(module, "_supports", counted)
        i = ideal(A, "a^2, a*b")
        j = ideal(CD, "c^2, c*d")
        s, n_max = 2, 3
        assert check_ass_structure(i, j, s, n_max).passed
        # Ass of I, J and I+J, of (I+J)^s, of I^t for t = 1..s, and of the
        # n_max powers on each side in ass_star_bounded: 4 + s + 2 * n_max.
        # The quotient Ass of I^t and J^(s-t+1), t = 1..s, is the Ass of
        # the power: 2 * s more.  Each notion's saturator identity adds the
        # kept rule's one read of Ass(I), Ass(J) and Ass(I+J): 3 * 2 more,
        # 22 in all.  The grade check over the 2 x 2 prime pairs reads none.
        assert len(asked) == 4 + s + 2 * n_max + 2 * s + 3 * 2

    def test_grade_check_catches_an_overlap_rule(self, monkeypatch):
        # Overlap is not containment: under it, (b) + (c) would have grade
        # zero on the sum, though (b) has positive grade on k[a, b]/(a).
        i, j = ideal(A, "a"), ideal(CD, "c^2")
        assert check_ass_structure(i, j, 2).grade_dichotomy_holds
        monkeypatch.setattr(binomial, "_inside_some", lambda m, ms: any(m & x for x in ms))
        report = check_ass_structure(i, j, 2)
        assert report.grade_dichotomy_holds is False
        assert not report.passed

    def test_unstabilized_bound_reports_inconclusive(self):
        # the edge ideal of a triangle picks up the maximal ideal only at
        # the square, so comparing the first two powers is inconclusive
        r3 = Ring.of("u", "v", "w")
        triangle = ideal(r3, "u*v, u*w, v*w")
        from idealkit.decomposition import ass_star_bounded

        _, stabilized = ass_star_bounded(triangle, 2)
        assert not stabilized
        report = check_ass_structure(triangle, ideal(B2, "z"), 1, n_max=2)
        assert report.inconclusive
        assert report.saturator_min_equal is None
        assert report.saturator_ass_equal is None
        assert report.passed  # the conclusive parts still hold


class TestFiltrationIdentities:
    def _ordinary(self, i, k, j, s):
        return check_filtration_identities(
            [ideal_power(i, t) for t in range(1, s + 1)],
            [ideal_power(k, t) for t in range(1, s + 1)],
            [ideal_power(j, t) for t in range(1, s + 1)],
            k,
            s,
        )

    def test_ordinary_power_filtrations(self):
        report = self._ordinary(
            ideal(XY, "x^2, x*y"), ideal(XY, "x, y"), ideal(B2, "z^2, z*t"), 3
        )
        assert report.passed

    def test_saturated_power_filtrations(self):
        i, k = ideal(XY, "x^2, x*y"), ideal(XY, "x, y")
        j, l = ideal(B2, "z^2, z*t"), ideal(B2, "z, t")
        s = 3
        report = check_filtration_identities(
            [saturated_power(i, k, t) for t in range(1, s + 1)],
            [ideal_power(k, t) for t in range(1, s + 1)],
            [saturated_power(j, l, t) for t in range(1, s + 1)],
            k,
            s,
        )
        assert report.passed

    def test_base_case_reduces_to_sum_intersection(self):
        report = self._ordinary(ideal(XY, "x^2"), ideal(XY, "y"), ideal(B2, "z"), 1)
        assert report.passed

    def test_non_filtration_premise_fails(self):
        # ascending chain is not a filtration
        report = check_filtration_identities(
            [ideal(XY, "x^2"), ideal(XY, "x")],
            [ideal(XY, "y"), ideal(XY, "y^2")],
            [ideal(B2, "z"), ideal(B2, "z^2")],
            ideal(XY, "y"),
            2,
        )
        assert not report.premises_ok and not report.passed

    @pytest.mark.parametrize(
        "i_terms",
        [[ideal(XY, "x")], [ideal(XY, "x"), ideal(XY, "x^3")]],
        ids=["too-short", "not-closed-under-products"],
    )
    def test_failed_premise_clears_every_flag(self, i_terms):
        k = ideal(XY, "y")
        report = check_filtration_identities(
            i_terms, [k, ideal_power(k, 2)], [ideal(B2, "z"), ideal(B2, "z^2")], k, 2
        )
        assert report == FiltrationReport(False, False, False, False, False, False)

    def test_empty_filtration_rejected(self):
        x, z = ideal(XY, "x"), ideal(B2, "z")
        for lists in (([], [x], [z]), ([x], [], [z]), ([x], [x], [])):
            with pytest.raises(IdealArgumentError, match="^empty filtration$"):
                check_filtration_identities(*lists, x, 1)

    @pytest.mark.parametrize("s", [1, 2])
    def test_second_filtration_in_another_ring_is_refused(self, s):
        # Only the inclusion of its first term in the prepended (1) sees it.
        i_terms = [ideal(XY, "x"), ideal(XY, "x^2")]
        k_terms = [ideal(B2, "t"), ideal(B2, "t^2")]
        j_terms = [ideal(B2, "z"), ideal(B2, "z^2")]
        message = r"^ring mismatch: \[x, y\] vs \[z, t\]$"
        with pytest.raises(core.RingMismatchError, match=message):
            check_filtration_identities(i_terms, k_terms, j_terms, i_terms[0], s)

    @given(
        ideals_over(XY, True),
        ideals_over(XY, False),
        ideals_over(B2, True),
        st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_identity_fuzz(self, i, k, j, s):
        assert self._ordinary(i, k, j, s).passed


def reference_ass_report(flags):
    """(passed, str) of an AssStructureReport's flags by the field-by-field rules."""
    tensor, lower, upper, quotients, grade, global_min, global_ass, stabilized = flags
    checks = [tensor, lower, upper, quotients, grade]
    if global_min is not None:
        checks.append(global_min)
    if global_ass is not None:
        checks.append(global_ass)
    bits = [
        f"tensor={tensor}",
        f"lower={lower}",
        f"upper={upper}",
        f"quotients={quotients}",
        f"grade={grade}",
        f"global_min={global_min}",
        f"global_ass={global_ass}",
    ]
    if not stabilized:
        bits.append("inconclusive")
    return all(checks), " ".join(bits)


def reference_filtration_report(flags):
    """(passed, str) of a FiltrationReport's flags by the field-by-field rules."""
    premises, disjoint, total, step, long, colon = flags
    passed = premises and disjoint and total and step and long and colon
    text = (
        f"premises={premises} disjoint={disjoint} sum={total} step={step} "
        f"long={long} colon={colon}"
    )
    return passed, text


class TestReportFlags:
    """Both reports judge and print every combination of their flags."""

    def test_ass_structure_report(self):
        checked = (True, False, None)
        combinations = itertools.product(
            *[(True, False)] * 5, checked, checked, (True, False)
        )
        seen = set()
        for flags in combinations:
            report = AssStructureReport(*flags)
            expected = reference_ass_report(flags)
            assert (report.passed, str(report)) == expected, flags
            seen.add(expected[0])
        assert seen == {True, False}

    def test_filtration_report(self):
        for flags in itertools.product((True, False), repeat=6):
            report = FiltrationReport(*flags)
            assert (report.passed, str(report)) == reference_filtration_report(flags), flags


class TestEmbeddingValidation:
    def test_non_injective_rejected(self):
        with pytest.raises(ValueError):
            RingEmbedding(XY, Ring.of("u", "v"), (0, 0))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            RingEmbedding(XY, Ring.of("u", "v"), (0,))

    def test_out_of_range_rejected(self):
        for index_map in ((0, 2), (-1, 0)):
            with pytest.raises(ValueError, match="^index map out of range$"):
                RingEmbedding(XY, Ring.of("u", "v"), index_map)


class TestDirectRouteIndependence:
    """The checks of the binomial expansion compute every symbolic power on
    the decomposition route, so none of them can agree with the expansion
    only because it computed its sum side by the expansion itself."""

    @pytest.mark.parametrize(
        "i, j",
        [
            (ideal(A, "a^2, a*b"), ideal(CD, "c^2, c*d")),
            # I splits into (x^2, x*y) and (z^2); J is connected.
            (ideal(R3, "x^2, x*y, z^2"), ideal(CD, "c^3, c*d, d^2")),
        ],
    )
    def test_checks_never_take_the_fast_path(self, monkeypatch, i, j):
        from idealkit import decomposition, powers
        from idealkit.binomial import check_depth_reg_symbolic_ass
        from idealkit.powers import NOTIONS

        expansions = {
            (s, notion): binomial_symbolic(i, j, s, notion)
            for s in (1, 2, 3)
            for notion in NOTIONS
        }

        def refuse(ideal):
            raise AssertionError("a check reached the binomial fast path")

        monkeypatch.setattr(decomposition, "_summands", refuse)
        monkeypatch.setattr(powers, "_summands", refuse)
        for (s, notion), expansion in expansions.items():
            assert symbolic_of_sum(i, j, s, notion) == expansion
        for s in (1, 2):
            assert check_symbolic_equality_implication(i, j, s).passed
            assert check_ass_structure(i, j, s).passed
            assert check_depth_reg_symbolic_ass(i, j, s).passed

    def test_symbolic_of_sum_still_rejects_a_bad_notion(self):
        with pytest.raises(ValueError, match="notion must be one of"):
            symbolic_of_sum(ideal(A, "a^2, a*b"), ideal(CD, "c"), 2, "max")
