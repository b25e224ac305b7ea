import pytest
from hypothesis import given, settings, strategies as st

from idealkit.core import (
    IdealArgumentError,
    MonomialIdeal,
    Ring,
    colon,
    ideal_power,
    monomials_of_degree_at_most,
    principal,
)
import idealkit
from idealkit import binomial, decomposition, fuzz, powers
from idealkit.core import intersect_all
from idealkit.decomposition import (
    ass_star_bounded,
    associated_primes,
    grade_zero,
    irreducible_decomposition,
    minimal_primes,
    primary_decomposition,
)
from idealkit.powers import (
    regular_witness,
    regular_witness_candidates,
    saturated_power,
    saturator_ass,
    saturator_ass_global,
    saturator_min,
    saturator_min_global,
    symbolic_ass,
    symbolic_min,
    symbolic_power,
)

A = Ring.of("a", "b")
XY = Ring.of("x", "y")
R3 = Ring.of("x", "y", "z")
R4 = Ring.of("x", "y", "z", "t")


def ideal(ring, text):
    return MonomialIdeal.parse(ring, text)


exponent_vectors = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)
monomials3 = exponent_vectors.map(lambda e: R3.monomial(e))
proper3 = (
    st.lists(monomials3, min_size=1, max_size=4)
    .map(lambda gens: MonomialIdeal(R3, tuple(gens)))
    .filter(lambda i: not i.is_zero and not i.is_unit)
)


class TestSaturatedPower:
    def test_example_with_maximal_saturator(self):
        assert saturated_power(ideal(A, "a^2, a*b"), ideal(A, "a, b"), 2) == ideal(
            A, "a^2"
        )

    def test_example_with_witness_saturator(self):
        assert saturated_power(ideal(A, "a^2, a*b"), ideal(A, "b"), 3) == ideal(
            A, "a^3"
        )

    def test_unit_saturator_gives_ordinary_power(self):
        i = ideal(A, "a^2, a*b")
        assert saturated_power(i, MonomialIdeal.unit(A), 2) == ideal_power(i, 2)

    def test_zeroth_power_is_unit(self):
        assert saturated_power(ideal(A, "a^2, a*b"), ideal(A, "a, b"), 0).is_unit

    def test_zero_arguments_rejected(self):
        with pytest.raises(IdealArgumentError):
            saturated_power(MonomialIdeal.zero(A), ideal(A, "a"), 1)
        with pytest.raises(IdealArgumentError):
            saturated_power(ideal(A, "a"), MonomialIdeal.zero(A), 1)


class TestSaturators:
    def test_example_ideal_min_saturator(self):
        i = ideal(A, "a^2, a*b")
        for s in (1, 2, 3):
            assert saturator_min(i, s) == ideal(A, "a, b")

    def test_prime_has_unit_saturators(self):
        p = ideal(XY, "x, y")
        assert saturator_min(p, 2).is_unit
        assert saturator_ass(p, 2).is_unit

    def test_example_ideal_ass_saturator_is_unit(self):
        i = ideal(A, "a^2, a*b")
        for s in (1, 2, 3):
            assert saturator_ass(i, s).is_unit

    def test_sum_example_min_saturator_is_embedded_intersection(self):
        i = ideal(R4, "x^2, x*y, z^2, z*t")
        mins = minimal_primes(i)
        expected = MonomialIdeal.unit(R4)
        from idealkit.core import intersect

        for p in associated_primes(i):
            if p not in mins:
                expected = intersect(expected, p.as_ideal())
        assert saturator_min(i, 1) == expected

    def test_global_form_matches_per_power_for_stable_example(self):
        i = ideal(A, "a^2, a*b")
        assert saturator_min_global(i, 4) == saturator_min(i, 2)

    def test_sum_example_ass_saturator_is_unit(self):
        # every associated prime sits inside the maximal associated prime,
        # so nothing has positive grade and the a-symbolic power is ordinary
        i = ideal(R4, "x^2, x*y, z^2, z*t")
        assert saturator_ass(i, 1).is_unit
        assert symbolic_ass(i, 1) == i


class TestSymbolicPowers:
    def test_example_ideal_min(self):
        i = ideal(A, "a^2, a*b")
        for s in (1, 2, 3):
            assert symbolic_min(i, s) == MonomialIdeal(A, (A.monomial((s, 0)),))

    def test_example_ideal_ass_equals_ordinary(self):
        i = ideal(A, "a^2, a*b")
        for s in (1, 2, 3):
            assert symbolic_ass(i, s) == ideal_power(i, s)

    def test_prime_power_case(self):
        p = ideal(XY, "x, y")
        assert symbolic_min(p, 2) == ideal_power(p, 2)
        assert symbolic_ass(ideal(XY, "x"), 3) == ideal(XY, "x^3")

    def test_squarefree_two_routes_agree(self):
        i = ideal(R3, "x*y, x*z, y*z")
        via_decomposition = symbolic_min(i, 2)
        via_saturation = saturated_power(i, saturator_min(i, 2), 2)
        assert via_decomposition == via_saturation

    def test_sum_example_rename(self):
        i = ideal(XY, "x^2, x*y")
        assert symbolic_ass(i, 1) == i

    def test_notion_dispatch(self):
        i = ideal(A, "a^2, a*b")
        assert symbolic_power(i, 2, "min") == symbolic_min(i, 2)
        assert symbolic_power(i, 2, "ass") == symbolic_ass(i, 2)
        with pytest.raises(ValueError):
            symbolic_power(i, 2, "maximal")

    @given(proper3, st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_sandwich(self, i, s):
        ordinary = ideal_power(i, s)
        via_ass = symbolic_ass(i, s)
        via_min = symbolic_min(i, s)
        assert via_ass.contains_ideal(ordinary)
        assert via_min.contains_ideal(via_ass)

    @given(proper3, st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_saturation_route_agrees(self, i, s):
        assert symbolic_min(i, s) == saturated_power(i, saturator_min(i, s), s)
        assert symbolic_ass(i, s) == saturated_power(i, saturator_ass(i, s), s)

    @given(proper3, st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_colon_bounds(self, i, s):
        # any monomial avoiding the minimal primes bounds the min notion,
        # and one avoiding all associated primes bounds the ass notion
        minimal_support = {v for p in minimal_primes(i) for v in p.support}
        ass_support = {v for p in associated_primes(i) for v in p.support}
        power = ideal_power(i, s)
        for m in monomials_of_degree_at_most(R3, 2):
            if m.is_one():
                continue
            if not any(m.exponents[v] > 0 for v in minimal_support):
                assert symbolic_min(i, s).contains_ideal(colon(power, principal(m)))
            if not any(m.exponents[v] > 0 for v in ass_support):
                assert symbolic_ass(i, s).contains_ideal(colon(power, principal(m)))


class TestSaturationViaDecomposition:
    @staticmethod
    def _contains_prime(k, p):
        # k sits inside the monomial prime p iff every generator meets p
        return all(
            any(g.exponents[v] > 0 for v in p.support) for g in k.generators
        )

    @given(proper3, proper3.filter(lambda k: not k.is_unit), st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_saturation_keeps_components_missing_the_saturator(self, i, k, s):
        from idealkit.core import intersect_all
        from idealkit.decomposition import primary_decomposition

        power = ideal_power(i, s)
        expected = intersect_all(
            R3,
            (
                q
                for p, q in primary_decomposition(power)
                if not self._contains_prime(k, p)
            ),
        )
        assert saturated_power(i, k, s) == expected

    @given(proper3, proper3)
    @settings(max_examples=40, deadline=None)
    def test_saturation_sees_only_the_radical_of_the_saturator(self, i, k):
        from idealkit.core import radical, saturate

        assert saturate(i, k) == saturate(i, radical(k))


class TestRegularWitness:
    def test_example_ideal_witness_is_b(self):
        i = ideal(A, "a^2, a*b")
        witness = regular_witness(i, "min")
        assert witness == A.monomial((0, 1))
        assert A.monomial((0, 1)) in regular_witness_candidates(i, "min", max_degree=1)

    def test_prime_with_no_embedded_part_gives_unit(self):
        witness = regular_witness(ideal(XY, "x, y"), "min")
        assert witness is not None and witness.is_one()

    def test_squarefree_witness_avoids_all_primes_or_is_missing(self):
        i = ideal(R3, "x*y, x*z, y*z")
        witness = regular_witness(i, "ass")
        if witness is not None and not witness.is_one():
            for p in associated_primes(i):
                assert not p.contains_monomial(witness)

    @given(proper3, st.sampled_from(["min", "ass"]))
    @settings(max_examples=40, deadline=None)
    def test_witness_validity(self, i, notion):
        witness = regular_witness(i, notion, n_max=4)
        if witness is None or witness.is_one():
            return
        primes = minimal_primes(i) if notion == "min" else associated_primes(i)
        for p in primes:
            assert not p.contains_monomial(witness)
        via_witness = saturated_power(i, principal(witness), 2)
        assert via_witness == symbolic_power(i, 2, notion)


# The decomposition-grouping bodies the kept-prime rule replaced, kept as
# independent references: each spells out its notion instead of asking
# ``powers._kept``.


def reference_symbolic_min(ideal, s):
    if s == 0:
        return MonomialIdeal.unit(ideal.ring)
    mins = minimal_primes(ideal)
    decomposition = primary_decomposition(ideal_power(ideal, s))
    return intersect_all(ideal.ring, (q for p, q in decomposition if p in mins))


def reference_symbolic_ass(ideal, s):
    if s == 0:
        return MonomialIdeal.unit(ideal.ring)
    decomposition = primary_decomposition(ideal_power(ideal, s))
    return intersect_all(
        ideal.ring, (q for p, q in decomposition if grade_zero(p, ideal))
    )


def reference_saturator_min(ideal, s):
    if s < 1:
        raise ValueError("power must be positive")
    mins = minimal_primes(ideal)
    embedded = [p for p in associated_primes(ideal_power(ideal, s)) if p not in mins]
    return intersect_all(ideal.ring, (p.as_ideal() for p in embedded))


def reference_saturator_min_global(ideal, n_max=None):
    star, _ = ass_star_bounded(ideal, n_max)
    mins = minimal_primes(ideal)
    return intersect_all(ideal.ring, (p.as_ideal() for p in star if p not in mins))


def reference_saturator_ass(ideal, s):
    if s < 1:
        raise ValueError("power must be positive")
    keep = [
        p
        for p in associated_primes(ideal_power(ideal, s))
        if not grade_zero(p, ideal)
    ]
    return intersect_all(ideal.ring, (p.as_ideal() for p in keep))


def reference_saturator_ass_global(ideal, n_max=None):
    star, _ = ass_star_bounded(ideal, n_max)
    keep = [p for p in star if not grade_zero(p, ideal)]
    return intersect_all(ideal.ring, (p.as_ideal() for p in keep))


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, IdealArgumentError) as exc:
        return type(exc), str(exc)


class TestKeptPrimeRule:
    @given(proper3, st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_symbolic_powers_match_the_decomposition_references(self, i, s):
        assert symbolic_min(i, s) == reference_symbolic_min(i, s)
        assert symbolic_ass(i, s) == reference_symbolic_ass(i, s)

    @given(proper3, st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_saturators_match_the_references(self, i, s):
        assert outcome(saturator_min, i, s) == outcome(reference_saturator_min, i, s)
        assert outcome(saturator_ass, i, s) == outcome(reference_saturator_ass, i, s)
        n_max = s + 1
        assert outcome(saturator_min_global, i, n_max) == outcome(
            reference_saturator_min_global, i, n_max
        )
        assert outcome(saturator_ass_global, i, n_max) == outcome(
            reference_saturator_ass_global, i, n_max
        )

    @pytest.mark.parametrize(
        "new, reference",
        [
            (symbolic_min, reference_symbolic_min),
            (symbolic_ass, reference_symbolic_ass),
            (saturator_min, reference_saturator_min),
            (saturator_ass, reference_saturator_ass),
        ],
    )
    @pytest.mark.parametrize("s", [-1, 0, 1, 2])
    def test_zero_and_unit_ideals_fail_as_before(self, new, reference, s):
        for i in (MonomialIdeal.zero(XY), MonomialIdeal.unit(XY)):
            assert outcome(new, i, s) == outcome(reference, i, s)

    def test_ass_notion_reads_ass_once(self, monkeypatch):
        calls = []
        real = decomposition.associated_primes

        def counted(i):
            calls.append(i)
            return real(i)

        monkeypatch.setattr(decomposition, "associated_primes", counted)
        monkeypatch.setattr(powers, "associated_primes", counted)
        i = ideal(R3, "x^2*y, y*z^3, x*z")
        assert len(irreducible_decomposition(ideal_power(i, 3))) > 1
        symbolic_ass(i, 3)
        assert calls == [i]

    @pytest.mark.parametrize("n_max", [None, 1, 2])
    def test_global_saturators_fail_as_before(self, n_max):
        for i in (MonomialIdeal.zero(XY), MonomialIdeal.unit(XY), ideal(XY, "x^2, x*y")):
            assert outcome(saturator_min_global, i, n_max) == outcome(
                reference_saturator_min_global, i, n_max
            )
            assert outcome(saturator_ass_global, i, n_max) == outcome(
                reference_saturator_ass_global, i, n_max
            )

    def test_powers_names_stay_exported(self):
        names = [
            "regular_witness",
            "saturated_power",
            "saturator_ass",
            "saturator_ass_global",
            "saturator_min",
            "saturator_min_global",
            "symbolic_ass",
            "symbolic_min",
            "symbolic_power",
        ]
        for name in names:
            assert getattr(idealkit, name) is getattr(powers, name)


class TestAssStarReuse:
    """Each side's bounded union of Ass(I^n) is computed once per use."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return ass_star_bounded(*args)

        for module in (binomial, decomposition, fuzz, powers):
            monkeypatch.setattr(module, "ass_star_bounded", counted)
        return calls

    def test_structure_check_computes_it_once_per_side(self, monkeypatch):
        i = ideal(A, "a^2, a*b")
        j = ideal(XY, "x^2, x*y")
        calls = self.count_calls(monkeypatch)
        report = binomial.check_ass_structure(i, j, 2)
        assert report.stabilized and report.passed
        assert len(calls) == 2

    @pytest.mark.parametrize("notion", powers.NOTIONS)
    def test_route_consistency_computes_it_twice(self, monkeypatch, notion):
        # once for the stability flag and the global saturator, once inside
        # the witness search
        i = ideal(R3, "x^2, x*y, y*z^2")
        calls = self.count_calls(monkeypatch)
        ok, counters = fuzz.symbolic_route_consistency(i, 2, notion, 4)
        assert ok
        assert len(calls) == 2
