import inspect
from functools import reduce
import itertools
import os
import random
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from idealkit.core import (
    IdealArgumentError,
    MonomialIdeal,
    MonomialPrime,
    Ring,
    colon,
    ideal_power,
    principal,
)
import idealkit
from idealkit import binomial, core, decomposition, fuzz, powers
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
    NOTIONS,
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
from conftest import idealkit_memos
from monomial_boxes import monomials_of_degree_at_most
from packed_meet import tuple_meet, unpack, unpack_powers
from small_ideals import A, PATHOLOGICAL as PATHOLOGICAL_TEXT, R12, R3, R4, XY, ideal, proper3


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


# Set-based kept-prime rules over the primes of the primary decomposition,
# for the references below: ``minimal_primes``, ``grade_zero`` and
# ``powers._kept`` share the support-bitmask helpers of ``decomposition``,
# and these share none of them.


def set_minimal_primes(ideal):
    """Min(I): the primes of I's primary decomposition containing no other."""
    ass = primary_decomposition(ideal).primes()
    return frozenset(p for p in ass if not any(set(q.support) < set(p.support) for q in ass))


def set_grade_zero(ideal):
    """The predicate grade(p, A/I) = 0: p lies inside some prime of Ass(I)."""
    supports = [set(q.support) for q in primary_decomposition(ideal).primes()]
    return lambda p: any(set(p.support) <= s for s in supports)


# The decomposition-grouping bodies the kept-prime rule replaced, kept as
# independent references: each spells out its notion instead of asking
# ``powers._kept``.


def reference_symbolic_min(ideal, s):
    if s == 0:
        return MonomialIdeal.unit(ideal.ring)
    mins = set_minimal_primes(ideal)
    decomposition = primary_decomposition(ideal_power(ideal, s))
    return intersect_all(ideal.ring, (q for p, q in decomposition if p in mins))


def reference_symbolic_ass(ideal, s):
    if s == 0:
        return MonomialIdeal.unit(ideal.ring)
    decomposition = primary_decomposition(ideal_power(ideal, s))
    zero = set_grade_zero(ideal)
    return intersect_all(ideal.ring, (q for p, q in decomposition if zero(p)))


def reference_saturator_min(ideal, s):
    if s < 1:
        raise ValueError("power must be positive")
    mins = set_minimal_primes(ideal)
    embedded = [p for p in associated_primes(ideal_power(ideal, s)) if p not in mins]
    return intersect_all(ideal.ring, (p.as_ideal() for p in embedded))


def reference_saturator_min_global(ideal, n_max=None):
    star, _ = ass_star_bounded(ideal, n_max)
    mins = set_minimal_primes(ideal)
    return intersect_all(ideal.ring, (p.as_ideal() for p in star if p not in mins))


def reference_saturator_ass(ideal, s):
    if s < 1:
        raise ValueError("power must be positive")
    primes = associated_primes(ideal_power(ideal, s))
    zero = set_grade_zero(ideal)
    keep = [p for p in primes if not zero(p)]
    return intersect_all(ideal.ring, (p.as_ideal() for p in keep))


def reference_saturator_ass_global(ideal, n_max=None):
    star, _ = ass_star_bounded(ideal, n_max)
    zero = set_grade_zero(ideal)
    keep = [p for p in star if not zero(p)]
    return intersect_all(ideal.ring, (p.as_ideal() for p in keep))


def reference_witness_candidates(ideal, notion, n_max, max_degree=None):
    """Every usable witness of degree <= max_degree, by enumeration.

    This is the degree-box scan the saturator-generator filter replaced;
    it is kept as an independent oracle for it.  A usable witness lies in
    the global saturator and avoids every kept prime of Ass(I).
    """
    if notion == "min":
        saturator = reference_saturator_min_global(ideal, n_max)
        kept = set_minimal_primes(ideal)
    else:
        saturator = reference_saturator_ass_global(ideal, n_max)
        kept = associated_primes(ideal)
    if saturator.is_unit:
        return [ideal.ring.one()]
    if max_degree is None:
        max_degree = ideal.ring.nvars
    return [
        m
        for m in monomials_of_degree_at_most(ideal.ring, max_degree)
        if not m.is_one()
        and not any(p.contains_monomial(m) for p in kept)
        and saturator.contains(m)
    ]


class TestWitnessFromSaturatorGenerators:
    @given(
        proper3,
        st.sampled_from(NOTIONS),
        st.sampled_from([2, 3, 4]),
        st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_the_enumeration_oracle(self, i, notion, n_max, max_degree):
        oracle = reference_witness_candidates(i, notion, n_max, max_degree)
        minimal = [
            m for m in oracle if not any(d != m and d.divides(m) for d in oracle)
        ]
        candidates = regular_witness_candidates(i, notion, n_max, max_degree)
        assert candidates == minimal
        assert all(any(g.divides(m) for g in candidates) for m in oracle)
        witness = regular_witness(i, notion, n_max, max_degree)
        assert witness == (oracle[0] if oracle else None)

    @given(proper3, st.sampled_from([2, 3, 4]))
    @settings(max_examples=40, deadline=None)
    def test_ass_witness_is_one_or_missing(self, i, n_max):
        # supp Ass(I) = supp I, and every saturator generator lives there.
        witness = regular_witness(i, "ass", n_max)
        if saturator_ass_global(i, n_max).is_unit:
            assert witness.is_one()
        else:
            assert witness is None

    def test_no_degree_box_is_enumerated(self, monkeypatch):
        def refuse(ring, limit):
            raise AssertionError("degree-box enumeration")

        # Catch a name imported into ``powers`` itself.
        monkeypatch.setattr(powers, "monomials_of_degree_at_most", refuse, raising=False)
        i = ideal(A, "a^2, a*b")
        assert regular_witness(i, "min") == A.monomial((0, 1))
        assert regular_witness_candidates(i, "min") == [A.monomial((0, 1))]

    def test_twelve_variable_sum(self):
        i = ideal(R12, "a^2, a*b, c^2, c*d, e^2, e*f, g^2, g*h, i^2, i*j, k^2, k*l")
        decomposition._irredundant.cache_clear()
        started = time.monotonic()
        assert str(regular_witness(i, "min", 2)) == "b*d*f*h*j*l"
        assert regular_witness(i, "ass", 2).is_one()
        assert time.monotonic() - started < 5


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
        if new is symbolic_ass and s < 0:
            # "ass" reads Ass(I) before I^s, as "min" does, so it fails
            # with the ideal's own error, not "negative ideal power".
            reference = reference_symbolic_min
        for i in (MonomialIdeal.zero(XY), MonomialIdeal.unit(XY)):
            assert outcome(new, i, s) == outcome(reference, i, s)

    @pytest.mark.parametrize("s", [-1, 0, 1, 2])
    def test_both_notions_fail_alike_on_zero_and_unit_ideals(self, s):
        for i in (MonomialIdeal.zero(XY), MonomialIdeal.unit(XY)):
            assert outcome(symbolic_ass, i, s) == outcome(symbolic_min, i, s)

    @given(proper3)
    @settings(max_examples=80, deadline=None)
    def test_shared_rules_match_the_set_definitions(self, i):
        assert minimal_primes(i) == set_minimal_primes(i)
        zero = set_grade_zero(i)
        for mask in range(1, 1 << R3.nvars):
            p = MonomialPrime(R3, tuple(v for v in range(R3.nvars) if mask >> v & 1))
            assert grade_zero(p, i) == zero(p)

    def test_ass_notion_reads_ass_once(self, monkeypatch):
        # The kept rule reads the supports of Ass(I) from the components of
        # I, once, and builds no prime through associated_primes.
        primes, components = [], []
        real_primes, real_components = decomposition.associated_primes, decomposition._components

        def counted_primes(i):
            primes.append(i)
            return real_primes(i)

        def counted_components(i):
            components.append(i)
            return real_components(i)

        monkeypatch.setattr(decomposition, "associated_primes", counted_primes)
        monkeypatch.setattr(powers, "associated_primes", counted_primes)
        monkeypatch.setattr(decomposition, "_components", counted_components)
        i = ideal(R3, "x^2*y, y*z^3, x*z")
        assert len(irreducible_decomposition(ideal_power(i, 3))) > 1
        symbolic_ass(i, 3)
        assert primes == []
        assert [c for c in components if c == i] == [i]

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
    def test_route_consistency_computes_it_once(self, monkeypatch, notion):
        # the stability flag, the global saturator and the witness search
        # share one call
        i = ideal(R3, "x^2, x*y, y*z^2")
        calls = self.count_calls(monkeypatch)
        ok, counters = fuzz.symbolic_route_consistency(i, 2, notion, 4)
        assert ok
        assert len(calls) == 1


@given(proper3, st.sampled_from(NOTIONS), st.integers(1, 3))
@example(ideal(R3, "x^2, x*y, x*z"), "min", 2)  # both y and z are usable
@settings(max_examples=40, deadline=None)
def test_route_consistency_uses_the_regular_witness(i, notion, s):
    # the only principal ideal route consistency builds is the witness's
    used = []

    def spied(m):
        used.append(m)
        return principal(m)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fuzz, "principal", spied)
        ok, counters = fuzz.symbolic_route_consistency(i, s, notion, 4)
    assert ok
    witness = regular_witness(i, notion, 4)
    assert used == ([] if witness is None else [witness])
    assert counters["witness_checked"] == len(used)


# Counts the exponent tuples handed to core._antichain while the saturator
# of a principal ideal intersects seven primes, none of them minimal.
SATURATOR_PROBE = """
from idealkit import core, powers
from idealkit.core import MonomialIdeal, MonomialPrime, Ring

given = 0
antichain = core._antichain


def counted(exps):
    global given
    given += len(exps)
    return antichain(exps)


core._antichain = counted
R = Ring.of("a", "b", "c", "d", "e")
i = MonomialIdeal.parse(R, "a*b*c*d*e")
supports = [(0, 1), (2, 3), (0, 2), (1, 3), (0, 4), (1, 2, 4), (3, 4)]
primes = frozenset(MonomialPrime(R, s) for s in supports)
print(powers._saturator(i, primes, "min"), given)
"""


class TestSaturatorOrder:
    def test_intermediate_sizes_do_not_follow_string_hashing(self):
        # Intersecting the primes in frozenset order gave 59, 60 and 60
        # tuples under these three hash seeds.
        src = os.path.dirname(os.path.dirname(idealkit.__file__))
        outputs = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", SATURATOR_PROBE],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.add(run.stdout)
        assert len(outputs) == 1
        assert outputs.pop().startswith("(a*b*d, a*c*d, a*d*e, b*c*e) ")


MEMOS = (
    (powers._saturated, core._MEMO_SIZE),
    (powers._symbolic_direct, core._MEMO_SIZE),
)


def raised(fn, *args):
    """The type and message of what fn(*args) raised; fails if it returned."""
    with pytest.raises((ValueError, TypeError)) as info:
        fn(*args)
    return info.type, str(info.value)


class TestMemoContract:
    """Saturated and symbolic powers are bounded memos; an Ass* union is
    read from the memoised powers and decompositions."""

    def test_bounds_are_the_documented_constants(self):
        for memo, size in MEMOS:
            assert memo.cache_info().maxsize == size == 1024

    def test_every_memo_takes_the_one_policy(self):
        # Declared once, as core._memo: bounded and typed, so a float s never
        # reads the entry of the equal int.
        policy = {"maxsize": core._MEMO_SIZE, "typed": True}
        found = {
            f"{memo.__module__}.{memo.__qualname__}": memo.cache_parameters()
            for memo in idealkit_memos()
        }
        names = [
            "idealkit.core._power",
            "idealkit.core._pieces",
            "idealkit.decomposition._irredundant",
            "idealkit.powers._saturated",
            "idealkit.powers._symbolic_direct",
            "idealkit.binomial.join_rings",
            "idealkit.dsl._variables",
            "idealkit.homology._collapse_core",
            "idealkit.homology._core_homology",
        ]
        assert found == dict.fromkeys(names, policy)

    def test_public_names_stay_plain_functions(self):
        for name in ("saturated_power", "symbolic_power", "ass_star_bounded"):
            assert inspect.isfunction(getattr(idealkit, name))

    @given(proper3, st.one_of(st.just(MonomialIdeal.unit(R3)), proper3), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_cold_and_warm_match_the_uncached_bodies(self, i, k, s):
        for memo, _ in MEMOS:
            memo.cache_clear()
        for notion in NOTIONS:
            body = powers._symbolic_direct.__wrapped__(i, s, notion)
            assert symbolic_power(i, s, notion) == body
            assert symbolic_power(i, s, notion) == body
        body = powers._saturated.__wrapped__(i, k, s)
        assert saturated_power(i, k, s) == body
        assert saturated_power(i, k, s) == body

    @given(proper3, st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_union_matches_a_test_local_union(self, i, n_max):
        for memo in idealkit_memos():
            memo.cache_clear()
        per_power = [associated_primes(ideal_power(i, n)) for n in range(1, n_max + 1)]
        union, stabilized = ass_star_bounded(i, n_max)
        assert union == frozenset().union(*per_power)
        assert stabilized == (per_power[-2] == per_power[-1])

    def test_bad_arguments_fail_alike_cold_and_warm(self):
        i = ideal(R3, "x^2, x*y, y*z^2")
        k = ideal(R3, "x, y, z")
        zero, unit = MonomialIdeal.zero(R3), MonomialIdeal.unit(R3)
        bad = [(symbolic_power, j, 2, notion) for j in (zero, unit) for notion in NOTIONS]
        bad += [(symbolic_power, i, -1, notion) for notion in NOTIONS]
        bad += [(symbolic_power, i, 2, "max"), (symbolic_power, i, 2.0, "min")]
        bad += [(saturated_power, zero, k, 2), (saturated_power, i, zero, 2)]
        bad += [(saturated_power, i, k, -1), (saturated_power, i, k, 2.0)]
        bad += [(ass_star_bounded, zero), (ass_star_bounded, unit)]
        bad += [(ass_star_bounded, i, n) for n in (1, 0, -3, 2.0)]
        cold = [raised(*call) for call in bad]
        # Fill each memo with the valid neighbours of the bad calls.
        for notion in NOTIONS:
            symbolic_power(i, 2, notion)
        saturated_power(i, k, 2)
        ass_star_bounded(i, 2)
        sizes = [memo.cache_info().currsize for memo, _ in MEMOS]
        assert [raised(*call) for call in bad] == cold
        assert [memo.cache_info().currsize for memo, _ in MEMOS] == sizes

    def test_concurrent_use_matches_serial(self):
        rnd = random.Random(11)
        cases = []
        for _ in range(40):
            gens = [tuple(rnd.randint(0, 3) for _ in range(3)) for _ in range(rnd.randint(1, 4))]
            i = MonomialIdeal(R3, tuple(R3.monomial(g) for g in gens))
            if not i.is_unit:
                cases.append((i, rnd.randint(0, 3), rnd.choice(NOTIONS)))
        # More distinct symbolic powers than the memo holds, so threads also evict.
        cases += [
            (ideal(XY, f"x^{a}, x*y, y^{b}"), 1, notion)
            for a in range(2, 25)
            for b in range(2, 25)
            for notion in NOTIONS
        ]

        def compute(i, s, notion):
            return (
                symbolic_power(i, s, notion),
                saturated_power(i, core.radical(i), s),
                ass_star_bounded(i, s + 2),
            )

        serial = [compute(*case) for case in cases]
        for memo, _ in MEMOS:
            memo.cache_clear()
        results = [None] * 4

        def work(k):
            order = list(range(len(cases)))
            random.Random(k).shuffle(order)
            found = [None] * len(cases)
            for n in order:
                found[n] = compute(*cases[n])
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


class TestAssociatedPrimes:
    @given(proper3, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_reads_the_irredundant_memo(self, i, s):
        # Ass is read from the memoised supports, not from built components.
        power = ideal_power(i, s)
        expected = frozenset(c.radical() for c in irreducible_decomposition(power))

        def forbidden(ideal):
            raise AssertionError("associated_primes built the components")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(decomposition, "irreducible_decomposition", forbidden)
            assert associated_primes(power) == expected


# The decomposition route as it was before the kept rule read support
# bitmasks: every component of I^s is built and filtered, and the kept ones
# are intersected as ideals by ``intersect_all``, not by the kernel's fold.
# It spells out its notion instead of asking ``powers._kept``.
def reference_symbolic_direct(ideal, s, notion):
    if s == 0:
        return MonomialIdeal.unit(ideal.ring)
    if notion == "min":
        kept = set_minimal_primes(ideal).__contains__
    else:
        ass = associated_primes(ideal)
        kept = lambda p: any(set(p.support) <= set(q.support) for q in ass)  # noqa: E731
    components = irreducible_decomposition(ideal_power(ideal, s))
    return intersect_all(ideal.ring, [c.as_ideal() for c in components if kept(c.radical())])


def with_embedded_prime(ring, u, v, others=()):
    """Ideals u^p * (u^a, v^b, m), m != 1, over the variables u, v and ``others``.

    (u) is a minimal prime, and every prime of Ass(u^a, v^b, m), which
    holds (u, v), is embedded: it is associated to I through I : u^p.
    So the two notions differ, already at s = 1.
    """
    variables = (u, v) + tuple(others)

    def mono(pairs):
        exps = [0] * ring.nvars
        for i, e in pairs:
            exps[i] = e
        return ring.monomial(exps)

    def build(p, a, b, extra):
        gens = (mono([(u, a)]), mono([(v, b)]), mono(zip(variables, extra)))
        return MonomialIdeal(ring, tuple(mono([(u, p)]) * g for g in gens))

    return st.builds(
        build,
        st.integers(1, 2),
        st.integers(1, 2),
        st.integers(1, 2),
        st.tuples(*(st.integers(0, 2) for _ in variables)).filter(any),
    )


def summand_over(ring, variables):
    """Proper ideals generated in ``variables`` only."""

    def build(exps):
        gens = []
        for e in exps:
            full = [0] * ring.nvars
            for i, x in zip(variables, e):
                full[i] = x
            gens.append(ring.monomial(full))
        return MonomialIdeal(ring, tuple(gens))

    tuples = st.tuples(*(st.integers(0, 2) for _ in variables))
    return st.lists(tuples, min_size=1, max_size=3).map(build).filter(lambda i: not i.is_unit)


def principal_over(ring, variables):
    """Principal ideals (g), g != 1, generated in ``variables`` only."""

    def build(exps):
        full = [0] * ring.nvars
        for i, x in zip(variables, exps):
            full[i] = x
        return MonomialIdeal(ring, (ring.monomial(full),))

    return st.tuples(*(st.integers(0, 3) for _ in variables)).filter(any).map(build)


R6 = Ring.of("a", "b", "c", "d", "e", "f")
PATHOLOGICAL = ideal(R12, PATHOLOGICAL_TEXT)


class TestDirectRoute:
    """``_symbolic_direct`` reads supports as bitmasks and folds each kept
    component once."""

    @given(
        st.one_of(proper3, with_embedded_prime(R3, 0, 1, (2,)), with_embedded_prime(R3, 2, 0)),
        st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_reference(self, i, s):
        for notion in NOTIONS:
            assert powers._symbolic_direct(i, s, notion) == reference_symbolic_direct(
                i, s, notion
            )

    @given(with_embedded_prime(R3, 0, 1, (2,)))
    @settings(max_examples=20, deadline=None)
    def test_embedded_draws_tell_the_notions_apart(self, i):
        assert associated_primes(i) != minimal_primes(i)
        assert powers._symbolic_direct(i, 1, "min") != powers._symbolic_direct(i, 1, "ass")

    def test_ass_keeps_a_new_prime_inside_an_associated_one(self):
        # (x, z, t) is associated to I^2, not to I, and lies in (x, y, z, t).
        i = ideal(R4, "x^2, z*t, x*t^2, x*y^2*t")
        new = core.MonomialPrime.of_names(R4, "x", "z", "t")
        assert new in associated_primes(ideal_power(i, 2))
        assert new not in associated_primes(i)
        assert powers._symbolic_direct(i, 2, "ass") == reference_symbolic_direct(i, 2, "ass")
        assert saturator_ass(i, 2) == reference_saturator_ass(i, 2)

    @staticmethod
    def count_meets(monkeypatch, i, s):
        """Count the kernel calls of the symbolic folds of I^s, each checked,
        through a test-local unpack, against the tuple kernel.  The
        decompositions of I and I^s are read first, so that their own
        Alexander-dual folds are not counted."""
        decomposition._components(i)
        decomposition._components(ideal_power(i, s))
        calls = []
        real = decomposition._meet
        nvars = i.ring.nvars

        def counted(gens, component, guard):
            w = (guard & -guard).bit_length()
            powers = unpack_powers(component, nvars, w)
            result = real(gens, component, guard)
            assert [unpack(u, nvars, w) for u in result] == tuple_meet(
                [unpack(g, nvars, w) for g in gens], powers
            )
            calls.append(powers)
            return result

        monkeypatch.setattr(decomposition, "_meet", counted)
        return calls

    @pytest.mark.parametrize(
        "text, notion", [("x^2, x*y", "ass"), ("x*y, y*z", "min"), ("x*y, y*z", "ass")]
    )
    def test_all_kept_is_the_power_with_no_fold(self, monkeypatch, text, notion):
        i = ideal(R3, text)
        calls = self.count_meets(monkeypatch, i, 3)
        assert powers._symbolic_direct(i, 3, notion) == ideal_power(i, 3)
        assert calls == []

    def test_ass_folds_only_what_min_does_not_keep(self, monkeypatch):
        # Of the 6 components of I^2, "min" keeps 3 and "ass" keeps 5.
        i = ideal(R3, "x^2*z, x*z^3, x^2*y^3")
        calls = self.count_meets(monkeypatch, i, 2)
        minimal = powers._symbolic_direct(i, 2, "min")
        assert len(calls) == 3
        assert powers._symbolic_direct(i, 2, "ass") == reference_symbolic_direct(i, 2, "ass")
        assert len(calls) == 3 + 2
        assert minimal == reference_symbolic_direct(i, 2, "min")

    def test_ass_with_nothing_beyond_min_is_the_min_power_with_no_fold(self, monkeypatch):
        # The triangle's square has the embedded prime (x, y, z), which lies
        # in no prime of Ass(I): "ass" keeps the 3 minimal components alone.
        i = ideal(R3, "x*y, y*z, x*z")
        powers._symbolic_direct.cache_clear()
        minimal = powers._symbolic_direct(i, 2, "min")
        assert minimal != ideal_power(i, 2)
        folds = []
        real = powers._fold
        monkeypatch.setattr(powers, "_fold", lambda *args: folds.append(args) or real(*args))
        assert powers._symbolic_direct(i, 2, "ass") is minimal
        assert folds == []
        assert minimal == reference_symbolic_direct(i, 2, "ass")


class TestSummands:
    def test_pathological_ideal_splits_in_four(self):
        parts = decomposition._summands(PATHOLOGICAL)
        assert [str(p) for p in parts] == [
            "(e*f)",
            "(g*h)",
            "(a^2*b, a*b*c, c^2*d)",
            "(i*j*k*l)",
        ]
        assert reduce(core.ideal_sum, parts) == PATHOLOGICAL

    def test_connected_zero_and_unit_ideals(self):
        i = ideal(R3, "x^2, x*y, y*z^2")
        assert decomposition._summands(i)[0] is i
        assert decomposition._summands(MonomialIdeal.zero(R3)) == []
        assert decomposition._summands(MonomialIdeal.unit(R3)) == [MonomialIdeal.unit(R3)]


def pairwise_binomial_sum(ring, side_a, side_b):
    """The sum of side_a[t] * side_b[n - t], t = 0..n, one term at a time."""
    n = len(side_a) - 1
    terms = [core.ideal_product(side_a[t], side_b[n - t]) for t in range(n + 1)]
    return reduce(core.ideal_sum, terms, MonomialIdeal.zero(ring))


ideals3 = st.one_of(st.just(MonomialIdeal.zero(R3)), st.just(MonomialIdeal.unit(R3)), proper3)
equal_length_sides = st.integers(0, 4).flatmap(
    lambda n: st.tuples(*(st.lists(ideals3, min_size=n, max_size=n) for _ in "ab"))
)


class TestBinomialSum:
    """``_binomial_sum`` forms every sum of products A_t B_(n-t)."""

    @given(equal_length_sides)
    @example(([], []))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_pairwise_sum(self, sides):
        side_a, side_b = sides
        assert powers._binomial_sum(R3, side_a, side_b) == pairwise_binomial_sum(
            R3, side_a, side_b
        )

    def test_canonicalises_once(self, monkeypatch):
        side_a = [MonomialIdeal.unit(R3), ideal(R3, "x, y^2"), ideal(R3, "x^2, x*y")]
        side_b = [MonomialIdeal.unit(R3), ideal(R3, "z^2"), ideal(R3, "z^3, y*z")]
        calls = []
        real = core._antichain
        monkeypatch.setattr(core, "_antichain", lambda exps: calls.append(1) or real(exps))
        total = powers._binomial_sum(R3, side_a, side_b)
        assert calls == [1]
        # y^2*z^2 from the middle term lies in (y*z) from the first.
        assert str(total) == "(x^2, x*y, y*z, x*z^2, z^3)"


two_or_three_summands = st.one_of(
    st.tuples(with_embedded_prime(R6, 0, 1), summand_over(R6, (2, 3, 4))),
    st.tuples(
        with_embedded_prime(R6, 1, 0),
        summand_over(R6, (2, 3)),
        summand_over(R6, (4, 5)),
    ),
)


with_a_principal_summand = st.one_of(
    st.tuples(with_embedded_prime(R6, 0, 1), principal_over(R6, (2, 3, 4))),
    st.tuples(
        principal_over(R6, (0, 1)),
        summand_over(R6, (2, 3)),
        principal_over(R6, (4, 5)),
    ),
)


class TestSplitFastPath:
    """``symbolic_power`` expands a split ideal by the binomial formula."""

    @given(with_a_principal_summand, st.sampled_from(NOTIONS), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_principal_summands_match_the_direct_route(self, parts, notion, s):
        total = reduce(core.ideal_sum, parts)
        assert len(decomposition._summands(total)) >= len(parts)
        assert symbolic_power(total, s, notion) == powers._symbolic_direct(total, s, notion)

    @pytest.mark.parametrize("notion", NOTIONS)
    def test_principal_summands_are_not_decomposed(self, monkeypatch, notion):
        # (c*d) and (e^2*f) are principal: their powers are their symbolic powers.
        i = ideal(R6, "a^2, a*b, c*d, e^2*f")
        asked = []
        real = powers._symbolic_direct

        def counted(part, t, kind):
            asked.append(part)
            return real(part, t, kind)

        monkeypatch.setattr(powers, "_symbolic_direct", counted)
        result = symbolic_power(i, 3, notion)
        assert asked == [ideal(R6, "a^2, a*b")] * 4
        monkeypatch.undo()
        assert result == powers._symbolic_direct(i, 3, notion)

    @given(two_or_three_summands, st.sampled_from(NOTIONS), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_direct_route(self, parts, notion, s):
        total = reduce(core.ideal_sum, parts)
        assert len(decomposition._summands(total)) >= len(parts)
        fast = symbolic_power(total, s, notion)
        # The result is the fast path's, which keeps no memo of its own.
        assert fast == powers._symbolic_split(decomposition._summands(total), s, notion)
        assert fast == powers._symbolic_direct(total, s, notion)

    @pytest.mark.parametrize("s", [1, 2])
    def test_pathological_ideal(self, s):
        for notion in NOTIONS:
            assert symbolic_power(PATHOLOGICAL, s, notion) == powers._symbolic_direct(
                PATHOLOGICAL, s, notion
            )

    @pytest.mark.parametrize("notion", NOTIONS)
    def test_pathological_ideal_at_six(self, notion):
        # Fold the summands' direct-route powers with the pairwise sum.
        ring, s = PATHOLOGICAL.ring, 6
        parts = [
            [powers._symbolic_direct(part, t, notion) for t in range(s + 1)]
            for part in decomposition._summands(PATHOLOGICAL)
        ]
        sums = parts[0]
        for part in parts[1:]:
            sums = [
                pairwise_binomial_sum(ring, sums[: t + 1], part[: t + 1]) for t in range(s + 1)
            ]
        fast = symbolic_power(PATHOLOGICAL, s, notion)
        assert len(fast.generators) == 462
        assert fast == sums[s]

    @pytest.mark.parametrize("notion", NOTIONS)
    def test_every_summand_order_gives_the_same_ideal(self, notion):
        expected = powers._symbolic_direct(PATHOLOGICAL, 3, notion)
        orders = list(itertools.permutations(decomposition._summands(PATHOLOGICAL)))
        assert len(orders) == 24
        for order in orders:
            assert powers._symbolic_split(list(order), 3, notion) == expected

    @pytest.mark.parametrize("notion", NOTIONS)
    def test_the_largest_summand_folds_last(self, monkeypatch, notion):
        # _summands lists (a^2*b, a*b*c, c^2*d) third of four; its powers
        # are the largest, so they enter only the last of the three folds.
        folds = []
        real = powers._binomial_sum

        def recorded(ring, side_a, side_b):
            folds.append(side_b[-1])
            return real(ring, side_a, side_b)

        monkeypatch.setattr(powers, "_binomial_sum", recorded)
        powers._symbolic_split(decomposition._summands(PATHOLOGICAL), 3, notion)
        part = ideal(PATHOLOGICAL.ring, "a^2*b, a*b*c, c^2*d")
        largest = powers._symbolic_direct(part, 3, notion)
        assert folds[-1] == largest
        assert folds.count(largest) == 1

    @pytest.mark.parametrize("notion", NOTIONS)
    def test_one_summand_split_per_call(self, monkeypatch, notion):
        # symbolic_power splits the ideal to choose the route and hands the
        # summands to the fast path, which does not split again.
        split = []
        real = powers._summands

        def counted(ideal):
            split.append(ideal)
            return real(ideal)

        monkeypatch.setattr(powers, "_summands", counted)
        fast = symbolic_power(PATHOLOGICAL, 2, notion)
        assert split == [PATHOLOGICAL]
        monkeypatch.undo()
        assert fast == powers._symbolic_direct(PATHOLOGICAL, 2, notion)

    def test_direct_memo_holds_only_direct_results(self):
        i = ideal(R6, "a^2, a*b, c^2, c*d")
        for notion in NOTIONS:
            symbolic_power(i, 3, notion)
        # The direct memo holds the 2 summands' powers t = 0..3 in both
        # notions, and never the sum's.
        assert powers._symbolic_direct.cache_info().currsize == 2 * 4 * 2
        assert powers._symbolic_direct(i, 3, "min") == symbolic_min(i, 3)
        assert powers._symbolic_direct.cache_info().currsize == 2 * 4 * 2 + 1

    @pytest.mark.parametrize("s", [0, -1, 2.0, True])
    def test_other_powers_take_the_direct_route(self, monkeypatch, s):
        def result(fn):
            try:
                return fn(i, s, notion)
            except (ValueError, TypeError) as exc:
                return type(exc), str(exc)

        def refuse(*args):
            raise AssertionError(f"the fast path was taken for s = {s!r}")

        monkeypatch.setattr(powers, "_symbolic_split", refuse)
        i = ideal(R6, "a^2, a*b, c*d")
        for notion in NOTIONS:
            assert result(symbolic_power) == result(powers._symbolic_direct)
