"""Saturated powers and both notions of symbolic powers.

Both symbolic powers are saturations of I^s; the notions differ only in
the primes they keep (``_kept``): "min" keeps Min(I), "ass" keeps the
primes of grade zero on A/I.  The decomposition route intersects the
irreducible components of I^s over kept primes; the saturation route
saturates I^s by the primes of Ass(I^s), or of their bounded union over
powers, that are not kept.  The tests cross-check the two routes.
"""

from __future__ import annotations

from functools import cache, lru_cache, reduce

from .core import (
    IdealArgumentError,
    Monomial,
    MonomialIdeal,
    MonomialPrime,
    _ideal,
    ideal_power,
    intersect_all,
    saturate,
)
from .decomposition import (
    _in_some,
    _meet,
    ass_star_bounded,
    associated_primes,
    default_power_bound,
    irreducible_decomposition,
    minimal_primes,
)

NOTIONS = ("min", "ass")


def _require_notion(notion: str):
    if notion not in NOTIONS:
        raise ValueError(f"notion must be one of {NOTIONS}, got {notion!r}")


def _require_positive(s: int):
    if s < 1:
        raise ValueError("power must be positive")


def _kept(ideal: MonomialIdeal, notion: str):
    """The predicate on primes that ``notion`` keeps for ``ideal``.

    "min" keeps the minimal primes of I; "ass" keeps the primes of grade
    zero on A/I, read from Ass(I) once, on the first test.  The notion
    must already be validated.
    """
    if notion == "min":
        return minimal_primes(ideal).__contains__
    ass = cache(lambda: associated_primes(ideal))
    return lambda p: _in_some(p, ass())


def _saturator(ideal: MonomialIdeal, primes, notion: str) -> MonomialIdeal:
    """Intersection of the ``primes`` that ``notion`` does not keep.

    The primes are intersected in ``MonomialPrime.sort_key`` order, so the
    intermediate ideals do not depend on string hashing.  An empty
    intersection is the unit ideal.
    """
    kept = _kept(ideal, notion)
    dropped = sorted((p for p in primes if not kept(p)), key=MonomialPrime.sort_key)
    return intersect_all(ideal.ring, (p.as_ideal() for p in dropped))


_SATURATED_MEMO_SIZE = 1024
_SYMBOLIC_MEMO_SIZE = 1024


def saturated_power(ideal: MonomialIdeal, k: MonomialIdeal, s: int) -> MonomialIdeal:
    """The s-th saturated power I^s : K^infinity.

    s = 0 is allowed and gives the unit ideal (empty product convention),
    which the binomial expansions rely on.  Memoised for the last 1024
    distinct (I, K, s).
    """
    if ideal.is_zero or k.is_zero:
        raise IdealArgumentError("saturated power needs nonzero ideals")
    return _saturated(ideal, k, s)


# typed: a float s misses the entry for the equal int, and is rejected as before.
@lru_cache(maxsize=_SATURATED_MEMO_SIZE, typed=True)
def _saturated(ideal: MonomialIdeal, k: MonomialIdeal, s: int) -> MonomialIdeal:
    return saturate(ideal_power(ideal, s), k)


def saturator_min(ideal: MonomialIdeal, s: int) -> MonomialIdeal:
    """Intersection of the primes of Ass(I^s) that are not minimal over I.

    An empty intersection is the unit ideal.
    """
    _require_positive(s)
    return _saturator(ideal, associated_primes(ideal_power(ideal, s)), "min")


def saturator_min_global(
    ideal: MonomialIdeal, n_max: int | None = None
) -> MonomialIdeal:
    """Same as ``saturator_min`` but over the bounded union of Ass(I^n)."""
    return _saturator(ideal, ass_star_bounded(ideal, n_max)[0], "min")


def saturator_ass(ideal: MonomialIdeal, s: int) -> MonomialIdeal:
    """Intersection of the primes of Ass(I^s) of positive grade on A/I."""
    _require_positive(s)
    return _saturator(ideal, associated_primes(ideal_power(ideal, s)), "ass")


def saturator_ass_global(
    ideal: MonomialIdeal, n_max: int | None = None
) -> MonomialIdeal:
    return _saturator(ideal, ass_star_bounded(ideal, n_max)[0], "ass")


def symbolic_min(ideal: MonomialIdeal, s: int) -> MonomialIdeal:
    """Symbolic power via minimal primes, from the decomposition of I^s."""
    return symbolic_power(ideal, s, "min")


def symbolic_ass(ideal: MonomialIdeal, s: int) -> MonomialIdeal:
    """Symbolic power via associated primes, from the decomposition of I^s."""
    return symbolic_power(ideal, s, "ass")


def symbolic_power(ideal: MonomialIdeal, s: int, notion: str) -> MonomialIdeal:
    """Intersection of the components of I^s over kept primes; (1) at s = 0.

    Memoised for the last 1024 distinct (I, s, notion).
    """
    _require_notion(notion)
    return _symbolic_direct(ideal, s, notion)


@lru_cache(maxsize=_SYMBOLIC_MEMO_SIZE, typed=True)
def _symbolic_direct(ideal: MonomialIdeal, s: int, notion: str) -> MonomialIdeal:
    """The decomposition route to the symbolic power; the notion is valid."""
    if s == 0:
        return MonomialIdeal.unit(ideal.ring)
    kept = _kept(ideal, notion)
    components = irreducible_decomposition(ideal_power(ideal, s))
    powers = (c.powers for c in components if kept(c.radical()))
    return _ideal(ideal.ring, reduce(_meet, powers, [(0,) * ideal.ring.nvars]))


def regular_witness_candidates(
    ideal: MonomialIdeal,
    notion: str = "min",
    n_max: int | None = None,
    max_degree: int | None = None,
) -> list[Monomial]:
    """The least monomials usable as the single saturating element.

    A usable monomial lies in the global saturator and avoids every kept
    prime of Ass(I): every minimal prime (notion "min": regular on A over
    the radical) or every associated prime (notion "ass": regular on A/I).
    The result lists the divisibility-minimal usable monomials of degree
    at most ``max_degree``, in canonical order; every usable monomial of
    such degree is a multiple of one of them.  The unit monomial is the
    sole candidate when there is nothing to saturate away.

    They are the saturator's generators that avoid the kept primes.  The
    saturator is an intersection of monomial primes, so it is squarefree.
    A monomial m lies in it iff some generator g divides m; then
    supp g is inside supp m, so g avoids the kept variables too, and
    deg g <= deg m with equality only when g = m.  So the usable monomials
    are exactly the multiples of these generators, and the least of them
    in ``Monomial.sort_key`` order, which is the canonical generator order,
    is a generator.
    """
    _require_notion(notion)
    if n_max is None:
        n_max = default_power_bound(ideal)
    star, _ = ass_star_bounded(ideal, n_max)
    return _witnesses(ideal, _saturator(ideal, star, notion), notion, max_degree)


def _witnesses(ideal: MonomialIdeal, saturator, notion: str, max_degree=None) -> list[Monomial]:
    """``regular_witness_candidates`` from the global ``saturator`` in hand:
    its generators that avoid the kept primes of Ass(I), or [1] if it is (1)."""
    if saturator.is_unit:
        return [ideal.ring.one()]
    kept = _kept(ideal, notion)
    avoided = {i for p in associated_primes(ideal) if kept(p) for i in p.support}
    return [
        g
        for g in saturator.generators
        if not any(g.exponents[i] for i in avoided)
        and (max_degree is None or g.degree() <= max_degree)
    ]


def regular_witness(
    ideal: MonomialIdeal,
    notion: str = "min",
    n_max: int | None = None,
    max_degree: int | None = None,
) -> Monomial | None:
    """First witness from ``regular_witness_candidates``, or None.

    This is the least saturator generator that avoids the kept primes.  A
    monomial witness need not exist even when the saturator is proper; the
    ideal saturators are the primary code path.
    """
    candidates = regular_witness_candidates(ideal, notion, n_max, max_degree)
    return candidates[0] if candidates else None
