"""Saturated powers and both notions of symbolic powers.

Both symbolic powers are saturations of I^s; the notions differ only in
the primes they keep (``_kept``): "min" keeps Min(I), "ass" keeps the
primes of grade zero on A/I.  Both rules are the support-bitmask helpers
of ``decomposition`` (``_supports``, ``_minimal``, ``_inside_some``), the
same ones ``minimal_primes`` and ``grade_zero`` use.  The decomposition
route (``_symbolic_direct``) intersects the irreducible components of I^s
over kept primes; the saturation route saturates I^s by the primes of
Ass(I^s), or of their bounded union over powers, that are not kept.  The
tests cross-check the two routes.

``symbolic_power`` adds a fast path for an ideal that splits into
summands in disjoint variables: it expands the symbolic power of the sum
by the source paper's binomial formula, (I+J)^(s) = sum over t of
I^(t) J^(s-t), from the summands' direct-route powers; it is the one
implementation of that formula, ``binomial_symbolic`` included.  It keeps
no memo of its own: those powers are memoised where they are computed.
The checks of that formula read the direct route, never the fast path.

Every sum of products A_t B_(s-t) here and in ``binomial`` is
``core._binomial_sum``, which canonicalises each sum once.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .core import (
    IdealArgumentError,
    Monomial,
    MonomialIdeal,
    MonomialPrime,
    _binomial_sum,
    _ideal,
    _memo,
    ideal_power,
    intersect_all,
    saturate,
)
from .decomposition import (
    _components,
    _fold,
    _inside_some,
    _mask,
    _minimal,
    _summands,
    _supports,
    ass_star_bounded,
    associated_primes,
)

NOTIONS = ("min", "ass")


def _require_notion(notion: str):
    if notion not in NOTIONS:
        raise ValueError(f"notion must be one of {NOTIONS}, got {notion!r}")


def _require_positive(s: int):
    if s < 1:
        raise ValueError("power must be positive")


def _kept(ideal: MonomialIdeal, notion: str):
    """The predicate on support bitmasks (``_mask``) that ``notion`` keeps.

    "min" keeps the minimal primes of I (``_minimal``); "ass" keeps the
    primes of grade zero on A/I, those inside some prime of Ass(I)
    (``_inside_some``).  Both read the supports of Ass(I) here, once.  The
    notion must already be validated.
    """
    ass = _supports(ideal)
    if notion == "min":
        return _minimal(ass).__contains__
    return lambda m: _inside_some(m, ass)


def _saturator(ideal: MonomialIdeal, primes, notion: str) -> MonomialIdeal:
    """Intersection of the ``primes`` that ``notion`` does not keep.

    The primes are intersected in ``MonomialPrime.sort_key`` order, so the
    intermediate ideals do not depend on string hashing.  An empty
    intersection is the unit ideal.
    """
    kept = _kept(ideal, notion)
    dropped = sorted(
        (p for p in primes if not kept(_mask(p.support))), key=MonomialPrime.sort_key
    )
    return intersect_all(ideal.ring, (p.as_ideal() for p in dropped))


def saturated_power(ideal: MonomialIdeal, k: MonomialIdeal, s: int) -> MonomialIdeal:
    """The s-th saturated power I^s : K^infinity.

    s = 0 is allowed and gives the unit ideal (empty product convention),
    which the binomial expansions rely on.  Memoised (``core._memo``) on
    (I, K, s).
    """
    if ideal.is_zero or k.is_zero:
        raise IdealArgumentError("saturated power needs nonzero ideals")
    return _saturated(ideal, k, s)


@_memo
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
    """Symbolic power via minimal primes (``symbolic_power``)."""
    return symbolic_power(ideal, s, "min")


def symbolic_ass(ideal: MonomialIdeal, s: int) -> MonomialIdeal:
    """Symbolic power via associated primes (``symbolic_power``)."""
    return symbolic_power(ideal, s, "ass")


def symbolic_power(ideal: MonomialIdeal, s: int, notion: str) -> MonomialIdeal:
    """Intersection of the components of I^s over kept primes; (1) at s = 0.

    An ideal that splits into summands in disjoint variables (``_summands``)
    takes the binomial fast path (``_symbolic_split``) for whole s >= 1;
    every other call is the decomposition route (``_symbolic_direct``),
    memoised (``core._memo``) on (I, s, notion); the fast path
    keeps no memo of its own.
    """
    _require_notion(notion)
    # Any other s takes the direct route, which answers or raises as it always has.
    if type(s) is int and s > 0 and len(summands := _summands(ideal)) > 1:
        return _symbolic_split(summands, s, notion)
    return _symbolic_direct(ideal, s, notion)


@_memo
def _symbolic_direct(ideal: MonomialIdeal, s: int, notion: str) -> MonomialIdeal:
    """The decomposition route to the symbolic power; the notion is valid.

    The components of I^s are read ring-free from ``_components``, with
    the support bitmasks the kept rule tests, and the kept ones are
    intersected by one packed fold (``_fold``).  When every component is
    kept, the result is I^s itself, the intersection of its irredundant
    decomposition.  Min(I) lies in Ass(I), so "ass" keeps every component
    "min" keeps, and folds only the others into the "min" power; with no
    others, the "min" power is the result.
    """
    if s == 0:
        return MonomialIdeal.unit(ideal.ring)
    keep = _kept(ideal, notion)
    power = ideal_power(ideal, s)
    components = _components(power)
    kept = [(c, m) for c, m in components if keep(m)]
    if len(kept) == len(components):
        return power
    ring = ideal.ring
    start = [(0,) * ring.nvars]
    if notion == "ass":
        in_min = _kept(ideal, "min")
        kept = [(c, m) for c, m in kept if not in_min(m)]
        min_power = _symbolic_direct(ideal, s, "min")
        if not kept:
            return min_power
        start = min_power._exps
    return _ideal(ring, _fold(ring.nvars, [c for c, _ in kept], start))


def _symbolic_split(summands: list[MonomialIdeal], s: int, notion: str) -> MonomialIdeal:
    """The symbolic power of a split ideal from its ``_summands``, by the binomial expansion.

    For I and J in disjoint variables, (I+J)^(s) is the sum over t of
    I^(t) J^(s-t), for both notions (the source paper; also Ha, Nguyen,
    Trung and Trung, Math. Z. 294 (2020)).  Folding the summands in one
    at a time, R(t) = sum over a + b = t of R(a) S(b), gives the symbolic
    power of the whole sum from the summands' direct-route powers.  A
    principal summand (g) needs no decomposition: every associated prime
    of (g^t) is minimal, so (g)^(t) = (g^t) under both notions.  Summands
    fold in increasing size of their s-th power: the largest one's powers
    multiply every product they enter, so they enter only the last fold.
    """
    parts = [
        [ideal_power(part, t) for t in range(s + 1)]
        if len(part._exps) == 1
        else [_symbolic_direct(part, t, notion) for t in range(s + 1)]
        for part in summands
    ]
    parts.sort(key=lambda powers: len(powers[-1]._exps))
    ring, sums = summands[0].ring, parts[0]
    for powers in parts[1:-1]:
        sums = [_binomial_sum(ring, sums[: t + 1], powers[: t + 1]) for t in range(s + 1)]
    return _binomial_sum(ring, sums, parts[-1])


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
    star, _ = ass_star_bounded(ideal, n_max)
    return _witnesses(ideal, _saturator(ideal, star, notion), notion, max_degree)


def _witnesses(ideal: MonomialIdeal, saturator, notion: str, max_degree=None) -> list[Monomial]:
    """``regular_witness_candidates`` from the global ``saturator`` in hand:
    its generators that avoid the kept primes of Ass(I), or [1] if it is (1).
    The avoided variables are the OR of the kept supports."""
    if saturator.is_unit:
        return [ideal.ring.one()]
    avoided = reduce(or_, filter(_kept(ideal, notion), _supports(ideal)), 0)
    return [
        g
        for g in saturator.generators
        if not _mask(g.support()) & avoided
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
