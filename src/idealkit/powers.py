"""Saturated powers and both notions of symbolic powers.

The minimal-primes notion intersects the components of I^s lying over
minimal primes of I; the associated-primes notion keeps the components
whose prime is contained in an associated prime of I.  Both are also
saturations of I^s by suitable saturator ideals, which this module
constructs; the test suite cross-checks the two routes against each other.
"""

from __future__ import annotations

from .core import (
    IdealArgumentError,
    Monomial,
    MonomialIdeal,
    ideal_power,
    intersect_all,
    monomials_of_degree_at_most,
    saturate,
)
from .decomposition import (
    ass_star_bounded,
    associated_primes,
    default_power_bound,
    grade_zero,
    minimal_primes,
    primary_decomposition,
)

NOTIONS = ("min", "ass")


def _require_notion(notion: str):
    if notion not in NOTIONS:
        raise ValueError(f"notion must be one of {NOTIONS}, got {notion!r}")


def _require_positive(s: int):
    if s < 1:
        raise ValueError("power must be positive")


def saturated_power(ideal: MonomialIdeal, k: MonomialIdeal, s: int) -> MonomialIdeal:
    """The s-th saturated power I^s : K^infinity.

    s = 0 is allowed and gives the unit ideal (empty product convention),
    which the binomial expansions rely on.
    """
    if ideal.is_zero or k.is_zero:
        raise IdealArgumentError("saturated power needs nonzero ideals")
    return saturate(ideal_power(ideal, s), k)


def saturator_min(ideal: MonomialIdeal, s: int) -> MonomialIdeal:
    """Intersection of the primes of Ass(I^s) that are not minimal over I.

    An empty intersection is the unit ideal.
    """
    _require_positive(s)
    mins = minimal_primes(ideal)
    embedded = [
        p for p in associated_primes(ideal_power(ideal, s)) if p not in mins
    ]
    return intersect_all(ideal.ring, (p.as_ideal() for p in embedded))


def saturator_min_global(
    ideal: MonomialIdeal, n_max: int | None = None
) -> MonomialIdeal:
    """Same as ``saturator_min`` but over the bounded union of Ass(I^n)."""
    star, _ = ass_star_bounded(ideal, n_max)
    mins = minimal_primes(ideal)
    return intersect_all(
        ideal.ring, (p.as_ideal() for p in star if p not in mins)
    )


def saturator_ass(ideal: MonomialIdeal, s: int) -> MonomialIdeal:
    """Intersection of the primes of Ass(I^s) of positive grade on A/I."""
    _require_positive(s)
    keep = [
        p
        for p in associated_primes(ideal_power(ideal, s))
        if not grade_zero(p, ideal)
    ]
    return intersect_all(ideal.ring, (p.as_ideal() for p in keep))


def saturator_ass_global(
    ideal: MonomialIdeal, n_max: int | None = None
) -> MonomialIdeal:
    star, _ = ass_star_bounded(ideal, n_max)
    keep = [p for p in star if not grade_zero(p, ideal)]
    return intersect_all(ideal.ring, (p.as_ideal() for p in keep))


def symbolic_min(ideal: MonomialIdeal, s: int) -> MonomialIdeal:
    """Symbolic power via minimal primes, from the decomposition of I^s."""
    if s == 0:
        return MonomialIdeal.unit(ideal.ring)
    mins = minimal_primes(ideal)
    decomposition = primary_decomposition(ideal_power(ideal, s))
    return intersect_all(
        ideal.ring, (q for p, q in decomposition if p in mins)
    )


def symbolic_ass(ideal: MonomialIdeal, s: int) -> MonomialIdeal:
    """Symbolic power via associated primes, from the decomposition of I^s."""
    if s == 0:
        return MonomialIdeal.unit(ideal.ring)
    decomposition = primary_decomposition(ideal_power(ideal, s))
    return intersect_all(
        ideal.ring, (q for p, q in decomposition if grade_zero(p, ideal))
    )


def symbolic_power(ideal: MonomialIdeal, s: int, notion: str) -> MonomialIdeal:
    _require_notion(notion)
    return symbolic_min(ideal, s) if notion == "min" else symbolic_ass(ideal, s)


def _avoided_support(ideal: MonomialIdeal, notion: str) -> set[int]:
    if notion == "min":
        primes = minimal_primes(ideal)
    else:
        primes = associated_primes(ideal)
    return {i for p in primes for i in p.support}


def regular_witness_candidates(
    ideal: MonomialIdeal,
    notion: str = "min",
    n_max: int | None = None,
    max_degree: int | None = None,
) -> list[Monomial]:
    """Monomials usable as the single saturating element, in canonical order.

    A candidate lies in the global saturator and avoids every minimal
    prime (notion "min": regular on A over the radical) or every
    associated prime (notion "ass": regular on A/I).  The unit monomial is
    the sole candidate when there is nothing to saturate away.
    """
    _require_notion(notion)
    if n_max is None:
        n_max = default_power_bound(ideal)
    star, _ = ass_star_bounded(ideal, n_max)
    if notion == "min":
        mins = minimal_primes(ideal)
        relevant = [p for p in star if p not in mins]
    else:
        relevant = [p for p in star if not grade_zero(p, ideal)]
    if not relevant:
        return [ideal.ring.one()]
    saturator = intersect_all(ideal.ring, (p.as_ideal() for p in relevant))
    avoided = _avoided_support(ideal, notion)
    if max_degree is None:
        max_degree = ideal.ring.nvars
    out = []
    for m in monomials_of_degree_at_most(ideal.ring, max_degree):
        if m.is_one():
            continue
        if any(m.exponents[i] > 0 for i in avoided):
            continue
        if saturator.contains(m):
            out.append(m)
    return out


def regular_witness(
    ideal: MonomialIdeal,
    notion: str = "min",
    n_max: int | None = None,
    max_degree: int | None = None,
) -> Monomial | None:
    """First witness from ``regular_witness_candidates``, or None.

    A monomial witness need not exist even when the saturator is proper;
    the ideal saturators are the primary code path and this is best-effort.
    """
    candidates = regular_witness_candidates(ideal, notion, n_max, max_degree)
    return candidates[0] if candidates else None
