"""Primary structure of monomial ideals.

Irreducible decomposition by generator splitting, canonical primary
decomposition with distinct radical primes, associated and minimal primes,
a bounded approximation of the union of associated primes over all powers,
the grade-zero test against a monomial prime, and associated primes of the
consecutive power quotients I^(i-1)/I^i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import (
    IdealArgumentError,
    Monomial,
    MonomialIdeal,
    MonomialPrime,
    Ring,
    colon_monomial,
    ideal_power,
    intersect_all,
    monomials_below,
)


@dataclass(frozen=True)
class IrreducibleComponent:
    """An ideal generated by pure variable powers, as (variable index, exponent) pairs."""

    ring: Ring
    powers: tuple[tuple[int, int], ...]

    def __post_init__(self):
        powers = tuple(sorted((int(i), int(e)) for i, e in self.powers))
        if not powers:
            raise ValueError("irreducible component must be nonempty")
        if any(e < 1 for _, e in powers):
            raise ValueError(f"exponents must be positive: {powers!r}")
        if len({i for i, _ in powers}) != len(powers):
            raise ValueError(f"repeated variable in {powers!r}")
        object.__setattr__(self, "powers", powers)

    def as_ideal(self) -> MonomialIdeal:
        gens = []
        for i, e in self.powers:
            exps = [0] * self.ring.nvars
            exps[i] = e
            gens.append(Monomial(self.ring, tuple(exps)))
        return MonomialIdeal(self.ring, tuple(gens))

    def radical(self) -> MonomialPrime:
        return MonomialPrime(self.ring, tuple(i for i, _ in self.powers))

    def sort_key(self):
        return (len(self.powers), self.powers)

    def __str__(self):
        return str(self.as_ideal())


@dataclass(frozen=True)
class PrimaryDecomposition:
    """Irredundant primary decomposition keyed by distinct radical primes."""

    components: tuple[tuple[MonomialPrime, MonomialIdeal], ...]

    def primes(self) -> frozenset[MonomialPrime]:
        return frozenset(p for p, _ in self.components)

    def component(self, p: MonomialPrime) -> MonomialIdeal:
        for q, ideal in self.components:
            if q == p:
                return ideal
        raise KeyError(str(p))

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def __str__(self):
        return (
            "{"
            + ", ".join(f"{p}: {q}" for p, q in self.components)
            + "}"
        )


def _require_nonzero_proper(ideal: MonomialIdeal):
    if ideal.is_zero:
        raise IdealArgumentError("the zero ideal has no primary decomposition here")
    if ideal.is_unit:
        raise IdealArgumentError("the unit ideal has no primary decomposition")


def _split(gens: frozenset[tuple[int, ...]], memo: dict) -> frozenset:
    """Irreducible components of the ideal with minimal generators ``gens``.

    ``gens`` is a frozenset of exponent tuples and each component is a
    sorted tuple of (variable index, exponent) pairs.  The pivot is the
    first mixed generator in canonical order, and x_v^a m' = m splits into
    (I + (x_v^a)) cap (I + (m')).  Adjoining either part drops only the
    generators it divides: neither part is divisible by another generator,
    so the sets stay minimal.  ``memo`` is local to one decomposition.
    """
    cached = memo.get(gens)
    if cached is not None:
        return cached
    mixed = [g for g in gens if len(g) - g.count(0) >= 2]
    if not mixed:
        powers = []
        for g in gens:
            e = max(g)
            powers.append((g.index(e), e))
        result = frozenset({tuple(sorted(powers))})
    else:
        # Canonical order is lowest degree first, then revlex, which among
        # equal degrees is the lexicographically largest exponent tuple.
        low = min(map(sum, mixed))
        pivot = max(g for g in mixed if sum(g) == low)
        v = next(i for i, e in enumerate(pivot) if e)
        a = pivot[v]
        head = tuple(a if i == v else 0 for i in range(len(pivot)))
        tail = pivot[:v] + (0,) + pivot[v + 1:]
        left = frozenset(g for g in gens if g[v] < a) | {head}
        right = frozenset(
            g for g in gens if not all(t <= e for t, e in zip(tail, g))
        ) | {tail}
        result = _split(left, memo) | _split(right, memo)
    memo[gens] = result
    return result


@lru_cache(maxsize=1024)
def _irredundant(gens: frozenset) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Ring-free irredundant components of ``gens``, canonically sorted.

    c is kept iff it contains no other component d; only the d whose
    support lies in c's can be contained in it.
    """
    raw = sorted(_split(gens, {}), key=lambda d: (len(d), d))
    by_support: dict[int, list] = {}
    for d in raw:
        by_support.setdefault(sum(1 << i for i, _ in d), []).append(d)
    kept = []
    for c in raw:
        powers = dict(c)
        support = sum(1 << i for i in powers)
        if not any(
            d is not c and all(powers[i] <= e for i, e in d)
            for mask, group in by_support.items()
            if not mask & ~support
            for d in group
        ):
            kept.append(c)
    return tuple(kept)


def irreducible_decomposition(ideal: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """The unique irredundant set of irreducible components, canonically sorted.

    Splits the first mixed generator in canonical order (lowest degree,
    then revlex), m = x_v^a * rest with v its first variable, into
    (I + (x_v^a)) cap (I + (rest)) until all generators are pure powers.
    An irreducible component is redundant iff it contains another one, and
    c contains d iff every x_i^e of d has some x_i^a in c with a <= e, so
    pruning compares the (variable index, exponent) pairs of c with those
    of each d whose support lies in c's.  The irredundant result is
    memoised, ring-free and keyed by the generator exponent set, for the
    last 1024 distinct ideals.
    """
    _require_nonzero_proper(ideal)
    gens = frozenset(g.exponents for g in ideal.generators)
    return tuple(IrreducibleComponent(ideal.ring, c) for c in _irredundant(gens))


def primary_decomposition(ideal: MonomialIdeal) -> PrimaryDecomposition:
    """Group irreducible components by radical and intersect each group.

    Grouping an irredundant irreducible decomposition can introduce no
    redundancy: a redundant group would force one of its irreducible
    members to contain a member of another group.
    """
    components = irreducible_decomposition(ideal)
    by_prime: dict[MonomialPrime, list[MonomialIdeal]] = {}
    for c in components:
        by_prime.setdefault(c.radical(), []).append(c.as_ideal())
    pairs = []
    for prime in sorted(by_prime, key=MonomialPrime.sort_key):
        pairs.append((prime, intersect_all(ideal.ring, by_prime[prime])))
    return PrimaryDecomposition(tuple(pairs))


def associated_primes(ideal: MonomialIdeal) -> frozenset[MonomialPrime]:
    return frozenset(c.radical() for c in irreducible_decomposition(ideal))


def minimal_primes(ideal: MonomialIdeal) -> frozenset[MonomialPrime]:
    primes = associated_primes(ideal)
    return frozenset(
        p
        for p in primes
        if not any(
            q != p and set(q.support) < set(p.support) for q in primes
        )
    )


def default_power_bound(ideal: MonomialIdeal) -> int:
    """Default power cutoff for the bounded union of associated primes."""
    maxdeg = max((g.degree() for g in ideal.generators), default=1)
    return max(2, ideal.ring.nvars + maxdeg)


def ass_star_bounded(
    ideal: MonomialIdeal, n_max: int | None = None
) -> tuple[frozenset[MonomialPrime], bool]:
    """Union of Ass(I^n) for n <= n_max, plus a heuristic stabilization flag.

    The flag is true iff Ass(I^(n_max - 1)) == Ass(I^n_max); it is
    evidence, not proof, that the union has stabilized.
    """
    _require_nonzero_proper(ideal)
    if n_max is None:
        n_max = default_power_bound(ideal)
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    union: set[MonomialPrime] = set()
    previous: frozenset[MonomialPrime] = frozenset()
    current: frozenset[MonomialPrime] = frozenset()
    for n in range(1, n_max + 1):
        previous = current
        current = associated_primes(ideal_power(ideal, n))
        union |= current
    return frozenset(union), previous == current


def grade_zero(p: MonomialPrime, ideal: MonomialIdeal) -> bool:
    """True iff p is contained in some associated prime of the ideal.

    For variable-generated primes this is equivalent to grade(p, A/I) = 0
    by prime avoidance.
    """
    if not p.support:
        raise IdealArgumentError("prime with empty support")
    _require_nonzero_proper(ideal)
    return _in_some(p, associated_primes(ideal))


def _in_some(p: MonomialPrime, primes) -> bool:
    """True iff p lies in one of ``primes``; by prime avoidance, in their union."""
    target = set(p.support)
    return any(target <= set(q.support) for q in primes)


def _prime_from_variable_ideal(ideal: MonomialIdeal) -> MonomialPrime | None:
    if ideal.is_zero or ideal.is_unit:
        return None
    support = []
    for g in ideal.generators:
        if g.degree() != 1:
            return None
        support.append(g.support()[0])
    return MonomialPrime(ideal.ring, tuple(support))


def ass_module_quotient(ideal: MonomialIdeal, i: int) -> frozenset[MonomialPrime]:
    """Associated primes of I^(i-1)/I^i, read off the corners of I^i.

    Let N be the largest exponent among the generators of I^(i-1) and I^i.
    The corner of an irredundant irreducible component
    Q = (x_j^(e_j) : j in T) of I^i is the monomial m with m_j = e_j - 1 on
    T and m_j = N off T.  Then P_T is associated iff some component with
    support T has its corner in I^(i-1); no colon is needed:

    * I^i : m = P_T, so m is not in I^i.  Q : m = P_T, and m lies in every
      other component Q' = (x_k^(e'_k)).  If the support of Q' leaves T,
      m holds some x_k^(e'_k) with k off T, as e'_k <= N.  If it lies in
      T, Q does not contain Q' (the decomposition is irredundant), so
      e'_k <= e_k - 1 = m_k for some k.
    * The form is complete.  Let I^i : f = P_T with f in I^(i-1).  Raising
      f to N off T keeps it in I^(i-1) and keeps the colon P_T, since
      membership in I^i ignores exponents above N.  The raised f lies in
      every component whose support leaves T, so it misses some Q with
      support in T.  P_T inside Q : f forces that support to be T and
      f_j = e_j - 1 on T, so f is the corner of Q.

    ``ass_module_quotient_exhaustive`` cross-checks this against a box scan.
    """
    _require_nonzero_proper(ideal)
    if i < 1:
        raise ValueError("quotient index must be positive")
    low = ideal_power(ideal, i - 1)
    high = ideal_power(ideal, i)
    n = max(low.max_exponent(), high.max_exponent())
    primes: set[MonomialPrime] = set()
    for c in irreducible_decomposition(high):
        corner = [n] * ideal.ring.nvars
        for j, e in c.powers:
            corner[j] = e - 1
        if low.contains(ideal.ring.monomial(corner)):
            primes.add(c.radical())
    return frozenset(primes)


def ass_module_quotient_exhaustive(
    ideal: MonomialIdeal, i: int
) -> frozenset[MonomialPrime]:
    """Independent oracle for ``ass_module_quotient``.

    Membership in I^(i-1) and I^i and the colon I^i : m only depend on the
    exponentwise minimum of m with the generator lcms, so scanning the box
    below max(lcm(G(I^(i-1))), lcm(G(I^i))) sees a representative of every
    possible witness.
    """
    _require_nonzero_proper(ideal)
    if i < 1:
        raise ValueError("quotient index must be positive")
    low = ideal_power(ideal, i - 1)
    high = ideal_power(ideal, i)
    box = high.lcm_of_generators().lcm(low.lcm_of_generators())
    primes: set[MonomialPrime] = set()
    for m in monomials_below(box):
        if not low.contains(m) or high.contains(m):
            continue
        prime = _prime_from_variable_ideal(colon_monomial(high, m))
        if prime is not None:
            primes.add(prime)
    return frozenset(primes)
