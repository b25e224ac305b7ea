"""Primary structure of monomial ideals.

Irreducible decomposition as the Alexander dual of an intersection of
irreducible ideals, canonical primary decomposition with distinct radical
primes, associated and minimal primes, a bounded approximation of the
union of associated primes over all powers, the grade-zero test against a
monomial prime, and associated primes of the consecutive power quotients
I^(i-1)/I^i, which are those of A/I^i.

Every prime set the Ass code computes is a set of support bitmasks
(``_mask``, bit i for variable i): the supports of Ass(I) (``_supports``),
the minimal ones among them (``_minimal``), their union over powers, and
the primes among the box oracle's colons, read by ``_prime_support``, the
one prime test on exponent tuples.
Both kept-prime rules read them too: the minimal supports, and the test
that a support lies inside one of them (``_inside_some``, grade zero by
prime avoidance), for ``minimal_primes``, ``grade_zero``,
``binomial.check_ass_structure`` and both symbolic powers in ``powers``.
``_primes`` is the one builder that turns masks into the ``MonomialPrime``
values a public function returns.

The Alexander-dual fold and every intersection of irreducible ideals
(``_irredundant``, ``_fold``) run on packed exponent tuples, one int each,
in the guard-bit layout of ``core._layout`` for the largest exponent in
play, so that ``_meet`` tests divisibility with one subtraction.  A fold
packs once and unpacks once.  ``_irredundant`` returns each component
with its support mask, read from the packed dual, so the masks are built
once per decomposition.
"""

from __future__ import annotations

import itertools
from operator import lshift

from .core import (
    IdealArgumentError,
    MonomialIdeal,
    MonomialPrime,
    Ring,
    _contains,
    _ideal,
    _layout,
    _memo,
    _require_same_ring,
    _unchecked,
    _Value,
    _whole_numbers,
    ideal_power,
)


class IrreducibleComponent(_Value):
    """An ideal generated by pure variable powers, as (variable index, exponent) pairs."""

    __match_args__ = ("ring", "powers")

    def __init__(self, ring: Ring, powers: tuple[tuple[int, int], ...]):
        powers = tuple(sorted(_whole_numbers((i, e)) for i, e in powers))
        if not powers:
            raise ValueError("irreducible component must be nonempty")
        if any(e < 1 for _, e in powers):
            raise ValueError(f"exponents must be positive: {powers!r}")
        if len({i for i, _ in powers}) != len(powers):
            raise ValueError(f"repeated variable in {powers!r}")
        if any(i < 0 or i >= ring.nvars for i, _ in powers):
            raise ValueError(f"variable index out of range: {powers!r}")
        super().__init__(ring, powers)

    def as_ideal(self) -> MonomialIdeal:
        zeros = (0,) * self.ring.nvars
        return _ideal(self.ring, [zeros[:i] + (e,) + zeros[i + 1:] for i, e in self.powers])

    def radical(self) -> MonomialPrime:
        # The powers are sorted by variable index, so the support already is.
        return _unchecked(
            MonomialPrime, ring=self.ring, support=tuple(i for i, _ in self.powers)
        )

    def sort_key(self):
        return (len(self.powers), self.powers)

    def __str__(self):
        return str(self.as_ideal())


class PrimaryDecomposition(_Value):
    """Irredundant primary decomposition keyed by distinct radical primes."""

    __match_args__ = ("components",)

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


def _meet(gens, powers, guard) -> list[int]:
    """Minimal generators of (G) cap Q, for Q = (x_j^e_j), on packed tuples.

    ``gens`` is the antichain G of minimal exponent tuples of an ideal, in
    any order and packed (``core._layout``), and so is the result.  ``powers``
    holds one pair (F_j, e_j << s_j) per variable x_j of Q: its field mask
    F_j, shifted into place, and its exponent, shifted to its field.  Each
    g in Q is kept unchanged.  Each g outside Q gives, for every j of Q,
    r = g raised to e_j in x_j (the lcm of g and x_j^e_j), kept iff no
    other h in G divides r.

    Proof: these candidates generate (G) cap Q.  As G is an antichain,
    there are no duplicates (equal r from g != h would make g and h equal
    off x_j), and no other candidate divides a kept g, since each is a
    multiple of its own h.  A candidate raised at j' != j has x_j'
    exponent e_j' > r_j', so only a kept h or an h raised at the same j
    can divide r, and either one divides r iff h does.

    Packed fields: h divides r iff ((r | G) - h) & G == G, the test of
    ``core._layout``.  Masking a field reads one exponent in place, so
    g & F_j >= e_j << s_j iff g_j >= e_j, and g ^ (g & F_j) | e_j << s_j
    is g with its x_j exponent replaced by e_j.

    Cost: each g outside Q makes |Q|·|G| divisor tests, one scan of G
    per candidate, so a call is quadratic in |G|.
    """
    # Plain loops, not any(<genexpr>): a generator frame per scan cost more
    # than the tests it runs on the small duals of a typical fold.
    out = []
    for g in gens:
        for f, q in powers:
            if g & f >= q:
                out.append(g)
                break
        else:
            for f, q in powers:
                b = g & f
                r = g ^ b | q
                ceiling = r | guard
                # An h dividing r but not g exceeds g in x_j; g itself does not.
                for h in gens:
                    if h & f > b and (ceiling - h) & guard == guard:
                        break
                else:
                    out.append(r)
    return out


def _fold(nvars: int, components, exps) -> list[tuple[int, ...]]:
    """Minimal generators of (exps) cap Q_1 cap ... cap Q_k, in any order.

    ``exps`` is the antichain of an ideal's exponent tuples and
    ``components`` the pairs of the irreducible ideals Q_t.  Everything is
    packed once, in one ``_layout`` wide enough for every exponent in
    play, folded by ``_meet`` and unpacked once.
    """
    top = max(max(map(max, exps)), max([e for c in components for _, e in c], default=0))
    full, shifts, guard = _layout(nvars, top)
    # The shifted exponents fill disjoint fields, so their sum packs them.
    dual = [sum(map(lshift, g, shifts)) for g in exps]
    for c in components:
        dual = _meet(dual, [(full << shifts[j], e << shifts[j]) for j, e in c], guard)
    return [tuple([u >> s & full for s in shifts]) for u in dual]


@_memo
def _irredundant(gens: tuple) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
    """Ring-free irredundant components of the canonical generator tuples
    ``gens`` (an ideal's ``_exps``), canonically sorted, each with its
    support bitmask (``_mask``).

    ``_meet`` folds the irreducible ideals m^(g^a) of the generators g,
    from the unit ideal, into the Alexander dual; each of its minimal
    generators u gives the component m^(u^a) (see
    ``irreducible_decomposition`` for the notation).  The dual is packed
    (``_layout``) for exponents up to max(a): each m^(g^a) is built from
    g's exponents, and each component and its mask are read from u.
    """
    top = tuple(map(max, zip(*gens)))
    full, shifts, guard = _layout(len(top), max(top))
    # (variable index, shift, field mask, a_i + 1) per variable.
    fields = [(i, s, full << s, a + 1) for i, (s, a) in enumerate(zip(shifts, top))]
    dual = [0]
    # The canonical order, lowest degree first, keeps the partial duals smallest.
    for g in gens:
        # The pairs of m^(g^a): (i, a_i + 1 - g_i) wherever g_i > 0.
        dual = _meet(dual, [(f, a - e << s) for (_, s, f, a), e in zip(fields, g) if e], guard)
    components = []
    for u in dual:
        powers = []
        mask = 0
        for i, s, _, a in fields:
            e = u >> s & full
            if e:
                powers.append((i, a - e))
                mask |= 1 << i
        components.append((tuple(powers), mask))
    components.sort(key=lambda c: (len(c[0]), c[0]))
    return tuple(components)


def irreducible_decomposition(ideal: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """The unique irredundant set of irreducible components, canonically sorted.

    Let a be the exponentwise maximum of the minimal generators of I, and
    for b below a let m^(b^a) = (x_i^(a_i + 1 - b_i) : b_i > 0).  The
    Alexander dual of I with respect to a is the intersection of m^(g^a)
    over the minimal generators g of I, and I is the irredundant
    intersection of m^(u^a) over the minimal generators u of that dual
    (Miller-Sturmfels, Combinatorial Commutative Algebra, Thm 5.27).  The
    dual is intersected one irreducible ideal at a time by the local rule
    of ``_meet``, with no splitting and no pruning pass.  The result is
    memoised (``core._memo``), ring-free and keyed by the ideal's
    canonical generator exponent tuples.
    """
    # _irredundant's pairs are sorted, with distinct indices and positive exponents.
    return tuple(
        _unchecked(IrreducibleComponent, ring=ideal.ring, powers=c)
        for c, _ in _components(ideal)
    )


def _components(ideal: MonomialIdeal):
    """``_irredundant`` of a nonzero proper ideal's generator exponents:
    (component pairs, support bitmask) per irredundant component."""
    _require_nonzero_proper(ideal)
    return _irredundant(ideal._exps)


def primary_decomposition(ideal: MonomialIdeal) -> PrimaryDecomposition:
    """Group irreducible components by radical and intersect each group.

    The components are grouped by their support bitmasks, and each group
    is intersected by ``_fold``, from the unit ideal.  Grouping an
    irredundant irreducible decomposition can introduce no redundancy: a
    redundant group would force one of its irreducible members to contain
    a member of another group.
    """
    ring = ideal.ring
    by_mask: dict[int, list] = {}
    for c, mask in _components(ideal):
        by_mask.setdefault(mask, []).append(c)
    unit = [(0,) * ring.nvars]
    return PrimaryDecomposition(tuple(
        (prime, _ideal(ring, _fold(ring.nvars, by_mask[_mask(prime.support)], unit)))
        for prime in sorted(_primes(ring, by_mask), key=MonomialPrime.sort_key)
    ))


def associated_primes(ideal: MonomialIdeal) -> frozenset[MonomialPrime]:
    """The radicals of the irreducible components of I, one prime per
    distinct component support (``_supports``)."""
    return _primes(ideal.ring, _supports(ideal))


def _summands(ideal: MonomialIdeal) -> list[MonomialIdeal]:
    """I as a sum of ideals in pairwise disjoint variables, in I's ring.

    Each summand is generated by one connected component of the generators,
    two generators being joined when their supports meet, so no summand
    splits further.  A connected ideal is its own one summand, returned as
    is; the zero ideal has none.
    """
    groups = []  # [support bitmask, generator exponent tuples]
    for g in ideal._exps:
        mask = _mask([i for i, e in enumerate(g) if e])
        merged = [mask, [g]]
        apart = []
        for group in groups:
            if group[0] & mask:
                merged[0] |= group[0]
                merged[1] += group[1]
            else:
                apart.append(group)
        groups = apart + [merged]
    if len(groups) == 1:
        return [ideal]
    return [_ideal(ideal.ring, exps) for _, exps in groups]


def _mask(support) -> int:
    """The bitmask of a support, bit i for variable i."""
    mask = 0
    for i in support:
        mask |= 1 << i
    return mask


def _supports(ideal: MonomialIdeal) -> set[int]:
    """The supports of Ass(I) as bitmasks, one per distinct support, read
    from the masks the components of I carry (``_components``) with no
    prime built."""
    return {mask for _, mask in _components(ideal)}


def _primes(ring: Ring, masks) -> frozenset[MonomialPrime]:
    """The primes of ``ring`` with the support bitmasks ``masks``: the one
    place a mask becomes a ``MonomialPrime``."""
    indices = range(ring.nvars)
    return frozenset(
        _unchecked(MonomialPrime, ring=ring, support=tuple([i for i in indices if m >> i & 1]))
        for m in masks
    )


def _minimal(masks) -> set[int]:
    """The ``masks`` with no proper submask among them: the minimal primes."""
    return {m for m in masks if not any(o != m and o & m == o for o in masks)}


def _inside_some(mask: int, masks) -> bool:
    """True iff ``mask`` is a submask of one of ``masks``; by prime
    avoidance, iff its prime lies in the union of theirs."""
    return any(mask | m == m for m in masks)


def minimal_primes(ideal: MonomialIdeal) -> frozenset[MonomialPrime]:
    """The primes of Ass(I) that contain no other one."""
    return _primes(ideal.ring, _minimal(_supports(ideal)))


def default_power_bound(ideal: MonomialIdeal) -> int:
    """Default power cutoff for the bounded union of associated primes."""
    return max(2, ideal.ring.nvars + max(map(sum, ideal._exps), default=1))


def ass_star_bounded(
    ideal: MonomialIdeal, n_max: int | None = None
) -> tuple[frozenset[MonomialPrime], bool]:
    """Union of Ass(I^n) for n <= n_max, plus a heuristic stabilization flag.

    The flag is true iff Ass(I^(n_max - 1)) == Ass(I^n_max); it is
    evidence, not proof, that the union has stabilized.  Each Ass(I^n) is
    read from the memoised powers and decompositions.
    """
    _require_nonzero_proper(ideal)
    if n_max is None:
        n_max = default_power_bound(ideal)
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    union: set[int] = set()
    current: set[int] = set()
    for n in range(1, n_max + 1):
        previous, current = current, _supports(ideal_power(ideal, n))
        union |= current
    return _primes(ideal.ring, union), previous == current


def grade_zero(p: MonomialPrime, ideal: MonomialIdeal) -> bool:
    """True iff p is contained in some associated prime of the ideal.

    For variable-generated primes this is equivalent to grade(p, A/I) = 0
    by prime avoidance.
    """
    _require_same_ring(p, ideal)
    if not p.support:
        raise IdealArgumentError("prime with empty support")
    return _inside_some(_mask(p.support), _supports(ideal))


def _prime_support(gens) -> int:
    """The mask of T, the j with x_j among the tuples ``gens`` (minimal or
    not), if they generate P_T, as they do iff each support meets T; else 0."""
    t = {g.index(1) for g in gens if sum(g) == 1}
    if all(any(g[j] for j in t) for g in gens):
        return _mask(t)
    return 0


def ass_module_quotient(ideal: MonomialIdeal, i: int) -> frozenset[MonomialPrime]:
    """Associated primes of I^(i-1)/I^i, which are those of A/I^i.

    If x_j * m lies in I^i, then m lies in I^(i-1): some product
    g_1 ... g_i of generators divides x_j * m, and either it divides m, or
    some g_t holds x_j and the other i - 1 factors divide m.  So every
    witness m of P in Ass(A/I^i), with I^i : m = P and P nonzero, already
    lies in I^(i-1).  As I^(i-1)/I^i is a submodule of A/I^i, this gives
    Ass(I^(i-1)/I^i) = Ass(A/I^i) for i >= 1.

    ``ass_module_quotient_exhaustive`` cross-checks this against a box scan.
    """
    _require_nonzero_proper(ideal)
    if i < 1:
        raise ValueError("quotient index must be positive")
    return associated_primes(ideal_power(ideal, i))


def ass_module_quotient_exhaustive(
    ideal: MonomialIdeal, i: int
) -> frozenset[MonomialPrime]:
    """Independent oracle for ``ass_module_quotient``.

    Membership in I^(i-1) and I^i and the colon I^i : m only depend on the
    exponentwise minimum of m with the generator lcms, so scanning the box
    below max(lcm(G(I^(i-1))), lcm(G(I^i))) sees a representative of every
    possible witness.  When no x_j * m lies in I^i, the colon I^i : m holds
    no variable, so it is no prime P_T with T nonempty.  For m outside I^i,
    x_j * m lies in I^i iff some generator g of I^i exceeds m in x_j alone
    and by one, so only the sub-boxes m_j = g_j - 1, g_k <= m_k <= box_k
    (k != j), over the generators g of I^i and j in supp g, are scanned.
    Each point e is a tuple, and I^i : x^e is generated by the (g - e)^+
    (the colon lemma), so ``_prime_support`` reads the colon from them and
    no ideal is built per point.  The oracle reads no decomposition, so it
    stays independent of ``ass_module_quotient``, which reads that of I^i.
    """
    _require_nonzero_proper(ideal)
    if i < 1:
        raise ValueError("quotient index must be positive")
    low, high = ideal_power(ideal, i - 1)._exps, ideal_power(ideal, i)._exps
    box = tuple(map(max, zip(*low, *high)))
    points = set()
    for g in high:
        ranges = [range(a, b + 1) for a, b in zip(g, box)]
        for j, a in enumerate(g):
            if a:
                points.update(itertools.product(
                    *ranges[:j], (a - 1,), *ranges[j + 1:]
                ))
    masks = {
        _prime_support([tuple([a - b if a > b else 0 for a, b in zip(g, e)]) for g in high])
        for e in points
        if _contains(low, e) and not _contains(high, e)
    }
    return _primes(ideal.ring, masks - {0})
