"""Multigraded Betti numbers, depth, and Castelnuovo-Mumford regularity.

Betti numbers of R/I are read off reduced simplicial homology.  For a
multidegree b in the lcm lattice of I, let K^b be the simplicial complex
of squarefree vectors t with x^(b-t) in I (the upper Koszul complex of I
at b).  The convention used and tested throughout is

    beta_{i,b}(R/I) = dim H~_{i-2}(K^b)       for i >= 1,

with beta_{0,0}(R/I) = 1; so a minimal generator contributes via the
homology of the one-point complex {emptyset} in degree -1.

K^b has a closed form (Miller-Sturmfels, Combinatorial Commutative
Algebra, Thm 1.34 and ch. 5): x^(b-t) lies in I iff some generator g
divides b with t inside S_g(b) = {i : g_i < b_i}, so K^b is the complex
generated by the sets S_g(b) of the generators g dividing b.  The lattice,
the sets S_g(b) and the faces are computed on exponent tuples and vertex
bitmasks; a Monomial is built only for a multidegree with a nonzero Betti
number.  When all maximal S_g(b) share a vertex, K^b is a cone and has no
reduced homology, so no rank is computed; the one-facet complex {emptyset}
of a minimal generator is not a cone.  Homology ranks are exact:
fraction-free (Bareiss) elimination over the integers in characteristic
zero, Gaussian elimination over GF(p) otherwise.

An independent Taylor-complex oracle computes the same numbers from the
generator-subset strands and backs the test suite; it never shares code
with the upper Koszul route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_

from .core import IdealArgumentError, Monomial, MonomialIdeal, Ring
from .binomial import direct_saturated_sum, symbolic_of_sum
from .powers import _require_positive, saturated_power, symbolic_power


@dataclass(frozen=True)
class ExtendedInt:
    """An integer extended with +inf and -inf, for the depth/reg conventions."""

    value: int | float

    def __post_init__(self):
        v = self.value
        if isinstance(v, float) and v not in (float("inf"), float("-inf")):
            raise ValueError(f"not an extended integer: {v!r}")

    def __add__(self, other: "ExtendedInt") -> "ExtendedInt":
        a, b = self.value, other.value
        if isinstance(a, int) and isinstance(b, int):
            return ExtendedInt(a + b)
        if a == float("inf") and b == float("-inf"):
            raise ValueError("cannot add +inf and -inf")
        if a == float("-inf") and b == float("inf"):
            raise ValueError("cannot add +inf and -inf")
        return ExtendedInt(a if isinstance(a, float) else b)

    def __lt__(self, other: "ExtendedInt") -> bool:
        return self.value < other.value

    def __le__(self, other: "ExtendedInt") -> bool:
        return self.value <= other.value

    def __str__(self):
        if self.value == float("inf"):
            return "+inf"
        if self.value == float("-inf"):
            return "-inf"
        return str(self.value)


POS_INF = ExtendedInt(float("inf"))
NEG_INF = ExtendedInt(float("-inf"))


def _is_prime_number(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _require_char(char: int):
    if char != 0 and not _is_prime_number(char):
        raise ValueError(f"characteristic must be 0 or a prime, got {char}")


def rank_fraction_free(rows: list[list[int]]) -> int:
    """Rank of an integer matrix over the rationals, by Bareiss elimination."""
    if not rows or not rows[0]:
        return 0
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, nrows):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, nrows):
            factor = m[r][col]
            for c in range(col, ncols):
                m[r][c] = (pivot * m[r][c] - factor * m[rank][c]) // prev
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix over GF(p)."""
    if not rows or not rows[0]:
        return 0
    m = [[v % p for v in r] for r in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, nrows):
            if m[r][col] % p != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        for r in range(rank + 1, nrows):
            factor = (m[r][col] * inv) % p
            if factor:
                for c in range(col, ncols):
                    m[r][c] = (m[r][c] - factor * m[rank][c]) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def _rank(rows, char):
    return rank_fraction_free(rows) if char == 0 else rank_mod_p(rows, char)


def _homology_dims(faces, char: int) -> dict[int, int]:
    """Reduced homology dims of a simplicial complex whose faces are given
    as vertex bitmasks, closed under taking subsets.

    Keys are homological degrees (the empty face sits in degree -1).  The
    boundary drops the k-th lowest vertex of a face with sign (-1)^k.
    """
    by_size: dict[int, list[int]] = {}
    for face in sorted(faces):
        by_size.setdefault(face.bit_count(), []).append(face)
    ranks = {}
    for t, members in by_size.items():
        if t == 0:
            continue
        below = {face: row for row, face in enumerate(by_size[t - 1])}
        matrix = [[0] * len(members) for _ in below]
        for col, face in enumerate(members):
            sign, rest = 1, face
            while rest:
                vertex = rest & -rest
                matrix[below[face ^ vertex]][col] = sign
                sign, rest = -sign, rest ^ vertex
        ranks[t] = _rank(matrix, char)
    dims = {}
    for t, members in sorted(by_size.items()):
        h = len(members) - ranks.get(t, 0) - ranks.get(t + 1, 0)
        if h:
            dims[t - 1] = h
    return dims


def _show_face(face) -> str:
    return "{" + ", ".join(str(v) for v in face) + "}"


def reduced_homology_dimensions(
    faces: set[frozenset[int]], char: int = 0
) -> dict[int, int]:
    """Reduced homology dims of a simplicial complex given as a face set.

    The empty face must be a member for nonvoid complexes; a void complex
    (empty face set) has no homology at all.  Keys are homological degrees
    (the empty face sits in degree -1).  A face set that is not closed
    under taking subsets raises ValueError naming the first missing face:
    the empty face, or else a codimension-one subface of the smallest face
    (by size, then sorted vertices) that lacks one.
    """
    _require_char(char)
    if not faces:
        return {}
    if frozenset() not in faces:
        raise ValueError("not a simplicial complex: the empty face {} is missing")
    for face in sorted((tuple(sorted(f)) for f in faces), key=lambda f: (len(f), f)):
        for sub in sorted(face[:k] + face[k + 1 :] for k in range(len(face))):
            if frozenset(sub) not in faces:
                raise ValueError(
                    f"not a simplicial complex: face {_show_face(sub)} "
                    f"of {_show_face(face)} is missing"
                )
    vertices = sorted(set().union(*faces))
    bit = {v: 1 << k for k, v in enumerate(vertices)}
    return _homology_dims((sum(bit[v] for v in f) for f in faces), char)


def _lcm_closure(gens) -> set[tuple[int, ...]]:
    """Exponent tuples of the lcms of all nonempty subsets of ``gens``.

    One pass per generator g: L <- L + {g} + {lcm(p, g) : p in L}.
    """
    points: set[tuple[int, ...]] = set()
    for g in gens:
        points |= {tuple(map(max, p, g)) for p in points}
        points.add(g)
    return points


def lcm_lattice(ideal: MonomialIdeal) -> list[Monomial]:
    """All lcms of nonempty generator subsets, deduplicated, in canonical order."""
    ring = ideal.ring
    points = _lcm_closure([g.exponents for g in ideal.generators])
    return sorted((Monomial(ring, b) for b in points), key=Monomial.sort_key)


def _koszul_facets(gens, b: tuple[int, ...]) -> list[int]:
    """Maximal faces of K^b as bitmasks: the sets S_g(b) = {i : g_i < b_i}
    of the generators g dividing b, less those inside another."""
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
    return [m for m in masks if not any(m != o and m & o == m for o in masks)]


def _upper_koszul_faces(facets: list[int]) -> set[int]:
    """Faces of the complex generated by ``facets``: all their submasks."""
    faces = set()
    for facet in facets:
        sub = facet
        while True:
            faces.add(sub)
            if not sub:
                break
            sub = (sub - 1) & facet
    return faces


@dataclass(frozen=True)
class BettiTable:
    """Nonzero multigraded Betti numbers of R/I, with derived invariants.

    The zero module (I the unit ideal) has an empty table, depth +inf and
    regularity -inf.
    """

    ring: Ring
    against: MonomialIdeal
    entries: tuple[tuple[int, Monomial, int], ...]

    def multiplicity(self, i: int, b: Monomial) -> int:
        for j, m, v in self.entries:
            if j == i and m == b:
                return v
        return 0

    def total_betti(self, i: int) -> int:
        return sum(v for j, _, v in self.entries if j == i)

    def projective_dimension(self) -> int | None:
        if not self.entries:
            return None
        return max(i for i, _, _ in self.entries)

    def depth(self) -> ExtendedInt:
        pd = self.projective_dimension()
        if pd is None:
            return POS_INF
        return ExtendedInt(self.ring.nvars - pd)

    def regularity(self) -> ExtendedInt:
        if not self.entries:
            return NEG_INF
        return ExtendedInt(max(b.degree() - i for i, b, _ in self.entries))

    def __str__(self):
        if not self.entries:
            return "{}"
        return (
            "{"
            + ", ".join(f"({i}, {b}): {v}" for i, b, v in self.entries)
            + "}"
        )


def _freeze_entries(entries: dict[tuple[int, Monomial], int]):
    return tuple(
        (i, b, v)
        for (i, b), v in sorted(
            entries.items(), key=lambda kv: (kv[0][0], kv[0][1].sort_key())
        )
        if v
    )


def betti_table(ideal: MonomialIdeal, char: int = 0) -> BettiTable:
    """Multigraded Betti numbers of R/I via upper Koszul complexes."""
    _require_char(char)
    ring = ideal.ring
    if ideal.is_unit:
        return BettiTable(ring, ideal, ())
    entries: dict[tuple[int, Monomial], int] = {(0, ring.one()): 1}
    gens = [g.exponents for g in ideal.generators]
    for b in _lcm_closure(gens):
        facets = _koszul_facets(gens, b)
        if reduce(and_, facets):
            continue  # a cone: every maximal face holds a common vertex
        dims = _homology_dims(_upper_koszul_faces(facets), char)
        if dims:
            m = Monomial(ring, b)
            for degree, dim in dims.items():
                entries[(degree + 2, m)] = dim
    return BettiTable(ring, ideal, _freeze_entries(entries))


def taylor_betti_table(ideal: MonomialIdeal, char: int = 0) -> BettiTable:
    """Betti numbers of R/I from the multigraded strands of the Taylor complex.

    Generator subsets are bitmasks.  The lcm of a subset S is computed once,
    as lcm(S - {max S}) joined with the generator max S, and the subsets
    are grouped into strands by lcm.  A boundary entry of S drops one bit
    and looks the smaller subset up in the same strand.  Exponential in the
    number of generators; meant as a brute-force oracle for small inputs.
    """
    _require_char(char)
    ring = ideal.ring
    if ideal.is_unit:
        return BettiTable(ring, ideal, ())
    gens = [g.exponents for g in ideal.generators]
    if len(gens) > 14:
        raise IdealArgumentError("Taylor oracle limited to 14 generators")
    lcms = [(0,) * ring.nvars]
    for mask in range(1, 1 << len(gens)):
        top = mask.bit_length() - 1
        lcms.append(tuple(map(max, lcms[mask ^ (1 << top)], gens[top])))
    strands: dict[tuple[int, ...], list[int]] = {}
    for mask, b in enumerate(lcms):
        strands.setdefault(b, []).append(mask)
    entries: dict[tuple[int, Monomial], int] = {}
    for b, strand in strands.items():
        by_size: dict[int, dict[int, int]] = {}  # subset mask -> row index
        for mask in strand:
            members = by_size.setdefault(mask.bit_count(), {})
            members[mask] = len(members)
        ranks: dict[int, int] = {}
        for size, members in by_size.items():
            below = by_size.get(size - 1)
            if not below:
                continue
            matrix = [[0] * len(members) for _ in below]
            for col, mask in enumerate(members):
                sign, rest = 1, mask
                while rest:
                    bit = rest & -rest
                    if lcms[mask ^ bit] == b:
                        matrix[below[mask ^ bit]][col] = sign
                    sign, rest = -sign, rest ^ bit
            ranks[size] = _rank(matrix, char)
        for size, members in by_size.items():
            h = len(members) - ranks.get(size, 0) - ranks.get(size + 1, 0)
            if h:
                entries[(size, Monomial(ring, b))] = h
    return BettiTable(ring, ideal, _freeze_entries(entries))


def depth_quotient(ideal: MonomialIdeal, char: int = 0) -> ExtendedInt:
    """depth of R/I; +inf for the zero module, n for I = 0."""
    return betti_table(ideal, char).depth()


def reg_quotient(ideal: MonomialIdeal, char: int = 0) -> ExtendedInt:
    """Castelnuovo-Mumford regularity of R/I; -inf for the zero module."""
    return betti_table(ideal, char).regularity()


def deriv_star(ideal: MonomialIdeal) -> MonomialIdeal:
    """The ideal of all f/x_i for monomials f in the ideal.

    Generator-level quotients generate the whole thing: dividing g*h by a
    variable lands in (g) or (g/x_i), both inside the generator-level
    ideal.  The unit ideal is its own image.
    """
    if ideal.is_unit:
        return ideal
    quotients = []
    for g in ideal.generators:
        for v in g.support():
            quotients.append(g.divide_exact(ideal.ring.variable(v)))
    return MonomialIdeal(ideal.ring, tuple(quotients))


@dataclass(frozen=True)
class DepthRegReport:
    """Left- and right-hand sides of the depth and regularity formulas."""

    depth_lhs: ExtendedInt
    depth_rhs: ExtendedInt
    reg_lhs: ExtendedInt
    reg_rhs: ExtendedInt

    @property
    def depth_equal(self) -> bool:
        return self.depth_lhs == self.depth_rhs

    @property
    def reg_equal(self) -> bool:
        return self.reg_lhs == self.reg_rhs

    @property
    def passed(self) -> bool:
        return self.depth_equal and self.reg_equal

    def __str__(self):
        return (
            f"depth {self.depth_lhs} vs {self.depth_rhs}; "
            f"reg {self.reg_lhs} vs {self.reg_rhs}"
        )


def _depth_reg_report(lhs: MonomialIdeal, power_a, power_b, s: int, char: int):
    """Depth and regularity of R/lhs against the min/max formulas over the
    per-side powers power_a(t), t = 1..s, and power_b(t), t = 0..s."""
    lhs_table = betti_table(lhs, char)
    side_a = {t: betti_table(power_a(t), char) for t in range(1, s + 1)}
    side_b = {t: betti_table(power_b(t), char) for t in range(s + 1)}
    depths = []
    regs = []
    for t in range(1, s + 1):
        a, b, b_next = side_a[t], side_b[s - t], side_b[s + 1 - t]
        depths.append(a.depth() + b.depth() + ExtendedInt(1))
        depths.append(a.depth() + b_next.depth())
        regs.append(a.regularity() + b.regularity() + ExtendedInt(1))
        regs.append(a.regularity() + b_next.regularity())
    return DepthRegReport(
        lhs_table.depth(), min(depths), lhs_table.regularity(), max(regs)
    )


def check_depth_reg_binomial(
    i: MonomialIdeal,
    k: MonomialIdeal,
    j: MonomialIdeal,
    l: MonomialIdeal,
    s: int,
    char: int = 0,
) -> DepthRegReport:
    """Depth and regularity of R modulo the saturated power of the sum,
    against the min/max formulas over the per-side saturated powers."""
    _require_positive(s)
    return _depth_reg_report(
        direct_saturated_sum(i, k, j, l, s),
        lambda t: saturated_power(i, k, t),
        lambda t: saturated_power(j, l, t),
        s,
        char,
    )


def check_depth_reg_symbolic_ass(
    i: MonomialIdeal, j: MonomialIdeal, s: int, char: int = 0
) -> DepthRegReport:
    """Same formulas with the associated-primes symbolic powers throughout.

    The left-hand side is the symbolic power of the sum computed directly
    from its primary decomposition in the joined ring.
    """
    _require_positive(s)
    return _depth_reg_report(
        symbolic_of_sum(i, j, s, "ass"),
        lambda t: symbolic_power(i, t, "ass"),
        lambda t: symbolic_power(j, t, "ass"),
        s,
        char,
    )
