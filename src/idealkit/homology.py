"""Multigraded Betti numbers, depth, and Castelnuovo-Mumford regularity.

Betti numbers of R/I are read off reduced simplicial homology.  For a
multidegree b in the lcm lattice of I, let K^b be the simplicial complex
of squarefree vectors t with x^(b-t) in I (the upper Koszul complex of I
at b).  The convention used and tested throughout is

    beta_{i,b}(R/I) = dim H~_{i-2}(K^b)       for i >= 1,

with beta_{0,0}(R/I) = 1; so a minimal generator contributes via the
homology of the one-point complex {emptyset} in degree -1.  Homology ranks
are exact: fraction-free (Bareiss) elimination over the integers in
characteristic zero, Gaussian elimination over GF(p) otherwise.

An independent Taylor-complex oracle computes the same numbers from the
generator-subset strands and backs the test suite; it never shares code
with the upper Koszul route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

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

    @property
    def is_finite(self) -> bool:
        return isinstance(self.value, int)

    def __add__(self, other: "ExtendedInt") -> "ExtendedInt":
        a, b = self.value, other.value
        if isinstance(a, int) and isinstance(b, int):
            return ExtendedInt(a + b)
        if a == float("inf") and b == float("-inf"):
            raise ValueError("cannot add +inf and -inf")
        if a == float("-inf") and b == float("inf"):
            raise ValueError("cannot add +inf and -inf")
        return ExtendedInt(a if isinstance(a, float) else b)

    def plus(self, k: int) -> "ExtendedInt":
        return self + ExtendedInt(k)

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


def _chain_ranks(faces_by_size: dict[int, list[tuple[int, ...]]], char: int):
    """Boundary ranks of the reduced chain complex of a simplicial complex.

    faces_by_size maps t to the size-t faces (t = 0 is the empty face).
    Returns {t: rank of the boundary from size-t faces to size-(t-1) faces}.
    """
    ranks = {}
    for t, faces in faces_by_size.items():
        if t == 0:
            continue
        below = {f: idx for idx, f in enumerate(faces_by_size.get(t - 1, []))}
        if not below or not faces:
            ranks[t] = 0
            continue
        matrix = [[0] * len(faces) for _ in range(len(below))]
        for col, face in enumerate(faces):
            for drop in range(t):
                sub = face[:drop] + face[drop + 1 :]
                matrix[below[sub]][col] = -1 if drop % 2 else 1
        ranks[t] = _rank(matrix, char)
    return ranks


def reduced_homology_dimensions(
    faces: set[frozenset[int]], char: int = 0
) -> dict[int, int]:
    """Reduced homology dims of a simplicial complex given as a face set.

    The empty face must be a member for nonvoid complexes; a void complex
    (empty face set) has no homology at all.  Keys are homological degrees
    (the empty face sits in degree -1).
    """
    _require_char(char)
    if not faces:
        return {}
    faces_by_size: dict[int, list[tuple[int, ...]]] = {}
    for f in faces:
        faces_by_size.setdefault(len(f), []).append(tuple(sorted(f)))
    for t in faces_by_size:
        faces_by_size[t].sort()
    ranks = _chain_ranks(faces_by_size, char)
    dims = {}
    for t, members in faces_by_size.items():
        h = len(members) - ranks.get(t, 0) - ranks.get(t + 1, 0)
        if h:
            dims[t - 1] = h
    return dims


def lcm_lattice(ideal: MonomialIdeal) -> list[Monomial]:
    """All lcms of nonempty generator subsets, deduplicated, in canonical order."""
    if ideal.is_zero:
        return []
    points = set(ideal.generators)
    frontier = set(ideal.generators)
    while frontier:
        new = set()
        for b in frontier:
            for g in ideal.generators:
                m = b.lcm(g)
                if m not in points:
                    new.add(m)
        points |= new
        frontier = new
    return sorted(points, key=Monomial.sort_key)


def _upper_koszul_faces(ideal: MonomialIdeal, b: Monomial) -> set[frozenset[int]]:
    """Faces t <= supp(b) with x^(b-t) in the ideal; downward closed."""
    ring = ideal.ring
    if not ideal.contains(b):
        return set()
    faces = {frozenset()}
    support = b.support()
    frontier = [frozenset()]
    while frontier:
        new = []
        for face in frontier:
            top = max(face) if face else -1
            for v in support:
                if v <= top:
                    continue
                candidate = face | {v}
                exps = list(b.exponents)
                for w in candidate:
                    exps[w] -= 1
                if ideal.contains(Monomial(ring, tuple(exps))):
                    faces.add(candidate)
                    new.append(candidate)
        frontier = new
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
    for b in lcm_lattice(ideal):
        faces = _upper_koszul_faces(ideal, b)
        if not faces:
            continue
        for degree, dim in reduced_homology_dimensions(faces, char).items():
            entries[(degree + 2, b)] = dim
    return BettiTable(ring, ideal, _freeze_entries(entries))


def taylor_betti_table(ideal: MonomialIdeal, char: int = 0) -> BettiTable:
    """Betti numbers of R/I from the multigraded strands of the Taylor complex.

    Exponential in the number of generators; meant as a brute-force oracle
    for small inputs.
    """
    _require_char(char)
    ring = ideal.ring
    if ideal.is_unit:
        return BettiTable(ring, ideal, ())
    gens = ideal.generators
    if len(gens) > 14:
        raise IdealArgumentError("Taylor oracle limited to 14 generators")
    subsets_by_lcm: dict[Monomial, list[tuple[int, ...]]] = {}
    for mask in range(1 << len(gens)):
        subset = tuple(i for i in range(len(gens)) if mask >> i & 1)
        m = reduce(Monomial.lcm, (gens[i] for i in subset), ring.one())
        subsets_by_lcm.setdefault(m, []).append(subset)
    entries: dict[tuple[int, Monomial], int] = {}
    for b, strand in subsets_by_lcm.items():
        by_size: dict[int, list[tuple[int, ...]]] = {}
        for subset in strand:
            by_size.setdefault(len(subset), []).append(subset)
        for size in by_size:
            by_size[size].sort()
        index = {
            (size, subset): k
            for size, members in by_size.items()
            for k, subset in enumerate(members)
        }
        ranks: dict[int, int] = {}
        for size, members in by_size.items():
            if size == 0:
                continue
            below = by_size.get(size - 1, [])
            if not below:
                ranks[size] = 0
                continue
            matrix = [[0] * len(members) for _ in range(len(below))]
            for col, subset in enumerate(members):
                full = reduce(Monomial.lcm, (gens[i] for i in subset), ring.one())
                for drop in range(size):
                    sub = subset[:drop] + subset[drop + 1 :]
                    partial = reduce(
                        Monomial.lcm, (gens[i] for i in sub), ring.one()
                    )
                    if partial == full:
                        matrix[index[(size - 1, sub)]][col] = -1 if drop % 2 else 1
            ranks[size] = _rank(matrix, char)
        for size, members in by_size.items():
            h = len(members) - ranks.get(size, 0) - ranks.get(size + 1, 0)
            if h:
                entries[(size, b)] = h
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
