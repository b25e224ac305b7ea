"""Multigraded Betti numbers, depth, and Castelnuovo-Mumford regularity.

Betti numbers of R/I come from an iterated mapping cone over the
generators (a Mayer-Vietoris tree, Saenz-de-Cabezon, Appl. Algebra Engrg.
Comm. Comput. 20, 2009).  For J = J' + (m), the sequence
0 -> J' cap (m) -> J' (+) (m) -> J -> 0 is exact and J' cap (m) is
generated by the lcm(g, m) of the generators g of J', so the mapping cone
of a lift of the left map resolves J.  Unrolled over the generators
(``_cone_ranks``), this gives a multigraded free resolution F of I, not
always minimal, with one basis element per tree node: r_d(b) of them in
homological degree d and multidegree b.  Tor_d(I, k)_b is the homology of
(F (x) k)_b, a complex of dimension r_d(b) in degree d.  Where no two
nonzero r_d(b) sit in consecutive degrees every map of that complex is 0,
so beta_{d+1,b}(R/I) = r_d(b) over any field; this holds at most
multidegrees, and no homology is computed there.  Most multidegrees hold
one basis element, and give their row at once.

At the other multidegrees the numbers come from reduced simplicial
homology.  Let K^b be the simplicial complex of squarefree vectors t with
x^(b-t) in I (the upper Koszul complex of I at b).  The convention used
and tested throughout is

    beta_{i,b}(R/I) = dim H~_{i-2}(K^b)       for i >= 1,

with beta_{0,0}(R/I) = 1.  K^b has a closed form (Miller-Sturmfels,
Combinatorial Commutative Algebra, Thm 1.34 and ch. 5): x^(b-t) lies in I
iff some generator g divides b with t inside S_g(b) = {i : g_i < b_i}, so
K^b is the complex generated by the sets S_g(b) of the generators g
dividing b.  Its maximal faces (``_maximal``) are shrunk to a
strong-collapse core (Barmak-Minian, Discrete Comput. Geom. 47, 2012): a
vertex whose facets all share one other vertex is deleted, which keeps
the homology in every characteristic.  Two memos (``core._memo``) hold
the rest: ``_collapse_core``
maps the sorted tuple of maximal facet masks to its core, with no
characteristic in the key, and ``_core_homology`` maps a core and the
characteristic to its homology.  Both are ring-free and ideal-free.
Vertices keep their labels in the core.  Homology ranks come from one
exact column reduction over sparse boundary columns (``_rank``), on
fractions in characteristic zero and on residues mod p otherwise.

Only the tree and the row keys run on packed exponent tuples, in
``core._layout`` with top = n * (the largest exponent) for n variables,
so the degree of every lcm, and every field, stays below 2^(w-1) for
w = bit_length(top) + 1.  ``betti_table`` packs the generators once; ``_cone_ranks``
takes lcms, tests divisibility and reads degrees on the packed ints.
Each face S_g(b) is read from exponent tuples: ``compress`` keeps bit i iff g_i < b_i.

The rows of i >= 2 are sorted on (i, degree, -b) for packed b, the order
of ``Monomial.sort_key`` (a descending packed int is a descending
exponent tuple), and each multidegree is unpacked once.  The table keeps
its rows as (i, exponent tuple, beta) triples, as an ideal keeps
``_exps``: printing it, comparing it and reading its invariants build no
Monomial, and its ``entries`` are built on first read.  It prints its
multidegrees through ``core._texts``, from the piece tables that every
ideal and monomial over the same variable names prints from.

An independent Taylor-complex oracle computes the same numbers from the
generator-subset strands and backs the test suite; it shares only
``_rank`` with the route above: no tree, no core, no memo and no row
sort.  It builds its table through the public ``BettiTable`` constructor
from ``Monomial`` entries, sorted once by (i, ``Monomial.sort_key``).
The module reads only ``core``.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import compress
from operator import lshift, lt, or_

from .core import (
    IdealArgumentError,
    Monomial,
    MonomialIdeal,
    _ideal,
    _layout,
    _memo,
    _monomial,
    _texts,
    _unchecked,
    _Value,
    _whole_numbers,
)


class ExtendedInt(_Value):
    """An integer extended with +inf and -inf, for the depth/reg conventions."""

    __match_args__ = ("value",)

    def __init__(self, value: int | float):
        if value not in (float("inf"), float("-inf")):
            (value,) = _whole_numbers((value,))
        super().__init__(value)

    def __add__(self, other: "ExtendedInt") -> "ExtendedInt":
        a, b = self.value, other.value
        # An infinity absorbs an int, which may be too large to convert to float.
        total = a + b if type(a) is type(b) else (a if type(a) is float else b)
        if total != total:  # only +inf plus -inf is NaN
            raise ValueError("cannot add +inf and -inf")
        return ExtendedInt(total)

    def __lt__(self, other: "ExtendedInt") -> bool:
        return self.value < other.value

    def __le__(self, other: "ExtendedInt") -> bool:
        return self.value <= other.value

    def __str__(self):
        return f"{self.value:+}" if isinstance(self.value, float) else str(self.value)


POS_INF = ExtendedInt(float("inf"))
NEG_INF = ExtendedInt(float("-inf"))


# Miller-Rabin with these bases is exact below 3.18e23 (Sorenson and
# Webster 2015), so it decides every characteristic below _CHAR_LIMIT.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_CHAR_LIMIT = 1 << 64


def _is_prime_number(p: int) -> bool:
    if p < 2:
        return False
    for b in _PRIME_BASES:
        if p % b == 0:
            return p == b
    # p - 1 = d * 2^r with d odd; (1 - p) & (p - 1) isolates its lowest bit.
    r = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> r
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _require_char(char: int):
    # A whole float such as 2.0 passes the primality test but not pow(b, d, p).
    if type(char) is not int:
        raise ValueError(f"characteristic must be an int, got {char!r}")
    if char >= _CHAR_LIMIT:
        raise ValueError(f"characteristic must be below 2^64, got {char}")
    if char != 0 and not _is_prime_number(char):
        raise ValueError(f"characteristic must be 0 or a prime, got {char}")


def _rank(columns: list[dict[int, int]], char: int) -> int:
    """Rank of the matrix with these sparse columns ({row: entry}), exactly:
    over the rationals in characteristic 0 and over GF(char) otherwise.

    Column reduction (Zomorodian-Carlsson, Discrete Comput. Geom. 33,
    2005): a column is reduced by the kept column whose lowest (largest)
    row is its own, until it is zero or its lowest row is new; then it is
    scaled to 1 there and kept.  The rank is the number of kept columns.
    """
    kept: dict[int, dict[int, int]] = {}  # lowest row -> column, 1 there
    for column in columns:
        if char:
            column = {row: v % char for row, v in column.items() if v % char}
        else:
            column = {row: v for row, v in column.items() if v}
        while column:
            low = max(column)
            pivot = kept.get(low)
            if pivot is None:
                v = column[low]
                if char:
                    inverse = pow(v, -1, char)
                    column = {row: w * inverse % char for row, w in column.items()}
                elif v == -1:  # its own inverse, which keeps entries integers
                    column = {row: -w for row, w in column.items()}
                elif v != 1:
                    # Imported here, its only use: most runs never reach it.
                    from fractions import Fraction

                    inverse = 1 / Fraction(v)
                    column = {row: w * inverse for row, w in column.items()}
                kept[low] = column
                break
            factor = column[low]
            for row, w in pivot.items():
                v = column.get(row, 0) - factor * w
                if char:
                    v %= char
                if v:
                    column[row] = v
                else:
                    del column[row]
    return len(kept)


def _homology_dims(faces, char: int) -> dict[int, int]:
    """Reduced homology dims of a simplicial complex whose faces are given
    as vertex bitmasks, closed under taking subsets.

    Keys are homological degrees (the empty face sits in degree -1).  The
    boundary column of a face is keyed by its codimension-one faces: the
    one without the k-th lowest vertex has sign (-1)^k.  The empty face
    has an empty boundary column, so the rank in size 0 is 0.
    """
    by_size: dict[int, list[int]] = {}
    for face in sorted(faces):
        by_size.setdefault(face.bit_count(), []).append(face)
    ranks = {}
    for t, members in by_size.items():
        columns = []
        for face in members:
            column, sign, rest = {}, 1, face
            while rest:
                vertex = rest & -rest
                column[face ^ vertex] = sign
                sign, rest = -sign, rest ^ vertex
            columns.append(column)
        ranks[t] = _rank(columns, char)
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


def _cone_ranks(gens, full: int, guard: int) -> dict[int, list[int]]:
    """For each multidegree b, the degrees of the basis elements of
    multidegree b in the iterated mapping cone that resolves the ideal of
    ``gens`` (its minimal generators, packed by ``core._layout`` with field
    mask ``full`` and guard ``guard``, in ``Monomial.sort_key`` order): d
    appears r_d(b) times, in no fixed order.  The keys are packed too.

    A node (g_1 .. g_k, d) takes each g_j in turn as the pivot m of the
    prefix (g_1 .. g_j): m adds one basis element in degree d, and the
    intersection (g_1 .. g_(j-1)) cap (m), generated by the antichain of
    the lcm(g_i, m), is a node of degree d + 1.  A one-generator
    intersection is counted at once.  No generators give {}.  No lcm of
    two distinct minimal generators is a generator, so the generators are
    exactly the multidegrees with a basis element in degree 0, one each.
    A list per multidegree holds less than a {d: r_d(b)} counter would.

    Packed lemmas, with w the field width and every field below 2^(w-1)
    (the layout is wide enough for the degree, so also for every field);
    divisibility is the test of ``core._layout``:

    - lcm.  ge = ((a | G) - m) & G keeps the guard bit of field i iff
      a_i >= m_i, that test field by field; k = ge - (ge >> (w - 1)) fills
      the low w - 1 bits of those fields, so lcm(a, m) = a & k | m & ~k,
      written m ^ (a ^ m) & k.
    - Order.  The degree of x is x % full, as 2^w = 1 mod full and the
      sum of the fields stays below full.  Variable 0 sits in the highest
      field, so descending packed ints are descending tuples, and each
      node is in the order of ``core._antichain``: degree ascending, then
      descending.  The tree is node for node the one on tuples.
    """
    shift = full.bit_length() - 1
    ranks: dict[int, list[int]] = {}
    stack = [(gens, 0)]
    while stack:
        node, d = stack.pop()
        for j, m in enumerate(node):
            ranks.setdefault(m, []).append(d)
            if j == 1:
                # One lcm, counted here rather than pushed: pays on fuzz-default.
                a = node[0]
                ge = ((a | guard) - m) & guard
                ranks.setdefault(m ^ (a ^ m) & ge - (ge >> shift), []).append(d + 1)
            elif j:
                lcms = set()
                for a in node[:j]:
                    ge = ((a | guard) - m) & guard
                    lcms.add(m ^ (a ^ m) & ge - (ge >> shift))
                # The antichain of the lcms, as core._antichain builds it:
                # each is tested against the kept ones of lower degree.
                kept: list[int] = []
                lower: list[int] = []
                degree = None
                for e, x in sorted([(-(x % full), x) for x in lcms], reverse=True):
                    if e != degree:
                        degree = e
                        lower = kept.copy()
                    ceiling = x | guard
                    for h in lower:
                        if (ceiling - h) & guard == guard:
                            break
                    else:
                        kept.append(x)
                stack.append((kept, d + 1))
    return ranks


def _maximal(faces) -> list[int]:
    """The faces not inside another one, ascending; ``faces`` are distinct.

    A face can only lie inside a numerically larger one, so a descending
    scan needs to test each face against the maximal faces kept so far.
    """
    kept: list[int] = []
    for face in sorted(faces, reverse=True):
        for other in kept:
            if face & other == face:
                break
        else:
            kept.append(face)
    kept.reverse()
    return kept


def _upper_koszul_faces(facets) -> set[int]:
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


@_memo
def _collapse_core(facets: tuple[int, ...]) -> tuple[int, ...]:
    """The facets, ascending, of a strong-collapse core of the complex
    generated by ``facets`` (its maximal faces as vertex bitmasks, a tuple).

    A vertex v is dominated when every facet that holds v also holds one
    other vertex u.  Deleting v (each facet loses v, and those then inside
    another facet are dropped) is a strong deformation retraction
    (Barmak-Minian, Discrete Comput. Geom. 47, 2012), so the reduced
    homology is the same in every characteristic.  Dominated vertices are
    deleted one at a time, lowest first, until none is left or one facet
    is.  Vertices keep their labels.  Memoised (``core._memo``) on the
    facet tuple; the core does not depend on the characteristic.
    """
    facets = list(facets)
    deleted = True
    while deleted and len(facets) > 1:
        deleted = False
        vertices = reduce(or_, facets)
        while vertices:
            v = vertices & -vertices
            vertices ^= v
            shared = -1
            for facet in facets:
                if facet & v:
                    shared &= facet
            if shared != v:
                facets = _maximal({facet & ~v for facet in facets})
                deleted = True
                if len(facets) == 1:
                    break
    return tuple(facets)


@_memo
def _core_homology(core: tuple[int, ...], char: int) -> tuple[tuple[int, int], ...]:
    """(degree, dim) pairs of the reduced homology of the complex generated
    by ``core`` (its facets as vertex bitmasks, ascending), memoised
    (``core._memo``) on the core and the characteristic."""
    return tuple(_homology_dims(_upper_koszul_faces(core), char).items())


class BettiTable(_Value):
    """Nonzero multigraded Betti numbers of R/I, with derived invariants.

    The zero module (I the unit ideal) has an empty table, depth +inf and
    regularity -inf.  The table holds its rows ``_rows`` as triples
    (i, exponent tuple of b, beta_{i,b}); ``entries``, the same triples
    with a ``Monomial`` for b, is built from them when first read, and
    then kept.  The public constructor takes ``entries`` and derives the
    rows from them on first use.  Equality, the hash, ``str`` and every
    invariant read the rows, so a table that is only compared or printed
    builds no ``Monomial``; ``str`` prints each b through ``core._texts``.
    """

    __match_args__ = ("ring", "against", "entries")

    @cached_property
    def entries(self) -> tuple[tuple[int, Monomial, int], ...]:
        ring = self.ring
        return tuple([(i, _monomial(ring, e), v) for i, e, v in self._rows])

    @cached_property
    def _rows(self) -> tuple[tuple[int, tuple[int, ...], int], ...]:
        return tuple([(i, b.exponents, v) for i, b, v in self.entries])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.ring, self.against, self._rows) == (
                other.ring, other.against, other._rows
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.against, self._rows))

    def multiplicity(self, i: int, b: Monomial) -> int:
        if b.ring == self.ring:
            for j, e, v in self._rows:
                if j == i and e == b.exponents:
                    return v
        return 0

    def total_betti(self, i: int) -> int:
        return sum(v for j, _, v in self._rows if j == i)

    def projective_dimension(self) -> int | None:
        if not self._rows:
            return None
        return max(i for i, _, _ in self._rows)

    def depth(self) -> ExtendedInt:
        pd = self.projective_dimension()
        if pd is None:
            return POS_INF
        return ExtendedInt(self.ring.nvars - pd)

    def regularity(self) -> ExtendedInt:
        if not self._rows:
            return NEG_INF
        return ExtendedInt(max(sum(e) - i for i, e, _ in self._rows))

    def __str__(self):
        if not self._rows:
            return "{}"
        rows = self._rows
        texts = _texts(self.ring.variables, [e for _, e, _ in rows])
        return "{" + ", ".join([
            f"({i}, {text}): {v}" for (i, _, v), text in zip(rows, texts)
        ]) + "}"


def betti_table(ideal: MonomialIdeal, char: int = 0) -> BettiTable:
    """Multigraded Betti numbers of R/I, from the ranks of ``_cone_ranks``.

    The cone F resolves I, so beta_{d+1,b}(R/I) = dim Tor_d(I, k)_b is the
    homology at degree d of (F (x) k)_b, whose term at degree d has
    dimension r_d(b).  When no two nonzero r_d(b) sit in consecutive
    degrees, each map of that complex starts or ends at 0, so it is 0 and
    the homology is r_d(b) itself, over every field.  A multidegree with
    one basis element, in degree d >= 1, gives the row (d + 1, b, 1) at
    once; one in degree 0 is a generator, whose beta_1 row is read off
    ``_exps``.  Only at the other multidegrees is K^b built, from the
    S_g(b) = {i : g_i < b_i} of the generators g dividing b, and its
    homology read on its collapse core.  For example, the
    Stanley-Reisner ideal of the 6-vertex real projective plane has
    r_2(b) = r_3(b) = 1 at the product b of its variables, and K^b gives
    beta_3 = beta_4 = 1 in characteristic 2 and nothing otherwise.
    """
    _require_char(char)
    ring = ideal.ring
    if ideal.is_unit:
        return _unchecked(BettiTable, ring=ring, against=ideal, _rows=())
    gens = ideal._exps
    nvars = ring.nvars
    full, shifts, guard = _layout(nvars, nvars * max(map(max, gens), default=0))
    packed = [sum(map(lshift, g, shifts)) for g in gens]
    bits = [1 << i for i in range(nvars)]
    rows = []  # (i, degree of b, -b, b as a tuple, beta_{i,b}): sorted as sort_key
    for b, at in _cone_ranks(packed, full, guard).items():
        if len(at) == 1:
            d = at[0]
            if d:  # d == 0 is a generator: its beta_1 = 1 row is read off _exps
                rows.append((d + 1, b % full, -b, tuple([b >> s & full for s in shifts]), 1))
            continue
        exps = tuple([b >> s & full for s in shifts])
        if any(d + 1 in at for d in at):
            # core._layout's test finds the g dividing b; S_g(b) = {i : g_i < b_i}.
            c = b | guard
            faces = {
                sum(compress(bits, map(lt, g, exps)))
                for g, p in zip(gens, packed) if (c - p) & guard == guard
            }
            core = _collapse_core(tuple(_maximal(faces)))
            betti = [(degree + 2, dim) for degree, dim in _core_homology(core, char)]
        else:
            betti = [(d + 1, at.count(d)) for d in set(at)]
        degree_of_b = b % full
        for i, dim in betti:
            rows.append((i, degree_of_b, -b, exps, dim))
    rows.sort()
    # The generators are in _exps already in sort_key order, and every
    # other row has i >= 2; skipping their sort pays on the betti workload.
    table = [(0, (0,) * nvars, 1)]
    table += [(1, g, 1) for g in gens]
    table += [(i, b, dim) for i, _, _, b, dim in rows]
    return _unchecked(BettiTable, ring=ring, against=ideal, _rows=tuple(table))


def taylor_betti_table(ideal: MonomialIdeal, char: int = 0) -> BettiTable:
    """Betti numbers of R/I from the multigraded strands of the Taylor complex.

    Generator subsets are bitmasks.  The lcm of a subset S is computed once,
    as lcm(S - {max S}) joined with the generator max S, and the subsets
    are grouped into strands by lcm.  The boundary column of S is keyed by
    the subsets, one bit smaller, that stay in the same strand.  Exponential
    in the number of generators; meant as a brute-force oracle for small
    inputs.
    """
    _require_char(char)
    ring = ideal.ring
    if ideal.is_unit:
        return BettiTable(ring, ideal, ())
    gens = ideal._exps
    if len(gens) > 14:
        raise IdealArgumentError("Taylor oracle limited to 14 generators")
    lcms = [(0,) * ring.nvars]
    for mask in range(1, 1 << len(gens)):
        top = mask.bit_length() - 1
        lcms.append(tuple(map(max, lcms[mask ^ (1 << top)], gens[top])))
    strands: dict[tuple[int, ...], list[int]] = {}
    for mask, b in enumerate(lcms):
        strands.setdefault(b, []).append(mask)
    entries: list[tuple[int, Monomial, int]] = []
    for b, strand in strands.items():
        by_size: dict[int, list[int]] = {}
        for mask in strand:
            by_size.setdefault(mask.bit_count(), []).append(mask)
        ranks: dict[int, int] = {}
        for size, members in by_size.items():
            if size - 1 not in by_size:
                continue
            columns = []
            for mask in members:
                column, sign, rest = {}, 1, mask
                while rest:
                    bit = rest & -rest
                    if lcms[mask ^ bit] == b:
                        column[mask ^ bit] = sign
                    sign, rest = -sign, rest ^ bit
                columns.append(column)
            ranks[size] = _rank(columns, char)
        for size, members in by_size.items():
            h = len(members) - ranks.get(size, 0) - ranks.get(size + 1, 0)
            if h:
                entries.append((size, Monomial(ring, b), h))
    entries.sort(key=lambda e: (e[0], e[1].sort_key()))
    return BettiTable(ring, ideal, tuple(entries))


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
    return _ideal(
        ideal.ring,
        [g[:v] + (e - 1,) + g[v + 1:] for g in ideal._exps for v, e in enumerate(g) if e],
    )
