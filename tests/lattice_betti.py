"""The lcm-lattice route to Betti tables, kept as a reference.

``homology.betti_table`` used to walk every point of the lcm lattice and
read K^b homology at each point that is not a simplex.  It now reads
ranks off a Mayer-Vietoris tree and takes K^b homology only where they
are ambiguous.  The walk and the table built on it are kept here
verbatim, as an oracle that has no generator cap: the Taylor oracle stops
at 14 generators, and the walk checks the tree's tables past that.  The
walk also backs the tests of the lattice facts that the closed form of
K^b rests on (``lattice_points``, ``walk_facets``).

The walk is independent of the tree.  It shares with the library only
the K^b steps (``_maximal``, ``_collapse_core``, ``_core_homology``),
which their own tests check against ``reduced_homology_dimensions``.
"""

from functools import reduce
from operator import and_

from idealkit.core import MonomialIdeal, _unchecked
from idealkit.homology import (
    BettiTable,
    _collapse_core,
    _core_homology,
    _maximal,
    _require_char,
)


def lattice_walk(gens):
    """Each point b of the lcm lattice of ``gens`` (exponent tuples) whose
    K^b is not a simplex, with its faces: the distinct sets
    S_g(b) = {i : g_i < b_i} of the generators g dividing b, as vertex
    bitmasks, in no particular order.

    A depth-first walk over the variables.  A node at depth k holds the
    prefix b_0..b_(k-1), the candidate generators (those with g_j <= b_j
    for j < k), their blocks on the first k variables (pairs of a
    generator bitmask, generator k as bit k, and the face they share
    there), and for each j < k the candidates with g_j = b_j.  A child
    takes a level v of variable k that some candidate has, keeps the
    candidates with g_k <= v, and splits each block once by g_k < v; at
    the last variable only the faces of the split are kept.  It is cut
    when some earlier j is left with no candidate attaining b_j.  A node
    that survives extends to a lattice point (the lcm of its candidates
    has its prefix), so the walk has no dead ends, and each point is
    reached once.  At the leaf the faces' union and their numerically
    largest member are tracked as the faces are built; when they are
    equal, one face holds all the others, K^b is a simplex (the complex
    {emptyset} of a minimal generator included) and the point is dropped.
    The points stream in no particular order; no generators give none.
    """
    if not gens:
        return
    last = len(gens[0]) - 1
    levels = []  # per variable: (v, g_i == v mask, g_i < v mask), v ascending
    for column in zip(*gens):
        at: dict[int, int] = {}
        for k, e in enumerate(column):
            at[e] = at.get(e, 0) | 1 << k
        below = 0
        row = []
        for v in sorted(at):
            row.append((v, at[v], below))
            below |= at[v]
        levels.append(row)
    everyone = (1 << len(gens)) - 1
    stack = [((), everyone, [(everyone, 0)], ())]
    while stack:
        prefix, candidates, blocks, attained = stack.pop()
        depth = len(prefix)
        bit = 1 << depth
        reached = False  # every earlier b_j stays attained from here up
        for v, equal, lower in levels[depth]:
            attaining = candidates & equal
            if not attaining:
                continue
            kept = candidates & (equal | lower)
            if not reached:
                for tight in attained:
                    if not kept & tight:
                        break
                else:
                    reached = True
                if not reached:
                    continue
            if depth == last:
                faces = []
                union = top = 0
                for block, face in blocks:
                    if block & lower:
                        inside = face | bit
                        faces.append(inside)
                        union |= inside
                        if inside > top:
                            top = inside
                    if block & equal:
                        faces.append(face)
                        union |= face
                        if face > top:
                            top = face
                if union != top:
                    yield prefix + (v,), faces
                continue
            split = []
            for block, face in blocks:
                inside = block & lower
                if inside:
                    split.append((inside, face | bit))
                outside = block & equal
                if outside:
                    split.append((outside, face))
            stack.append((prefix + (v,), kept, split, attained + (attaining,)))


# The reduced homology of two disjoint simplices (see ``lattice_betti_table``).
_TWO_SIMPLICES = ((0, 1),)


def lattice_betti_table(ideal: MonomialIdeal, char: int = 0) -> BettiTable:
    """Multigraded Betti numbers of R/I via upper Koszul complexes.

    Two maximal faces that share no vertex give beta_{2,b} = 1 and nothing
    else: both are nonempty (the empty face lies inside any other), so
    K^b is the disjoint union of two simplices.  Each simplex is
    contractible, so K^b has two path components and no other homology:
    H~_0 has dimension 2 - 1 = 1 and H~_k = 0 for k != 0, over every
    field.  Such a point needs no collapse and no rank.
    """
    _require_char(char)
    ring = ideal.ring
    if ideal.is_unit:
        return _unchecked(BettiTable, ring=ring, against=ideal, _rows=())
    rows = []  # (i, degree of b, negated b, b, beta_{i,b}): sorted as sort_key
    for b, faces in lattice_walk(ideal._exps):
        facets = _maximal(faces)
        if reduce(and_, facets):
            continue  # a cone: every maximal face holds a common vertex
        if len(facets) == 2:
            homology = _TWO_SIMPLICES
        else:
            core = _collapse_core(tuple(facets))
            if len(core) == 1:
                continue  # collapses onto a simplex: contractible
            homology = _core_homology(core, char)
        degree_of_b, negated = sum(b), tuple([-e for e in b])
        for degree, dim in homology:
            rows.append((degree + 2, degree_of_b, negated, b, dim))
    rows.sort()
    # The generators are the points with the one face {emptyset}, in _exps
    # already in sort_key order, and every other row has i >= 2.
    table = [(0, (0,) * ring.nvars, 1)]
    table += [(1, g, 1) for g in ideal._exps]
    table += [(i, b, dim) for i, _, _, b, dim in rows]
    return _unchecked(BettiTable, ring=ring, against=ideal, _rows=tuple(table))


def lattice_points(i):
    """The lattice points of i as exponent tuples, in the walk's order."""
    return [b for b, _ in lattice_walk([g.exponents for g in i.generators])]


def walk_facets(i):
    """The lattice points of i, each mapped to the maximal faces of K^b."""
    gens = [g.exponents for g in i.generators]
    return {b: _maximal(faces) for b, faces in lattice_walk(gens)}
