"""A tuple reference for the packed mapping cone ``homology._cone_ranks``.

``tuple_cone_ranks`` is the tree as it ran on exponent tuples, before it
was packed, and ``tuple_collapse_keys`` lists the facet tuples that the
tuple route passed to ``homology._collapse_core``.  ``packed_cone_ranks``
runs the packed tree on tuples through the layout helpers of
``packed_meet``, which share no code with the package's own layout, so a
test can run both trees on one input and compare them.
"""

from idealkit.core import _antichain
from idealkit.homology import _cone_ranks, _maximal
from packed_meet import guard, pack, unpack, width


def tuple_cone_ranks(gens) -> dict[tuple[int, ...], list[int]]:
    """For each multidegree b, the degrees of the basis elements of
    multidegree b in the iterated mapping cone that resolves the ideal of
    ``gens`` (its minimal generators as exponent tuples): d appears r_d(b)
    times, in no fixed order.

    A node (g_1 .. g_k, d) takes each g_j in turn as the pivot m of the
    prefix (g_1 .. g_j): m adds one basis element in degree d, and the
    intersection (g_1 .. g_(j-1)) cap (m), generated by the antichain of
    the lcm(g_i, m), is a node of degree d + 1.  A one-generator
    intersection is counted at once.  No generators give {}.  No lcm of
    two distinct minimal generators is a generator, so the generators are
    exactly the multidegrees with a basis element in degree 0, one each.
    A list per multidegree holds less than a {d: r_d(b)} counter would.
    """
    ranks: dict[tuple[int, ...], list[int]] = {}
    stack = [(gens, 0)]
    while stack:
        node, d = stack.pop()
        for j, m in enumerate(node):
            ranks.setdefault(m, []).append(d)
            if j == 1:
                # One lcm, counted here rather than pushed: pays on fuzz-default.
                ranks.setdefault(tuple(map(max, node[0], m)), []).append(d + 1)
            elif j:
                lcms = [tuple(map(max, g, m)) for g in node[:j]]
                stack.append((_antichain(lcms), d + 1))
    return ranks


def packed_cone_ranks(gens, nvars, spare=0):
    """``homology._cone_ranks`` on tuples: pack in fields wide enough for
    the degree, with ``spare`` bits beyond the least, and unpack the keys."""
    w = width(nvars * max(map(max, gens), default=0), spare)
    ranks = _cone_ranks([pack(g, w) for g in gens], (1 << w) - 1, guard(nvars, w))
    return {unpack(b, nvars, w): at for b, at in ranks.items()}


def tuple_collapse_keys(gens):
    """The facet tuples the tuple route passed to ``_collapse_core``, in
    call order: one per multidegree whose ranks sit in consecutive degrees."""
    keys = []
    for b, at in tuple_cone_ranks(gens).items():
        if 0 in at or not any(d + 1 in at for d in at):
            continue
        faces = set()
        for g in gens:
            face = 0
            for k, (e, top) in enumerate(zip(g, b)):
                if e > top:
                    break
                if e < top:
                    face |= 1 << k
            else:
                faces.add(face)
        keys.append(tuple(_maximal(faces)))
    return keys
