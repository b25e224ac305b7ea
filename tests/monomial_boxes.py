"""Brute-force monomial enumeration for the oracles of the test suite.

The library never enumerates a degree box or a divisor box; the tests use
these to check closed forms against every monomial in a finite region.
"""

import itertools

from idealkit.core import Monomial, Ring


def monomials_below(bound: Monomial):
    """All monomials dividing ``bound`` exponentwise, in a fixed order."""
    ring = bound.ring
    for exps in itertools.product(*(range(e + 1) for e in bound.exponents)):
        yield Monomial(ring, exps)


def monomials_of_degree_at_most(ring: Ring, limit: int):
    """All monomials of total degree <= limit, ordered by the canonical key."""
    out = []
    for total in range(limit + 1):
        for exps in _compositions(total, ring.nvars):
            out.append(Monomial(ring, exps))
    return sorted(out, key=Monomial.sort_key)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest
