"""The rings, ideals and hypothesis strategies that several test modules
share: small rings, the ideal parser, memo-free references for powers
and printed monomials, strategies over a fixed 3-variable ring, the
pathological ideal and the real projective plane, and ideals with
exponents at the packed kernels' field-width boundaries."""

from hypothesis import strategies as st

from idealkit.core import MonomialIdeal, Ring, _ideal, ideal_product

A = Ring.of("a", "b")
XY = Ring.of("x", "y")
R3 = Ring.of("x", "y", "z")
R4 = Ring.of("x", "y", "z", "t")
R5 = Ring.of("a", "b", "c", "d", "e")
R12 = Ring(tuple("abcdefghijkl"))
# A sum of four summands in disjoint variables, over R12.
PATHOLOGICAL = "a^2*b, a*b*c, c^2*d, e*f, g*h, i*j*k*l"
# The Stanley-Reisner ideal of the 6-vertex real projective plane, over
# ABCDEF; at a*b*c*d*e*f its cone ranks are {2: 1, 3: 1}.
ABCDEF = Ring.of(*"abcdef")
PROJECTIVE_PLANE = "a*b*d, a*b*e, a*c*d, a*c*f, a*e*f, b*c*e, b*c*f, b*d*f, c*d*e, d*e*f"


def ideal(ring, text):
    return MonomialIdeal.parse(ring, text)


def product_loop(i, s):
    """I^s as s products from the unit ideal, with no memo."""
    result = MonomialIdeal.unit(i.ring)
    for _ in range(s):
        result = ideal_product(result, i)
    return result


def monomial_text(names, e):
    """The monomial x^e over ``names``, printed one f-string per variable."""
    return "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k) or "1"


exponent_vectors = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)
monomials3 = exponent_vectors.map(lambda e: R3.monomial(e))
ideals3 = st.lists(monomials3, min_size=1, max_size=4).map(
    lambda gens: MonomialIdeal(R3, tuple(gens))
)
proper3 = ideals3.filter(lambda i: not i.is_zero and not i.is_unit)


# Exponents at the packed kernels' field-width boundaries: 2^k - 1 fills k
# bits, and 2^k and 2^k + 1 need one more, up to k = 62, where a field with
# its guard bit passes 64 bits.  13 fields of 3 or more bits span several
# 30-bit CPython digits.
BOUNDARY_EXPONENTS = sorted({2**k + d for k in (1, 2, 3, 30, 62) for d in (-1, 0, 1)})
X1 = Ring.of("x")
R13 = Ring(tuple("abcdefghijklm"))


def sparse_ideal(ring, gens):
    """The ideal of ``ring`` generated by {variable index: exponent} dicts."""
    return _ideal(ring, [tuple(g.get(i, 0) for i in range(ring.nvars)) for g in gens])


def boundary_ideals(ring, max_vars, max_gens):
    """Ideals of 1 to ``max_gens`` generators, each in 1 to ``max_vars``
    variables, with boundary exponents."""
    variable, exponent = st.integers(0, ring.nvars - 1), st.sampled_from(BOUNDARY_EXPONENTS)
    generator = st.dictionaries(variable, exponent, min_size=1, max_size=max_vars)
    gens = st.lists(generator, min_size=1, max_size=max_gens)
    return gens.map(lambda gens: sparse_ideal(ring, gens))
