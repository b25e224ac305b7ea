"""Small rings, the ideal parser and the hypothesis strategies over a fixed
3-variable ring that several test modules share."""

from hypothesis import strategies as st

from idealkit.core import MonomialIdeal, Ring

A = Ring.of("a", "b")
XY = Ring.of("x", "y")
R3 = Ring.of("x", "y", "z")


def ideal(ring, text):
    return MonomialIdeal.parse(ring, text)


exponent_vectors = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)
monomials3 = exponent_vectors.map(lambda e: R3.monomial(e))
ideals3 = st.lists(monomials3, min_size=1, max_size=4).map(
    lambda gens: MonomialIdeal(R3, tuple(gens))
)
proper3 = ideals3.filter(lambda i: not i.is_zero and not i.is_unit)
