"""Every printer of exponent tuples against a test-local formatter.

Monomials, ideals, Betti tables, primary decompositions, irreducible
components and the script's printed values all print through the piece
tables of ``core._texts``.  Each is checked here against ``text``, an
f-string per (variable, exponent), at the exponents where a table
changes behaviour: 0, 1, 2, the bound just below, at and above it, and
near 2^62, both cold and with the tables already warm from an equal ring.
"""

import itertools
import random
import sys
import threading

import pytest

from idealkit import core, dsl
from idealkit.core import Monomial, MonomialIdeal, Ring
from idealkit.decomposition import irreducible_decomposition, primary_decomposition
from idealkit.homology import betti_table

BOUND = core._PIECE_BOUND
EXPONENTS = (0, 1, 2, BOUND - 1, BOUND, BOUND + 1, 2**62 - 1, 2**62, 2**62 + 1)
NAMES = ("x", "y", "z")


def text(names, e):
    """The monomial x^e over ``names``, printed one f-string per variable."""
    return "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k) or "1"


def ideal_text(ideal):
    if ideal.is_zero:
        return "(0)"
    return "(" + ", ".join(text(ideal.ring.variables, g.exponents) for g in ideal.generators) + ")"


def table_text(table):
    names = table.ring.variables
    rows = [f"({i}, {text(names, b.exponents)}): {v}" for i, b, v in table.entries]
    return "{" + ", ".join(rows) + "}"


def tuples(nvars):
    return list(itertools.product(EXPONENTS, repeat=nvars))


def warm(names):
    """Print every exponent of ``EXPONENTS`` over a ring equal to, but not the
    same object as, the one a test prints over."""
    ring = Ring(tuple(names))
    for e in tuples(len(names)):
        str(Monomial(ring, e))


def ideals(ring):
    """Ideals of ``ring`` whose generators take every exponent of ``EXPONENTS``."""
    rnd = random.Random(3)
    found = [MonomialIdeal.zero(ring), MonomialIdeal.unit(ring)]
    for k in EXPONENTS[1:]:
        found.append(MonomialIdeal(ring, tuple(ring.variable(i).power(k) for i in range(ring.nvars))))
    for _ in range(12):
        gens = [Monomial(ring, e) for e in rnd.sample(tuples(ring.nvars), 4)]
        found.append(MonomialIdeal(ring, tuple(gens)))
    return found


@pytest.fixture(params=["cold", "warm"])
def ring(request):
    if request.param == "warm":
        warm(NAMES)
    return Ring(NAMES)


def assert_tables_bounded(names):
    for table in core._pieces(tuple(names)):
        assert len(table) <= BOUND
        assert all(0 <= k < BOUND for k in table)


class TestPrinters:
    def test_monomials(self, ring):
        for e in tuples(ring.nvars):
            assert str(Monomial(ring, e)) == text(NAMES, e)
        assert_tables_bounded(NAMES)

    def test_ideals(self, ring):
        for ideal in ideals(ring):
            assert str(ideal) == ideal_text(ideal)
        assert_tables_bounded(NAMES)

    def test_betti_tables(self, ring):
        for ideal in ideals(ring)[2:]:
            for char in (0, 2):
                table = betti_table(ideal, char)
                assert str(table) == table_text(table)
        assert_tables_bounded(NAMES)

    def test_decompositions(self, ring):
        for ideal in ideals(ring)[2:]:
            components = irreducible_decomposition(ideal)
            for component in components:
                assert str(component) == ideal_text(component.as_ideal())
            shown = "{" + ", ".join(ideal_text(c.as_ideal()) for c in components) + "}"
            assert dsl.render_value(components) == shown
            decomposition = primary_decomposition(ideal)
            assert str(decomposition) == "{" + ", ".join(
                f"{p}: {ideal_text(q)}" for p, q in decomposition.components
            ) + "}"
        assert_tables_bounded(NAMES)

    def test_script_values(self, ring):
        for ideal in ideals(ring):
            assert dsl.render_value(ideal) == ideal_text(ideal)
            assert dsl.render_value((ideal, ideal.ring.one())) == f"[{ideal_text(ideal)}, 1]"
        for e in tuples(ring.nvars):
            assert dsl.render_value(Monomial(ring, e)) == text(NAMES, e)
        assert_tables_bounded(NAMES)


class TestPieceTables:
    def test_equal_rings_share_the_tables(self):
        a, b = Ring(NAMES), Ring(tuple(NAMES))
        assert a is not b
        str(a.variable(0).power(5))
        assert core._pieces(a.variables) is core._pieces(b.variables)
        assert core._pieces(b.variables)[0][5] == "x^5"

    def test_a_table_keeps_only_the_exponents_below_the_bound(self):
        ring = Ring(("t",))
        for k in range(3 * BOUND):
            assert str(Monomial(ring, (k,))) == text(("t",), (k,))
        (table,) = core._pieces(("t",))
        assert sorted(table) == list(range(BOUND))

    def test_threads_filling_one_table_print_alike(self):
        ring = Ring(NAMES)
        rnd = random.Random(7)
        cases = [tuple(rnd.randint(0, 2 * BOUND) for _ in NAMES) for _ in range(3000)]
        expected = [text(NAMES, e) for e in cases]
        results = [None] * 4

        def work(k):
            core._pieces.cache_clear()
            order = list(range(len(cases)))
            random.Random(k).shuffle(order)
            found = [None] * len(cases)
            for n in order:
                found[n] = str(Monomial(ring, cases[n]))
            results[k] = found

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(r == expected for r in results)
        assert_tables_bounded(NAMES)
