"""One row per idealkit memo, and the two halves of the contract that
each row keeps.

A row names a memo, argument tuples for more distinct keys than
``core._MEMO_SIZE``, the public call that fills the memo, and a
test-local reference: the memo's uncached ``__wrapped__`` body, or a
route with no memo at all.  ``tests/test_memos.py`` runs every row; a
module's own memo tests run its row through the same checks.
"""

import random
from collections import namedtuple
from unittest import mock

from idealkit import core, dsl, homology
from idealkit.binomial import join_rings
from idealkit.core import Monomial, Ring, _MEMO_SIZE, ideal_power
from idealkit.decomposition import IrreducibleComponent, _irredundant, irreducible_decomposition
from idealkit.dsl import run_script
from idealkit.homology import betti_table
from idealkit.powers import NOTIONS, _saturated, _symbolic_direct, saturated_power, symbolic_power
from conftest import in_threads, module_container_sizes
from small_ideals import ABCDEF, PROJECTIVE_PLANE, XY, ideal, sparse_ideal
from small_ideals import monomial_text, product_loop

Row = namedtuple("Row", "memo call reference cases")


def uncached_decomposition(i):
    components = _irredundant.__wrapped__(i._exps)
    return tuple(IrreducibleComponent(i.ring, c) for c, _ in components)


def uncached_betti_table(i, char):
    with mock.patch.multiple(
        homology,
        _collapse_core=homology._collapse_core.__wrapped__,
        _core_homology=homology._core_homology.__wrapped__,
    ):
        return betti_table(i, char)


def relabelled_projective_planes(count):
    """The projective plane's ideal on ``count`` seeded choices of 6 of 12
    variables, each in characteristic 0, 2 or 3: every relabelling gives
    its own facet tuples and cores, and the core at the product of the
    variables has homology in characteristic 2 only."""
    ring = Ring(tuple(f"x{k}" for k in range(12)))
    plane = ideal(ABCDEF, PROJECTIVE_PLANE)
    rnd = random.Random(0)
    cases = []
    for n in range(count):
        labels = rnd.sample(range(12), 6)
        gens = [{labels[j]: e for j, e in enumerate(g) if e} for g in plane._exps]
        cases.append((sparse_ideal(ring, gens), (0, 2, 3)[n % 3]))
    return cases


def printed(names, e):
    return str(Monomial(Ring(names), e))


def variable_product(name):
    return run_script(f"ring A = [{name}, w];\nprint {name}*w^2;")


TRINOMIALS = [ideal(XY, f"x^{a}, x*y, y^{b}") for a in range(2, 16) for b in range(2, 16)]
CORNERS = [ideal(XY, f"x^{a}*y, y^{b}") for a in range(1, 35) for b in range(2, 36)]
# x*(x^(a-1), y^b): (x) is minimal and (x, y) embedded, so the notions differ.
EMBEDDED = [ideal(XY, f"x^{a}, x*y^{b}") for a in range(2, 19) for b in range(1, 18)]
NAMES = [f"v{k}" for k in range(1100)]
# Each pair shares the name y, which the join renames.
PAIRS = [(Ring.of(v, "y"), Ring.of("y", v)) for v in NAMES]
PLANES = relabelled_projective_planes(480)
ROWS = [
    Row(core._power, ideal_power, product_loop, [(i, 6) for i in TRINOMIALS]),
    Row(core._pieces, printed, monomial_text, [((v,), (k % 40,)) for k, v in enumerate(NAMES)]),
    Row(_irredundant, irreducible_decomposition, uncached_decomposition, [(i,) for i in CORNERS]),
    Row(
        _saturated,
        saturated_power,
        _saturated.__wrapped__,
        [(i, ideal(XY, k), s) for i in TRINOMIALS for k in ("x", "y") for s in (1, 2, 3)],
    ),
    Row(
        _symbolic_direct,
        symbolic_power,
        _symbolic_direct.__wrapped__,
        [(i, s, notion) for i in EMBEDDED for s in (1, 2) for notion in NOTIONS],
    ),
    Row(join_rings, join_rings, join_rings.__wrapped__, PAIRS),
    Row(dsl._variables, variable_product, lambda v: [f"{v}*w^2"], [(v,) for v in NAMES]),
    Row(homology._collapse_core, betti_table, uncached_betti_table, PLANES),
    Row(homology._core_homology, betti_table, uncached_betti_table, PLANES),
]


def name(memo):
    return f"{memo.__module__.removeprefix('idealkit.')}.{memo.__qualname__}"


ROW = {name(row.memo): row for row in ROWS}


def check_cold_past_the_bound(row):
    """Run the row's cases cold, past the bound, and return their results:
    they equal the reference, the memo evicted, no idealkit module's
    top-level dict, set or list grew, and a warm repeat is a hit."""
    memo, call, reference, cases = row
    sizes = module_container_sizes()
    cold = [call(*case) for case in cases]
    info = memo.cache_info()
    assert info.misses > _MEMO_SIZE == info.currsize
    assert module_container_sizes() == sizes
    assert cold == [reference(*case) for case in cases]
    call(*cases[-1])
    warm = memo.cache_info()
    assert warm.hits > info.hits and warm.misses == info.misses
    return cold


def check_threads_find(row, serial):
    """After a clear, 4 threads that share the memo each find ``serial``."""
    row.memo.cache_clear()
    assert in_threads(row.call, row.cases) == [serial] * 4
