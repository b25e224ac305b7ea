"""Every test starts with cold idealkit memos.

The package memoises powers, decompositions, saturated and symbolic
powers, ring joins, homology and the script language's variable tables in
module-level ``functools.lru_cache`` bodies.  A test
that counts calls into the kernel, or times a cleared memo, would
otherwise see the entries an earlier test left behind, and its result
would depend on the order the tests run in.

Every test also runs under a wall bound of ``TEST_WALL_S`` seconds, about
15 times the slowest test, so a blow-up fails the test instead of hanging
the run.  The bound is a ``SIGALRM`` timer and does nothing on platforms
without one.
"""

from __future__ import annotations

import signal
import sys

import pytest

import idealkit  # noqa: F401  (loads every submodule that defines a memo)

TEST_WALL_S = 30


def idealkit_memos():
    """Every ``lru_cache`` defined at module level in an idealkit module."""
    for name, module in list(sys.modules.items()):
        if name != "idealkit" and not name.startswith("idealkit."):
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == name:
                yield value


@pytest.fixture(autouse=True)
def cold_memos():
    for memo in idealkit_memos():
        memo.cache_clear()


@pytest.fixture(autouse=True)
def wall_bound():
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expired(signum, frame):
        pytest.fail(f"test ran past its {TEST_WALL_S} s wall bound", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(TEST_WALL_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
