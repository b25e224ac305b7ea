"""Every test starts with cold idealkit memos.

The package memoises powers, decompositions, saturated and symbolic
powers, ring joins, homology, the script language's variable tables and
the printer's piece tables (``core._pieces``) in module-level
``functools.lru_cache`` bodies.  A test
that counts calls into the kernel, or times a cleared memo, would
otherwise see the entries an earlier test left behind, and its result
would depend on the order the tests run in.

Every test also runs under a wall bound of ``TEST_WALL_S`` seconds, about
15 times the slowest test, so a blow-up fails the test instead of hanging
the run.  The bound is a ``SIGALRM`` timer and does nothing on platforms
without one.
"""

from __future__ import annotations

import random
import signal
import sys
import threading

import pytest

import idealkit  # noqa: F401  (loads every submodule that defines a memo)

TEST_WALL_S = 30


def idealkit_modules():
    """Every loaded idealkit module, by name."""
    return {
        name: module
        for name, module in list(sys.modules.items())
        if name == "idealkit" or name.startswith("idealkit.")
    }


def idealkit_memos():
    """Every ``lru_cache`` defined at module level in an idealkit module."""
    for name, module in idealkit_modules().items():
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == name:
                yield value


def module_container_sizes():
    """Each idealkit module's name to the total length of the dicts, sets and
    lists at its top level."""
    return {
        name: sum(len(v) for v in vars(module).values() if isinstance(v, (dict, set, list)))
        for name, module in idealkit_modules().items()
    }


def in_threads(call, cases):
    """``[call(*case) for case in cases]`` as each of 4 threads found it,
    running the cases in its own shuffled order at a switch interval of
    1e-6 s, so the threads interleave inside the memos; a thread that
    raised or hung leaves None."""
    results = [None] * 4

    def work(k):
        order = random.Random(k).sample(range(len(cases)), len(cases))
        found = {n: call(*cases[n]) for n in order}
        results[k] = [found[n] for n in range(len(cases))]

    workers = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    return results


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
