"""Every idealkit memo against one contract, one row per memo.

The rows live in ``memo_rows.py``.  Each row's cases, run cold past the
bound, must equal the reference and evict; no idealkit module's
top-level dict, set or list may grow on the way; a warm repeat must be
a hit; and after a clear, threads that share the memo must each find
the serial results.
"""

import pytest

from conftest import idealkit_memos
from memo_rows import ROWS, check_cold_past_the_bound, check_threads_find, name


def test_every_memo_has_one_row():
    assert sorted(name(row.memo) for row in ROWS) == sorted(name(memo) for memo in idealkit_memos())


@pytest.mark.parametrize("row", ROWS, ids=lambda row: name(row.memo))
def test_the_memo_keeps_its_contract(row):
    check_threads_find(row, check_cold_past_the_bound(row))
