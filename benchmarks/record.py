"""Record a workload's batch pool: each batch's cost and output digest.

    python3 benchmarks/record.py --workload W

Runs batches 0..127 three times each, untraced, in fresh interpreters
and rewrites W's entry in pool.json.  The digests are the expected
outputs that ``run.py`` gates on, so record only from a commit whose
outputs are trusted (and cross-checked by ``test_oracles.py``); the three
runs must agree on them.  A batch's cost, its median normalised wall
time, sorts batches into strata; it and the medians of the batch's op
median and tail (``p50_s``, ``tail_s``) balance the seeded picks
(``run.select_batches``).  Every op must succeed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from run import POOL_FILE, BenchError, normalise, run_batch, tail
from workloads import WORKLOADS

POOL_BATCHES = 128
COST_RUNS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    args = parser.parse_args(argv)
    entries = []
    for batch in range(POOL_BATCHES):
        try:
            results = [normalise(run_batch(args.workload, batch, False, time.monotonic() + 600))
                       for _ in range(COST_RUNS)]
        except BenchError as exc:
            sys.stderr.write(f"{exc}\n")
            return 1
        if any(r["failed"] for r in results):
            sys.stderr.write(f"batch {batch}: failed ops\n")
            return 1
        if len({r["digest"] for r in results}) != 1:
            sys.stderr.write(f"batch {batch}: output differs between runs\n")
            return 1
        entries.append({
            "batch": batch,
            "cost_s": round(statistics.median(r["wall_s"] for r in results), 6),
            "p50_s": round(statistics.median(statistics.median(r["latencies_s"]) for r in results), 6),
            "tail_s": round(statistics.median(tail(r["latencies_s"])[0] for r in results), 6),
            "digest": results[0]["digest"],
        })
    try:
        with open(POOL_FILE, encoding="utf-8") as handle:
            pool = json.load(handle)
    except FileNotFoundError:
        pool = {}
    pool[args.workload] = entries
    with open(POOL_FILE, "w", encoding="utf-8") as handle:
        json.dump(pool, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
