"""The idealkit benchmark.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Each batch of ops runs in a fresh,
single-threaded interpreter (``child.py``), one after another: a closed
loop with one client.  The seed picks one batch from each cost stratum of
the workload's recorded batch pool (``pool.json``); ``--seconds`` fixes
how many strata there are, so a parent commit and a change given the same
seed and seconds run the same inputs.  Every batch's output digest must
equal the one recorded in the pool.  Times are scaled to the machine's
full speed by a reference loop each child times (``normalise``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of a traced run and
the tracing overhead.  Earlier lines print each metric with its unit and
the run's metadata.  See README.md for the design.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
POOL_FILE = os.path.join(HERE, "pool.json")

sys.path.insert(0, HERE)
import tracer  # noqa: E402  (no idealkit import: safe in the parent)
from workloads import WORKLOADS  # noqa: E402

# Interpreter start, import, input set-up and speed sampling per batch,
# and the VM's usual slowness against full speed (recorded costs are at
# full speed), used to size a run to about --seconds.
SPAWN_OVERHEAD_S = 0.2
USUAL_SLOWDOWN = 1.5
# A stratum keeps at least this many batches, so that seeds differ.
MIN_STRATUM = 4
# Balanced sampling: the seed draws one pick per stratum until the picks'
# medians of these recorded per-batch statistics all lie within
# BALANCE_TOL of the whole pool's, and keeps the closest of BALANCE_DRAWS
# draws if none does.
BALANCE_KEYS = ("cost_s", "p50_s", "tail_s")
BALANCE_TOL = 0.02
BALANCE_DRAWS = 2000
# The mean time of a child.Speedometer round when the machine runs
# at full speed; every reported time is scaled to that speed (normalise).
REFERENCE_S = 0.00095
# Traced runs take one batch in TRACE_EVERY and run it untraced, then traced.
TRACE_EVERY = 4
# No batch starts after this many times --seconds; every run ends within
# DEADLINE_S seconds or fails.
STOP_FACTOR = 1.5
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def load_pool(workload: str) -> list[dict]:
    try:
        with open(POOL_FILE, encoding="utf-8") as handle:
            pool = json.load(handle)[workload]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no recorded batch pool for {workload}: {exc}") from exc
    return pool


def select_batches(workload: str, pool: list[dict], seed: int, seconds: float) -> list[dict]:
    """One seeded pick per cost stratum of the pool, balanced, in a seeded order.

    Strata are contiguous runs of the pool sorted by recorded cost, so
    every run holds cheap and costly batches in the same proportion and
    the heavy-tailed cost of single batches averages out across seeds.
    Batches of one cost still differ in their op median and tail, so the
    picks are also balanced: their medians of each batch's recorded op
    median and tail stay near the pool's.
    """
    ordered = sorted(pool, key=lambda b: (b["cost_s"], b["batch"]))
    mean_cost = USUAL_SLOWDOWN * statistics.fmean(b["cost_s"] for b in ordered) + SPAWN_OVERHEAD_S
    strata = max(3, min(int(seconds / mean_cost), len(ordered) // MIN_STRATUM))
    rng = random.Random(f"{workload}/run/{seed}")
    edges = [round(i * len(ordered) / strata) for i in range(strata + 1)]
    target = {key: statistics.median(b[key] for b in ordered) for key in BALANCE_KEYS}
    best_error, chosen = float("inf"), []
    for _ in range(BALANCE_DRAWS):
        picks = [rng.choice(ordered[lo:hi]) for lo, hi in zip(edges, edges[1:])]
        error = max(abs(statistics.median(b[key] for b in picks) / target[key] - 1)
                    for key in BALANCE_KEYS)
        if error < best_error:
            best_error, chosen = error, picks
        if error <= BALANCE_TOL:
            break
    rng.shuffle(chosen)
    return chosen


def run_batch(workload: str, batch: int, trace: bool, deadline: float) -> dict:
    """Run one batch in a fresh interpreter; raise BenchError if it fails."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the run finished")
    argv = [sys.executable, os.path.join(HERE, "child.py"), workload, str(batch),
            "1" if trace else "0"]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv + [repr(spawned)], cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"batch {batch} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"batch {batch} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from its own .git only, or 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def tail(latencies: list[float], batches: int = 1) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples per batch above it."""
    ordered = sorted(latencies)
    above = 10 * batches
    if len(ordered) <= above:
        return ordered[-1], 100.0
    return ordered[-above - 1], 100.0 * (len(ordered) - above) / len(ordered)


def normalise(result: dict) -> dict:
    """Scale a batch's times to the machine's full speed.

    Other tenants of a shared VM slow everything in it, by up to a half
    for tens of seconds at a time.  Each child times rounds of a fixed loop
    between its ops (``child.Speedometer``); multiplying its times by
    REFERENCE_S / (the mean round time) cancels the slowdown both saw.
    """
    factor = REFERENCE_S / result["reference_s"]
    scaled = dict(result, setup_s=result["setup_s"] * factor, wall_s=result["wall_s"] * factor,
                  latencies_s=[t * factor for t in result["latencies_s"]])
    if "trace" in result:
        trace = dict(result["trace"])
        trace["self_s"] = {k: v * factor for k, v in trace["self_s"].items()}
        scaled["trace"] = trace
    return scaled


def run_all(workload: str, entries: list[dict], trace: bool, deadline: float,
            stop_after: float) -> list[tuple[dict, dict]]:
    """(pool entry, normalised result) for each batch started before ``stop_after``."""
    out = []
    for entry in entries:
        if out and time.monotonic() > stop_after:
            break
        result = run_batch(workload, entry["batch"], trace, deadline)
        out.append((entry, dict(normalise(result), raw_wall_s=result["wall_s"])))
    return out


def check(workload: str, results: list[tuple[dict, dict]]) -> bool:
    """Every batch must print what the pool recorded for it."""
    ok = True
    for entry, result in results:
        if result["digest"] != entry["digest"]:
            sys.stdout.write(f"# digest mismatch: {workload} batch {entry['batch']}\n")
            ok = False
    return ok


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    latencies = [t for r in results for t in r["latencies_s"]]
    # The tail's percentile is the one an invocation (a batch) sees: the
    # highest with ten of its ops above it.  It is read over all the run's
    # ops, ten per batch above it: the run's single highest percentile rests
    # on the ten heaviest ops the seed happened to draw, and the median of
    # per-batch tails on one op's time in each batch; both swing more.
    tail_value, tail_percentile = tail(latencies, len(results))
    wall = statistics.median(r["wall_s"] for r in results)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "wall_s": wall,
        "ops_per_s": results[0]["attempted"] / wall,
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * tail_value,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    extra = {
        "op_tail_percentile": round(tail_percentile, 3),
        "op_tail_samples_above": 10 * len(results),
        "op_samples": len(latencies),
        "raw_wall_s_median": statistics.median(r["raw_wall_s"] for r in results),
        "split_cache_entries_median": statistics.median(r["split_cache_entries"] for r in results),
    }
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + DEADLINE_S
    stop_after = started + STOP_FACTOR * args.seconds
    try:
        pool = load_pool(args.workload)
        if not os.path.isdir(os.path.join(ROOT, "src", "idealkit")):
            raise BenchError(f"no program source under {os.path.join(ROOT, 'src')}")
        # Children then load bytecode, as an installed package would.
        compileall.compile_dir(os.path.join(ROOT, "src", "idealkit"), quiet=1)
        compileall.compile_dir(HERE, maxlevels=0, quiet=1)
        chosen = select_batches(args.workload, pool, args.seed, args.seconds)
        if args.trace:
            chosen = sorted(chosen, key=lambda b: b["cost_s"])[TRACE_EVERY // 2::TRACE_EVERY]
            plain = run_all(args.workload, chosen, False, deadline, stop_after)
            traced = run_all(args.workload, chosen[:len(plain)], True, deadline, deadline)
            results = plain + traced
        else:
            results = run_all(args.workload, chosen, False, deadline, stop_after)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    correct = check(args.workload, results)
    attempted = sum(r["attempted"] for _, r in results)
    failed = sum(r["failed"] for _, r in results)
    first = results[0][1]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": first["python"],
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "batches": [e["batch"] for e, _ in (traced if args.trace else results)],
        "ops_per_batch": first["attempted"],
        "input_size": first["size"],
        "clients": 1,
        "threads": 1,
        "fail_share": failed / attempted,
    }
    if args.trace:
        totals = {}
        for _, r in traced:
            tracer.add_totals(totals, r["trace"])
        values = tracer.layer_metrics(totals)
        plain_wall = sum(r["wall_s"] for _, r in plain)
        traced_wall = sum(r["wall_s"] for _, r in traced)
        values["trace.overhead_s"] = traced_wall - plain_wall
        meta.update(untraced_wall_s=plain_wall, traced_wall_s=traced_wall)
        units = {k: ("s" if k.endswith("_s") else "ratio" if k.endswith("_ratio") else "count")
                 for k in values}
    else:
        values, extra = end_to_end([r for _, r in results])
        meta.update(extra)
        units = dict(END_TO_END)
        sys.stdout.write(f"metric fail_share = {meta['fail_share']:.6g} share "
                         f"({failed} of {attempted} ops)\n")
    for name, value in values.items():
        sys.stdout.write(f"metric {name} = {value:.6g} {units[name]}\n")
    sys.stdout.write("# meta " + json.dumps(meta, sort_keys=True) + "\n")
    report = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
