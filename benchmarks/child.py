"""Run one benchmark batch in this (fresh) interpreter and print its result.

Usage: python3 benchmarks/child.py WORKLOAD BATCH TRACE SPAWN_TIME

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started
this interpreter; set-up is measured from it to the first timed op.  The
last stdout line is one JSON object; the exit code is 3 when the program
under test cannot be imported from ``src/`` next to this directory.
"""

import gc
import hashlib
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# A speedometer round runs between ops once this long has passed, and
# SPEED_EDGE_ROUNDS rounds run before the first op and after the last.
SPEED_EVERY_S = 0.01
SPEED_EDGE_ROUNDS = 5


def _import_program():
    sys.path.insert(0, SRC)
    try:
        import idealkit
    except ImportError as exc:
        sys.stderr.write(f"cannot import idealkit from {SRC}: {exc}\n")
        sys.exit(3)
    if not os.path.abspath(idealkit.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"idealkit imported from {idealkit.__file__}, not {SRC}\n")
        sys.exit(3)
    import idealkit.cli  # noqa: F401  # the whole package, as the CLI loads it
    return idealkit


class Speedometer:
    """Samples the machine's speed between ops with a fixed pure-Python loop.

    A round (about a millisecond: tuples, dict updates and min/max, the
    interpreter work the program does too) runs between ops whenever
    ``every_s`` has passed since the last one, so the rounds sample the
    same stretch of time as the ops.  The collector is off during a round
    so that the program's heap cannot slow it.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.rounds = []
        self._due = 0.0

    def round(self):
        gc.disable()
        try:
            start = time.perf_counter()
            table = {}
            for i in range(1600):
                key = (i & 7, i & 3, (i >> 3) & 7)
                table[key] = table.get(key, 0) + max(key) - min(key)
            end = time.perf_counter()
        finally:
            gc.enable()
        self.rounds.append(end - start)
        self._due = end + self.every_s

    def between_ops(self):
        if time.perf_counter() >= self._due:
            self.round()

    def mean(self) -> float:
        return sum(self.rounds) / len(self.rounds)


def _op_span(tracer):
    """Root span around each op in a traced run; nothing in a plain run."""
    return tracer.span("bench.op") if tracer is not None else nullcontext()


def _fuzz_batch(ik, batch, tracer, speed):
    """Set up one `idealkit fuzz --seed BATCH --cases N`; one op per (suite, case).

    The run calls ``fuzz.run_suite`` per suite in ``SUITE_NAMES`` order, as
    ``fuzz.run_fuzz`` does, and timestamps each ``generate_instance`` call:
    a case runs from its instance draw to the next draw or the suite's end,
    and the speedometer samples between cases.
    """
    from workloads import FUZZ_CASES

    fuzz = ik.fuzz
    config = fuzz.FuzzConfig(seed=batch, cases=FUZZ_CASES)
    size = {"suites": len(fuzz.SUITE_NAMES), "cases_per_suite": config.cases,
            "max_vars": config.max_vars_per_side, "max_gens": config.max_generators,
            "max_exp": config.max_exponent, "max_s": config.max_s}
    starts, ends = [], []
    generate = fuzz.generate_instance

    def stamped_generate(rng, cfg):
        ends.append(time.perf_counter())  # the previous case's end
        speed.between_ops()
        starts.append(time.perf_counter())
        return generate(rng, cfg)

    def run():
        fuzz.generate_instance = stamped_generate
        latencies, reports, failed = [], [], 0
        try:
            for name in fuzz.SUITE_NAMES:
                starts.clear()
                ends.clear()
                try:
                    with _op_span(tracer):
                        report = fuzz.run_suite(name, config)
                except Exception as exc:  # a suite that raises fails all its cases
                    report = {"suite": name, "error": f"{type(exc).__name__}: {exc}", "passes": 0}
                ends.append(time.perf_counter())
                latencies += [end - start for start, end in zip(starts, ends[1:])]
                failed += config.cases - report["passes"]
                reports.append(report)
        finally:
            fuzz.generate_instance = generate
        attempted = len(fuzz.SUITE_NAMES) * config.cases
        return latencies, failed, attempted, json.dumps(reports, indent=2, sort_keys=True)

    return run, size


def _ops_batch(ik, workload, batch, tracer, speed):
    """Set up a batch of ``workloads.prepare_ops`` ops; the run times each op."""
    from workloads import prepare_ops

    ops, size = prepare_ops(workload, batch, ik)

    def run():
        outputs, latencies, failed = [], [], 0
        for op in ops:
            speed.between_ops()
            start = time.perf_counter()
            try:
                with _op_span(tracer):
                    out = op()
            except Exception as exc:  # an op that raises is a failed op
                out = f"error: {type(exc).__name__}: {exc}"
                failed += 1
            latencies.append(time.perf_counter() - start)
            outputs.append(out)
        return latencies, failed, len(ops), "\n".join(outputs)

    return run, size


def main(argv):
    workload, batch, trace, spawned = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    sys.path.insert(0, HERE)
    ik = _import_program()
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(ik)
    # Traced runs sample only before and after the ops, which spans enclose.
    speed = Speedometer(SPEED_EVERY_S if tracer is None else float("inf"))
    if workload == "fuzz-default":
        run, size = _fuzz_batch(ik, batch, tracer, speed)
    else:
        run, size = _ops_batch(ik, workload, batch, tracer, speed)
    first_op = time.monotonic()
    for _ in range(SPEED_EDGE_ROUNDS):
        speed.round()
    latencies, failed, attempted, text = run()
    for _ in range(SPEED_EDGE_ROUNDS):
        speed.round()
    cache = getattr(ik.decomposition, "_SPLIT_CACHE", None)
    result = {
        "setup_s": first_op - spawned,
        "reference_s": speed.mean(),
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "attempted": attempted,
        "failed": failed,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "split_cache_entries": len(cache) if cache is not None else 0,
        "size": size,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        result["trace"] = tracer.totals(ik)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
