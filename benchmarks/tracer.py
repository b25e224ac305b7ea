"""Spans around calls into idealkit's modules, for the traced benchmark run.

``Tracer.install`` replaces each traced function by a wrapper in every
idealkit module that binds it: ``from .core import saturate`` copies the
binding, so replacing ``core.saturate`` alone would miss callers in
``powers`` or ``homology``.  Recursive functions such as
``decomposition._split`` call themselves through the module global, so
every recursion level is a span of its own.

A span has a name, a start, an end and a parent (the span open when it
began).  Its self time is its duration minus the time its child spans
cover; one thread runs the program, so children never overlap.  Split
trees can open millions of spans per batch, so each span is folded into
per-name totals when it closes instead of being kept.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from contextlib import contextmanager

MODULES = ("core", "decomposition", "powers", "binomial", "homology", "dsl", "fuzz")

# Private functions that are layer boundaries of their own, by span name.
PRIVATE_SPANS = {
    ("core", "_antichain"): "core.canon",
    ("decomposition", "_split"): "decomposition.split",
    ("homology", "_upper_koszul_faces"): "homology.koszul_faces",
    ("homology", "_rank"): "homology.rank",
}
# Public functions whose work belongs to the caller's span: dsl.parse
# includes tokenizing and dsl.eval includes rendering printed values.
SKIPPED = {("dsl", "tokenize"), ("dsl", "render_value")}


class Tracer:
    def __init__(self):
        self._stack = []  # open spans: [name, start, time covered by children]
        self.calls = Counter()
        self.self_s = Counter()
        self.edges = Counter()  # (parent name, child name) -> calls
        self.counts = Counter()
        self.distinct = {}  # name -> set of argument keys seen

    @contextmanager
    def span(self, name):
        stack = self._stack
        frame = [name, time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[1]
            self.calls[name] += 1
            self.self_s[name] += duration - frame[2]
            if stack:
                stack[-1][2] += duration
                self.edges[(stack[-1][0], name)] += 1

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def wrap(self, name, fn, observe=None):
        span = self.span
        parent = self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = parent()
            with span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result, caller)
            return result

        return traced

    def _remember(self, name, key):
        self.distinct.setdefault(name, set()).add(key)

    def install(self, ik):
        """Wrap idealkit's layer functions in place; ``ik`` is the package."""
        modules = {short: getattr(ik, short) for short in MODULES}
        counts = self.counts

        def canon(args, result, caller):
            counts["core.canon.given"] += len(args[0])
            counts["core.canon.kept"] += len(result)

        def ideal_power(args, result, caller):
            self._remember("core.ideal_power", (args[0], args[1]))

        def irreducible(args, result, caller):
            self._remember("decomposition.irreducible_decomposition", args[0])
            counts["decomposition.prune.kept"] += len(result)

        def split(args, result, caller):
            if caller == "decomposition.irreducible_decomposition":
                counts["decomposition.prune.raw"] += len(result)

        def degree_at_most(args, result, caller):
            if caller == "powers.regular_witness_candidates":
                counts["powers.witness.scanned"] += len(result)

        def lattice(args, result, caller):
            counts["homology.lcm_lattice.points"] += len(result)

        def faces(args, result, caller):
            counts["homology.koszul_faces.faces"] += len(result)

        def rank(args, result, caller):
            rows = args[0]
            counts["homology.rank.cells"] += len(rows) * (len(rows[0]) if rows else 0)

        observers = {
            "core.canon": canon,
            "core.ideal_power": ideal_power,
            "decomposition.irreducible_decomposition": irreducible,
            "decomposition.split": split,
            "core.monomials_of_degree_at_most": degree_at_most,
            "homology.lcm_lattice": lattice,
            "homology.koszul_faces": faces,
            "homology.rank": rank,
        }

        replacements = {}
        for short, module in modules.items():
            for attr, fn in vars(module).items():
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if (short, attr) in PRIVATE_SPANS:
                    name = PRIVATE_SPANS[(short, attr)]
                elif attr.startswith("_") or (short, attr) in SKIPPED:
                    continue
                else:
                    name = f"{short}.{attr}"
                if inspect.isgeneratorfunction(fn):
                    replacements[fn] = self._counting_generator(f"{name}.yielded", fn)
                else:
                    replacements[fn] = self.wrap(name, fn, observers.get(name))
        for module in [ik, *modules.values()]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacements:
                    setattr(module, attr, replacements[value])

        checks = modules["fuzz"]._SUITE_CHECKS
        for suite, check in checks.items():
            checks[suite] = self.wrap("fuzz.check", check)
        evaluator = modules["dsl"].Evaluator
        evaluator.execute = self.wrap("dsl.eval", evaluator.execute)
        monomial = modules["core"].Monomial
        post_init = monomial.__post_init__

        def counted_post_init(obj):
            counts["core.monomial.built"] += 1
            post_init(obj)

        monomial.__post_init__ = counted_post_init

    def _counting_generator(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return counted

    def totals(self, ik) -> dict:
        """This batch's raw sums; ``layer_metrics`` turns summed totals into metrics."""
        counts = dict(self.counts)
        counts["core.saturate.colons"] = self.edges[("core.saturate", "core.colon")]
        for name, keys in self.distinct.items():
            counts[f"{name}.distinct"] = len(keys)
        counts["decomposition.split.cache_entries"] = len(
            getattr(ik.decomposition, "_SPLIT_CACHE", ())
        )
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "counts": counts}


def add_totals(into: dict, totals: dict) -> dict:
    for kind, values in totals.items():
        bucket = into.setdefault(kind, {})
        for key, value in values.items():
            bucket[key] = bucket.get(key, 0) + value
    return into


def layer_metrics(totals: dict) -> dict:
    """Per-layer metrics, keyed as in BENCHMARK.json, from summed batch totals.

    A ratio whose base is zero (the layer never ran) reads 0.
    """
    calls = Counter(totals.get("calls", {}))
    self_s = Counter(totals.get("self_s", {}))
    counts = Counter(totals.get("counts", {}))

    def ratio(num, den):
        return num / den if den else 0.0

    def distinct_ratio(name):
        return ratio(counts[f"{name}.distinct"], calls[name])

    out = {
        "core.canon.calls": calls["core.canon"],
        "core.canon.self_s": self_s["core.canon"],
        "core.canon.kept_ratio": ratio(counts["core.canon.kept"], counts["core.canon.given"]),
        "core.monomial.built": counts["core.monomial.built"],
        "core.saturate.calls": calls["core.saturate"],
        "core.saturate.self_s": self_s["core.saturate"],
        "core.saturate.colons": counts["core.saturate.colons"],
        "core.colon.self_s": self_s["core.colon"],
        "core.intersect.self_s": self_s["core.intersect"],
        "core.ideal_power.calls": calls["core.ideal_power"],
        "core.ideal_power.self_s": self_s["core.ideal_power"],
        "core.ideal_power.distinct_ratio": distinct_ratio("core.ideal_power"),
        "decomposition.irreducible_decomposition.calls":
            calls["decomposition.irreducible_decomposition"],
        "decomposition.irreducible_decomposition.self_s":
            self_s["decomposition.irreducible_decomposition"],
        "decomposition.irreducible_decomposition.distinct_ratio":
            distinct_ratio("decomposition.irreducible_decomposition"),
        "decomposition.split.nodes": calls["decomposition.split"],
        "decomposition.split.self_s": self_s["decomposition.split"],
        "decomposition.split.cache_entries": counts["decomposition.split.cache_entries"],
        "decomposition.prune.kept_ratio":
            ratio(counts["decomposition.prune.kept"], counts["decomposition.prune.raw"]),
        "decomposition.primary_decomposition.self_s":
            self_s["decomposition.primary_decomposition"],
        "decomposition.ass_star_bounded.self_s": self_s["decomposition.ass_star_bounded"],
        "decomposition.ass_module_quotient.self_s": self_s["decomposition.ass_module_quotient"],
        "decomposition.ass_module_quotient_exhaustive.self_s":
            self_s["decomposition.ass_module_quotient_exhaustive"],
        "decomposition.quotient_box.points": counts["core.monomials_below.yielded"],
        "powers.symbolic_power.calls": calls["powers.symbolic_min"] + calls["powers.symbolic_ass"],
        "powers.symbolic_power.self_s": (
            self_s["powers.symbolic_power"] + self_s["powers.symbolic_min"]
            + self_s["powers.symbolic_ass"]
        ),
        "powers.saturated_power.self_s": self_s["powers.saturated_power"],
        "powers.regular_witness_candidates.self_s": self_s["powers.regular_witness_candidates"],
        "powers.witness.scanned": counts["powers.witness.scanned"],
        "homology.betti_table.calls": calls["homology.betti_table"],
        "homology.betti_table.self_s": self_s["homology.betti_table"],
        "homology.lcm_lattice.self_s": self_s["homology.lcm_lattice"],
        "homology.lcm_lattice.points": counts["homology.lcm_lattice.points"],
        "homology.koszul_faces.self_s": self_s["homology.koszul_faces"],
        "homology.koszul_faces.faces": counts["homology.koszul_faces.faces"],
        "homology.rank.calls": calls["homology.rank"],
        "homology.rank.self_s": self_s["homology.rank"],
        "homology.rank.cells": counts["homology.rank.cells"],
        "dsl.parse.self_s": self_s["dsl.parse"],
        "dsl.eval.self_s": self_s["dsl.eval"],
        "dsl.statements": calls["dsl.eval"],
        "fuzz.generate_instance.self_s": self_s["fuzz.generate_instance"],
        "fuzz.check.self_s": self_s["fuzz.check"],
        "bench.op.self_s": self_s["bench.op"],
    }
    for short in MODULES:
        out[f"{short}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(short + "."))
    return out
