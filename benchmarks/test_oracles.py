"""One-time oracle cross-check of the recorded batch pool (never timed).

    PYTHONPATH=src python3 -m pytest benchmarks/test_oracles.py -q

For every batch in pool.json this recomputes the batch's outputs, checks
that they hash to the recorded digest, and checks each output against a
route that does not share the fast path:

* betti: ideals with at most 14 generators against ``taylor_betti_table``;
* powers-decomp: both symbolic powers against saturations of I^s by the
  saturator ideals ``saturator_min`` / ``saturator_ass``;
* script: every printed line against the same call made through the
  Python API.

fuzz-default batches are checked by the fuzz harness itself: recording
refuses a batch in which any case fails.  The full sweep takes minutes;
select batches with ``-k``, e.g. ``-k "betti and 17"``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import idealkit  # noqa: E402
import idealkit.cli  # noqa: E402,F401
from idealkit import core, decomposition, homology, powers  # noqa: E402

import workloads  # noqa: E402

with open(os.path.join(HERE, "pool.json"), encoding="utf-8") as _handle:
    POOL = json.load(_handle)


def _batches(workload):
    return [pytest.param(e, id=str(e["batch"])) for e in POOL.get(workload, [])]


def _digest_of_ops(workload, batch):
    ops, _ = workloads.prepare_ops(workload, batch, idealkit)
    outputs = [op() for op in ops]
    return outputs, hashlib.sha256("\n".join(outputs).encode()).hexdigest()


@pytest.mark.parametrize("entry", _batches("betti"))
def test_betti_against_taylor(entry):
    outputs, digest = _digest_of_ops("betti", entry["batch"])
    assert digest == entry["digest"]
    inputs = workloads.draw_betti_inputs(entry["batch"])
    for (variables, text, _, char), printed in zip(inputs, outputs):
        ideal = core.MonomialIdeal.parse(core.Ring(tuple(variables)), text)
        if len(ideal.generators) <= 14:
            assert printed == str(homology.taylor_betti_table(ideal, char)), text


@pytest.mark.parametrize("entry", _batches("powers-decomp"))
def test_symbolic_powers_against_saturation(entry):
    outputs, digest = _digest_of_ops("powers-decomp", entry["batch"])
    assert digest == entry["digest"]
    inputs = workloads.draw_powers_inputs(entry["batch"])
    for (variables, text, s), printed in zip(inputs, outputs):
        ideal = core.MonomialIdeal.parse(core.Ring(tuple(variables)), text)
        by_min = powers.saturated_power(ideal, powers.saturator_min(ideal, s), s)
        by_ass = powers.saturated_power(ideal, powers.saturator_ass(ideal, s), s)
        primes = workloads.render_primes(
            decomposition.associated_primes(core.ideal_power(ideal, s))
        )
        assert printed == f"{primes}; {by_min}; {by_ass}", text


_API = {
    "sum": core.ideal_sum,
    "prod": core.ideal_product,
    "intersect": core.intersect,
    "colon": core.colon,
}


def _api_lines(variables, plan):
    ring = core.Ring(tuple(variables))
    env = {}
    lines = []
    for step in plan:
        if step[0] == "decl":
            env[step[1]] = core.MonomialIdeal.parse(ring, step[2])
            continue
        if step[0] == "let":
            _, name, op, x, y = step
            env[name] = _API[op](env[x], env[y])
            continue
        op, x, args = step[1], env[step[2]], step[3:]
        if op in _API:
            value = str(_API[op](x, env[args[0]]))
        elif op == "pow":
            value = str(core.ideal_power(x, args[0]))
        elif op == "radical":
            value = str(core.radical(x))
        elif op == "saturate":
            value = str(core.saturate(x, core.MonomialIdeal.parse(ring, args[0])))
        elif op == "contains":
            value = "true" if core.contains(x, core.Monomial.parse(ring, args[0])) else "false"
        elif op == "ass":
            value = workloads.render_primes(decomposition.associated_primes(x))
        else:
            value = str(homology.deriv_star(x))
        lines.append(value)
    return lines


@pytest.mark.parametrize("entry", _batches("script"))
def test_script_against_api(entry):
    outputs, digest = _digest_of_ops("script", entry["batch"])
    assert digest == entry["digest"]
    inputs = workloads.draw_script_inputs(entry["batch"])
    for (variables, plan, _), printed in zip(inputs, outputs):
        assert printed == "\n".join(_api_lines(variables, plan))
