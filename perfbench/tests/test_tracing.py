"""The tracer records nested spans, changes no result, and restores every binding."""

import importlib

import numpy as np

import tracing
from scenarios import random_scenario, reference_ledger

q3e_mod = importlib.import_module("hapalloc.q3e")
harness = importlib.import_module("hapalloc.harness")


def _solve():
    scenario = random_scenario(16, 0)
    bf = q3e_mod.scenario_beamformer(scenario)
    return q3e_mod.q3e(scenario, bf, 200.0, reference_ledger(), backend="numeric")


def test_spans_nest_and_self_times_add_up():
    plain = _solve()
    originals = (q3e_mod.q3e, q3e_mod.zf_beamformer, harness.q3e)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        root = tracer.open("bench.pass")
        traced = _solve()
        tracer.close(root)
    finally:
        tracer.remove()
    assert (q3e_mod.q3e, q3e_mod.zf_beamformer, harness.q3e) == originals
    assert tracer.missing == []
    np.testing.assert_array_equal(traced.p, plain.p)
    names = {s.name for s in tracer.spans}
    assert {"q3e.q3e", "q3e.scenario_beamformer", "beamforming.zf_beamformer", "channel.steering_vectors",
            "q3e.feasibility_partition", "q3e.solve_partial_qos"} <= names
    total_self = sum(s.self_time for s in tracer.spans)
    assert abs(total_self - tracer.spans[0].duration) < 1e-9
    m = tracing.pass_metrics(tracer, 0, len(tracer.spans))
    assert m["q3e.solves"] == 1 and m["beamforming.zf_calls"] == 1
    assert m["q3e.stage2_iters"] == plain.diagnostics["iterations"]
    assert m["q3e.partial_frac"] == 1.0
