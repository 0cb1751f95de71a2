"""Calibration scales each pass, and op latencies are medians over the scaled passes."""

import time

import pytest

import calibration
import run
from workloads import PassResult


def test_scale_reads_reference_time_when_kernel_matches():
    ref = calibration.REFERENCE_MS
    assert calibration.scale([ref, ref, ref]) == pytest.approx(1.0)
    assert calibration.scale([1.5 * ref, 2.5 * ref]) == pytest.approx(0.5)


def test_timings_undo_a_slow_pass():
    # the second pass ran on a machine half as fast; its calibration factor is 0.5
    results = [PassResult("d", [10.0, 30.0], 2, 0), PassResult("d", [20.0, 60.0], 2, 0),
               PassResult("d", [10.0, 30.0], 2, 0)]
    passes = run.Passes(results, cpu_s=[0.05, 0.1, 0.05], wall_s=[0.05, 0.1, 0.05], scales=[1.0, 0.5, 1.0], spans=[])
    lat = run.timings(passes)
    assert lat["pass_s"] == pytest.approx(0.05)  # 10 + 30 ms of ops and 10 ms outside them
    assert lat["p50"] == pytest.approx(20.0)
    assert (lat["tail"], lat["tail_label"], lat["n"]) == (pytest.approx(30.0), "max", 2)


def test_sampler_samples_during_work_and_clock_leaves_it_out():
    assert calibration.kernel() == calibration.kernel()
    sampler = calibration.Sampler()
    t0 = time.thread_time()
    sampler.start()
    try:
        while time.thread_time() - t0 < 3 * calibration.PERIOD_S:
            sum(range(1000))
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 2
    assert sampler.spent == pytest.approx(1e-3 * sum(sampler.samples), rel=0.05, abs=1e-4)
