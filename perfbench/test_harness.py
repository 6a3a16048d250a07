"""Tests of the benchmark's own arithmetic: percentiles, self times and
failure counting."""

import json
import os

import numpy as np
import pytest

from perfbench import dt_decode, harness, quantum_decode, verify_oracles
from perfbench.harness import (Failed, SpeedProbe, Tally, expect, percentile,
                               run_passes)
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.tracing import Tracer, self_times, summarize


def test_percentile_needs_ten_samples_beyond_the_tail_rank():
    assert percentile(list(range(1, 100)), 0.9) is None   # 9 samples beyond
    assert percentile(list(range(100, 0, -1)), 0.9) == 90  # 10 beyond
    assert percentile(list(range(1, 201)), 0.9) == 180
    assert percentile([], 0.9) is None


def test_percentile_nearest_rank_at_and_below_the_median():
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.0
    assert percentile([5.0], 0.25) == 5.0


def test_self_time_with_nested_same_layer_and_cross_layer_spans():
    names = ["decoder.alpha_decode", "linalg.right_kernel", "linalg.rref",
             "gf.Field.mul", "gf.Field.neg", "poly.uni_gcd"]
    #            span: 0     1    2    3    4     5     6 (second root)
    name = np.array([0, 1, 2, 3, 4, 5, 2])
    start = np.array([0.0, 1.0, 2.0, 3.0, 5.5, 7.0, 20.0])
    end = np.array([10.0, 6.0, 5.0, 4.0, 5.75, 8.0, 21.0])
    parent = np.array([-1, 0, 1, 2, 1, 0, -1])
    own = self_times(start, end, parent)
    assert own.tolist() == [4.0, 1.75, 2.0, 1.0, 0.25, 1.0, 1.0]
    s = summarize(names, name, start, end, parent)
    assert s["by_layer"] == {"decoder": (1, 4.0), "linalg": (3, 4.75),
                             "gf": (2, 1.25), "poly": (1, 1.0)}
    assert s["by_name"]["linalg.rref"] == (2, 3.0)
    assert s["root_s"] == 11.0
    assert sum(t for _, t in s["by_layer"].values()) == s["root_s"]


def test_tally_counts_failures_without_stopping():
    tally = Tally()

    def broken():
        raise ValueError("boom")

    def wrong(_):
        expect(False, "bad answer")

    def gave_up(_):
        raise Failed("fallback")

    assert tally.run("ok", lambda: 7, sample="t") == 7
    assert tally.run("raises", broken, sample="t") is None
    tally.run("wrong", lambda: 1, wrong, sample="t")
    tally.run("failed", lambda: 1, gave_up)
    tally.run("ok", lambda: 2, lambda out: None)
    assert (tally.attempted, tally.failed, tally.wrong) == (5, 3, 1)
    assert tally.failed_ratio == pytest.approx(3 / 5)
    assert not tally.correct
    assert len(tally.samples["t"]) == 2  # the raising call left no sample
    assert sum(tally.failures.values()) == 3


def test_failed_but_never_wrong_is_still_correct():
    def crash():
        raise RuntimeError("x")

    def gave_up(_):
        raise Failed("fallback")

    tally = Tally()
    tally.run("crash", crash)
    tally.run("fallback", lambda: 0, gave_up)
    assert tally.correct and tally.failed_ratio == 1.0


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == {
        wl.NAME for wl in (dt_decode, quantum_decode, verify_oracles)}


def test_run_passes_honours_min_passes():
    seen = []
    probe = SpeedProbe()
    raw, scaled = run_passes(seen.append, seconds=0.0, min_passes=3, probe=probe)
    assert seen == [0, 1, 2] and len(raw) == len(scaled) == 3
    assert len(probe.samples["memory"]) == 3 and probe.scale() > 0
    raw, scaled = run_passes(lambda k: None, seconds=0.0, min_passes=2)
    assert len(raw) == 2 and scaled == raw


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


def test_probe_scales_by_the_samples_around_each_operation(monkeypatch):
    clock = _FakeClock()
    memory_s = iter([2.0, 4.0, 1.0, 1.0, 4.0, 4.0])   # in units of REFERENCE_S
    monkeypatch.setattr(harness, "time", clock)
    monkeypatch.setitem(harness.LOOPS, "memory", lambda: setattr(
        clock, "now", clock.now + next(memory_s) * SpeedProbe.REFERENCE_S))
    monkeypatch.setitem(harness.LOOPS, "compute", lambda: setattr(
        clock, "now", clock.now + SpeedProbe.REFERENCE_S))

    def op():
        clock.now += 1.5

    tally = Tally()
    tally.probe = SpeedProbe(("memory",), {"u": ("compute", "memory")})
    tally.run("slow", op, sample="t")   # the loop took 3x its reference time
    tally.run("fast", op, sample="t")   # ... and then exactly its reference time
    # compute at its reference speed, memory at a quarter: half speed
    tally.run("two loops", op, sample="u")
    assert tally.raw_samples["t"] == [1.5, 1.5]
    assert tally.samples["t"] == pytest.approx([0.5, 1.5])
    assert tally.samples["u"] == pytest.approx([0.75])
    assert tally.probe.spent == pytest.approx(18 * SpeedProbe.REFERENCE_S)
    assert [len(v) for v in tally.probe.samples.values()] == [2, 6, 0]


def test_tracer_wraps_and_restores_the_program():
    pytest.importorskip("prodcodes")
    from prodcodes import linalg as la
    from prodcodes import gf
    from prodcodes.gf import GF
    original_rref, original_mul = la.rref, gf.Field.mul
    F = GF(5)
    M = np.array([[1, 2, 3], [2, 4, 1]])
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        kernel = la.right_kernel(F, M)
    finally:
        tracer.uninstall()
    assert la.rref is original_rref and gf.Field.mul is original_mul
    assert np.array_equal(kernel, la.right_kernel(F, M))
    arr = tracer.arrays()
    names = [tracer.names[i] for i in arr["name"]]
    assert names[0] == "linalg.right_kernel" and arr["parent"][0] == -1
    rref = names.index("linalg.rref")
    assert arr["parent"][rref] == 0
    assert any(n.startswith("gf.Field.") for n in names)
    assert set(arr["op"].tolist()) == {0}
    assert tracer.counts["linalg.rref.cells"] == 6
    assert tracer.counts["gf.elems"] > 0
