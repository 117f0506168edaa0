"""Checks of the benchmark itself, on shrunken copies of its workloads."""

import dataclasses
import json
import os
import re

import numpy as np
import pytest

import run as bench
from repro.obs import validate_events
from tracing import (BATCH, LAYER, LAYERS, PARENT, batch_self_sums,
                     chrome_trace, duration, self_ns)
from workloads import WORKLOADS, BatchStream, RefMap, make_dataset

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: the workloads at test size: same topology and traffic shape, fewer
#: keys and a shorter counted window
SMALL = {
    "lookup_uniform": dict(lookup_hits=512, lookup_misses=64,
                           counted_until=25),
    "lookup_zipf_tenants": dict(counted_until=64),
    # a higher fault rate, so the short window sees the drill fire
    "mixed_rw_drill": dict(fault_rate=0.05, counted_until=40),
}


def small(name):
    return dataclasses.replace(WORKLOADS[name], n_keys=1 << 14, setups=1,
                               **SMALL[name])


def traced_run(name, seed=3, seconds=0.0):
    runner = bench.Runner(small(name), seed, seconds=seconds, trace=True)
    metrics = runner.run()
    return runner, metrics


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    # long enough for untraced blocks after the counted window
    return request.param, traced_run(request.param, seconds=1.5)


def test_declared_names_are_well_formed():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"]]
    names += [m["name"] for m in declared["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) for n in names)
    assert sorted(w["name"] for w in declared["workloads"]) \
        == sorted(WORKLOADS)
    assert all(NAME_RE.fullmatch(n) for n in bench.E2E_UNITS)


def test_every_measured_metric_is_declared_and_well_formed(traced):
    name, (runner, metrics) = traced
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert {m["name"] for m in declared["per_layer"]} <= set(metrics)
    # a time that reads 0 on every run would be indistinguishable from
    # an unmeasured one: declared times must apply to every workload
    for m in declared["per_layer"]:
        if m["unit"] == "us":
            assert metrics[m["name"]][0] > 0, (name, m["name"])
    e2e = runner.e2e()
    assert {m["name"] for m in declared["end_to_end"]} <= set(e2e)
    assert all(NAME_RE.fullmatch(n) for n in list(metrics) + list(e2e))
    assert runner.failed == 0 and runner.attempted > 0


def test_self_time_within_span_duration(traced):
    _name, (runner, _metrics) = traced
    spans = runner.tracer.spans
    assert spans
    for span in spans:
        assert 0 <= self_ns(span) <= duration(span)


def test_layer_self_times_sum_to_traced_batch_time(traced):
    _name, (runner, _metrics) = traced
    spans = runner.tracer.spans
    sums = batch_self_sums(spans)
    assert sums
    for root, (batch_ns, self_total) in sums.items():
        assert spans[root][LAYER] == "service"
        assert self_total == batch_ns


def test_chrome_trace_validates_with_one_track_per_layer(traced):
    _name, (runner, _metrics) = traced
    trace = chrome_trace(runner.tracer.spans)
    assert validate_events(trace["traceEvents"]) == []
    tracks = {e["args"]["name"]: e["tid"] for e in trace["traceEvents"]
              if e.get("name") == "thread_name"}
    used = {s[LAYER] for s in runner.tracer.spans}
    assert set(tracks) == used and used <= set(LAYERS)
    assert len(set(tracks.values())) == len(tracks)


def test_same_seed_gives_identical_modeled_counts():
    for name in sorted(WORKLOADS):
        runs = [traced_run(name, seed=5) for _ in range(2)]
        first, second = [
            dict(r.e2e(), **{k: v for k, (v, _u, _b) in m.items()})
            for r, m in runs]
        for key in ("gpu_txn_per_key", "pcie_bytes_per_update",
                    "resilience.faults_handled", "adaptive.windows",
                    "descent.kernel_launches", "mirror.rebuilds"):
            assert first.get(key) == second.get(key), (name, key)
        assert runs[0][0].window == runs[1][0].window
        if name == "mixed_rw_drill":
            assert first["resilience.faults_handled"] > 0
            assert first["pcie_bytes_per_update"] > 0
        if name == "lookup_zipf_tenants":
            assert first["adaptive.windows"] > 0


def test_a_wrong_answer_fails_the_run():
    runner = bench.Runner(small("lookup_uniform"), 1, seconds=0.0,
                          trace=False)
    runner.ref.values[::7] += np.uint64(1)
    runner.run()
    assert runner.mismatches > 0
    assert runner.failed >= runner.mismatches


def test_batch_stream_is_a_function_of_the_seed():
    w = small("mixed_rw_drill")
    keys, values = make_dataset(w.n_keys, 9)
    streams = [BatchStream(w, 9, RefMap(keys, values)) for _ in range(2)]
    for i in range(len(w.rotation) * 2):
        a, b = (s.batch(i) for s in streams)
        assert a.kind == b.kind and a.tenant == b.tenant
        for field in ("keys", "values", "deletes", "his"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


def test_refmap_follows_arrival_order():
    keys = np.array([10, 20, 30], dtype=np.uint64)
    ref = RefMap(keys, keys * np.uint64(2))
    ref.apply(np.array([25, 20, 25], dtype=np.uint64),
              np.array([1, 2, 3], dtype=np.uint64),
              np.array([10, 99], dtype=np.uint64))
    assert ref.keys.tolist() == [20, 25, 30]
    assert ref.values.tolist() == [2, 3, 60]
    found = ref.lookup(np.array([25, 26], dtype=np.uint64))
    assert found[0] == 3 and found[1] == np.iinfo(np.uint64).max
    assert ref.scan(21, 30) == [(25, 3), (30, 60)]


def test_counted_window_is_fully_traced(traced):
    _name, (runner, _metrics) = traced
    w = runner.w
    roots = {s[BATCH] for s in runner.tracer.spans if s[PARENT] < 0}
    assert roots >= set(range(w.warmup_batches, w.counted_until))
    assert all(s[BATCH] >= w.warmup_batches for s in runner.tracer.spans)
    assert all(s[PARENT] < i for i, s in enumerate(runner.tracer.spans))


def test_traced_run_interleaves_untraced_blocks():
    runner = bench.Runner(small("lookup_uniform"), 2, seconds=1.0,
                          trace=True)
    metrics = runner.run()
    assert runner.overhead_ms[True] and runner.overhead_ms[False]
    assert len(runner.ref_us) == len(runner.overhead_ms[False])
    traced = {s[BATCH] for s in runner.tracer.spans if s[PARENT] < 0}
    assert all(runner.traced_batch(i) == (i in traced)
               for i in range(runner.w.warmup_batches, runner.batches))
    assert metrics["ref.unsharded_us_per_batch"][0] > 0
