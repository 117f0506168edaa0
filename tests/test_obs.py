"""The observability layer (DESIGN.md §10): tracing, metrics, hooks.

The load-bearing property is at the bottom: attaching a live
:class:`~repro.obs.Observability` bundle never changes an engine's
results or its modeled device counters (bit-identity), because the
layer only *observes* wall time — nothing in the simulation reads it.
"""

import json
import threading
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.batching import BatchingEngine
from repro.core.hbtree import HBPlusTree
from repro.obs import (
    NULL_OBS,
    NULL_REGISTRY,
    NULL_SPAN,
    NULL_TRACER,
    HookSet,
    MetricsRegistry,
    Observability,
    Tracer,
    validate_events,
    validate_trace_file,
)
from repro.obs.export import collect_all, publish_engine, stats_dict
from repro.platform.configs import machine_m1
from repro.workloads.generators import generate_dataset


def make_clock(step=1000):
    """A deterministic injectable tracer clock (monotone ns)."""
    state = {"t": 0}

    def clock():
        state["t"] += step
        return state["t"]

    return clock


def device_counters(tree):
    c = tree.device.memory.counters
    return (
        int(tree.device.kernel_launches),
        int(c.transactions_64),
        int(c.bytes_moved),
    )


@lru_cache(maxsize=None)
def shared_tree():
    keys, values = generate_dataset(700, seed=42)
    return HBPlusTree(keys, values, machine=machine_m1()), keys


def traced_vs_untraced(tree, make_engine, queries):
    """Run untraced (explicit NULL_OBS) then traced; return both sides."""
    tree.device.reset_counters()
    ref = make_engine(tree, NULL_OBS).lookup_batch(queries)
    ref_counters = device_counters(tree)

    obs = Observability()
    tree.attach_obs(obs)
    try:
        tree.device.reset_counters()
        out = make_engine(tree, None).lookup_batch(queries)
        counters = device_counters(tree)
    finally:
        tree.attach_obs(NULL_OBS)
    return ref, ref_counters, out, counters, obs


# ---------------------------------------------------------------------------
# Tracer


class TestTracer:
    def test_span_nesting_and_balanced_events(self):
        t = Tracer(clock=make_clock())
        with t.span("outer", bucket=0):
            assert t.depth() == 1
            with t.span("inner"):
                assert t.depth() == 2
        assert t.depth() == 0
        events = t.events
        phases = [e["ph"] for e in events]
        assert phases == ["M", "B", "B", "E", "E"]  # thread_name first
        names = [e["name"] for e in events if e["ph"] in "BE"]
        assert names == ["outer", "inner", "inner", "outer"]
        assert t.span_count() == 2
        assert validate_events(events) == []

    def test_span_args_recorded(self):
        t = Tracer(clock=make_clock())
        with t.span("work", category="gpu", bucket=3, n=7):
            pass
        begin = next(e for e in t.events if e["ph"] == "B")
        assert begin["cat"] == "gpu"
        assert begin["args"] == {"bucket": 3, "n": 7}

    def test_timestamps_are_relative_microseconds(self):
        t = Tracer(clock=make_clock(step=1000))  # 1 us per tick
        with t.span("a"):
            pass
        b, e = [ev for ev in t.events if ev["ph"] in "BE"]
        assert e["ts"] > b["ts"] >= 0
        assert e["ts"] - b["ts"] == pytest.approx(1.0)  # one tick, in us

    def test_out_of_order_close_raises(self):
        t = Tracer(clock=make_clock())
        outer = t.span("outer")
        inner = t.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            outer.__exit__(None, None, None)

    def test_disabled_tracer_is_pure_noop(self):
        t = Tracer(enabled=False)
        assert t.span("x") is NULL_SPAN
        with t.span("x"):
            pass
        t.instant("marker")
        t.counter("depth", 3)
        assert t.events == []
        assert t.span_count() == 0
        assert NULL_TRACER.span("anything") is NULL_SPAN

    def test_spans_across_threads_get_distinct_tracks(self):
        t = Tracer()
        barrier = threading.Barrier(2)

        def work():
            barrier.wait()
            with t.span("outer"):
                with t.span("inner"):
                    pass

        threads = [
            threading.Thread(target=work, name=f"obs-worker-{i}")
            for i in range(2)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert validate_events(t.events) == []
        names = set(t.thread_names().values())
        assert {"obs-worker-0", "obs-worker-1"} <= names
        tids = {e["tid"] for e in t.events if e["ph"] == "B"}
        assert len(tids) == 2
        assert t.span_count() == 4

    def test_instant_and_counter_events_validate(self):
        t = Tracer(clock=make_clock())
        t.instant("fault", total=1)
        t.counter("queue_depth", 2)
        events = t.events
        assert [e["ph"] for e in events] == ["M", "i", "C"]
        assert events[2]["args"] == {"value": 2}
        assert validate_events(events) == []

    def test_export_and_write_roundtrip(self, tmp_path):
        t = Tracer(clock=make_clock())
        with t.span("a"):
            t.instant("mid")
        payload = t.export()
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) == len(t.events)
        path = tmp_path / "trace.json"
        t.write(path)
        assert validate_trace_file(str(path)) == []
        with open(path) as fh:
            assert json.load(fh) == payload

    def test_reset_drops_events(self):
        t = Tracer(clock=make_clock())
        with t.span("a"):
            pass
        assert t.span_count() == 1
        t.reset()
        assert t.events == []
        assert t.thread_names() == {}

    def test_events_are_detached_copies(self):
        t = Tracer(clock=make_clock())
        with t.span("a"):
            pass
        snap = t.events
        snap[0]["ph"] = "corrupted"
        assert t.events[0]["ph"] == "M"


class TestValidate:
    PID_TID = {"pid": 1, "tid": 1}

    def test_orphan_end_detected(self):
        events = [{"ph": "E", "name": "x", "ts": 1.0, **self.PID_TID}]
        errors = validate_events(events)
        assert len(errors) == 1 and "orphan E" in errors[0]

    def test_unclosed_begin_detected(self):
        events = [{"ph": "B", "name": "x", "ts": 1.0, **self.PID_TID}]
        errors = validate_events(events)
        assert len(errors) == 1 and "unclosed span" in errors[0]

    def test_mismatched_close_detected(self):
        events = [
            {"ph": "B", "name": "a", "ts": 1.0, **self.PID_TID},
            {"ph": "E", "name": "b", "ts": 2.0, **self.PID_TID},
        ]
        assert any("mismatched" in e for e in validate_events(events))

    def test_end_before_begin_detected(self):
        events = [
            {"ph": "B", "name": "a", "ts": 5.0, **self.PID_TID},
            {"ph": "E", "name": "a", "ts": 1.0, **self.PID_TID},
        ]
        assert any("before" in e for e in validate_events(events))

    def test_unknown_phase_and_bad_ts(self):
        assert any(
            "unknown phase" in e
            for e in validate_events([{"ph": "Z"}])
        )
        assert any(
            "bad ts" in e
            for e in validate_events(
                [{"ph": "B", "name": "a", "ts": -1, **self.PID_TID}]
            )
        )

    def test_tracks_nest_independently(self):
        # interleaved spans on different tids are fine (LIFO per track)
        events = [
            {"ph": "B", "name": "a", "ts": 1.0, "pid": 1, "tid": 1},
            {"ph": "B", "name": "b", "ts": 2.0, "pid": 1, "tid": 2},
            {"ph": "E", "name": "a", "ts": 3.0, "pid": 1, "tid": 1},
            {"ph": "E", "name": "b", "ts": 4.0, "pid": 1, "tid": 2},
        ]
        assert validate_events(events) == []


# ---------------------------------------------------------------------------
# Metrics


class TestMetricsRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", engine="overlap")
        b = reg.counter("hits", engine="overlap")
        assert a is b
        assert len(reg) == 1

    def test_label_cardinality_creates_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("hits", engine="overlap").inc()
        reg.counter("hits", engine="batch").inc(2)
        reg.counter("hits").inc(3)
        assert len(reg) == 3
        snap = reg.snapshot()
        assert snap["hits"] == 3
        assert snap["hits{engine=batch}"] == 2
        assert snap["hits{engine=overlap}"] == 1

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.gauge("g", x=1, y=2)
        b = reg.gauge("g", y=2, x=1)
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("n")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("n")

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("n").inc(-1)

    def test_gauge_set_and_add(self):
        reg = MetricsRegistry()
        g = reg.gauge("temp")
        g.set(5.0)
        g.add(-2.0)
        assert reg.snapshot()["temp"] == 3.0

    def test_histogram_streaming_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (4.0, 1.0, 7.0):
            h.observe(v)
        exported = reg.snapshot()["lat"]
        assert exported == {
            "count": 3, "sum": 12.0, "mean": 4.0, "min": 1.0, "max": 7.0,
        }

    def test_snapshot_is_detached_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        snap = reg.snapshot()
        assert list(snap) == ["a", "b"]
        reg.counter("a").inc(100)
        assert snap["a"] == 1

    def test_reset_zeros_in_place(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        h = reg.histogram("lat")
        c.inc(5)
        h.observe(3.0)
        reg.reset()
        assert c is reg.counter("n")  # registration survives
        assert c.value == 0
        assert h.count == 0 and h.min is None
        assert reg.snapshot()["n"] == 0

    def test_disabled_registry_hands_out_shared_noop(self):
        a = NULL_REGISTRY.counter("x")
        b = NULL_REGISTRY.histogram("y", k=1)
        assert a is b
        a.inc()
        b.observe(1.0)
        assert len(NULL_REGISTRY) == 0
        assert NULL_REGISTRY.snapshot() == {}


# ---------------------------------------------------------------------------
# Hooks


class TestHookSet:
    def test_subscribe_emit_payload(self):
        hooks = HookSet()
        seen = []
        hooks.subscribe("bucket_end", lambda **p: seen.append(p))
        hooks.emit("bucket_end", index=3, transactions=9)
        assert seen == [{"index": 3, "transactions": 9}]

    def test_handlers_run_in_subscription_order(self):
        hooks = HookSet()
        order = []
        hooks.subscribe("e", lambda **p: order.append("first"))
        hooks.subscribe("e", lambda **p: order.append("second"))
        hooks.emit("e")
        assert order == ["first", "second"]

    def test_unsubscribe_stops_delivery(self):
        hooks = HookSet()
        seen = []
        unsub = hooks.subscribe("e", lambda **p: seen.append(p))
        hooks.emit("e", n=1)
        unsub()
        hooks.emit("e", n=2)
        assert seen == [{"n": 1}]
        unsub()  # idempotent

    def test_on_decorator(self):
        hooks = HookSet()
        seen = []

        @hooks.on("fault")
        def handler(**payload):
            seen.append(payload)

        hooks.emit("fault", total=1)
        assert seen == [{"total": 1}]

    def test_emit_without_subscribers_is_noop(self):
        HookSet().emit("nobody", x=1)

    def test_frozen_hookset_rejects_subscription(self):
        frozen = HookSet(frozen=True)
        with pytest.raises(RuntimeError, match="frozen"):
            frozen.subscribe("e", lambda **p: None)
        frozen.clear()  # allowed, still empty
        assert not frozen.has("e")

    def test_concurrent_emit_delivers_each_event_once(self):
        """Emits from plain threads while another thread subscribes and
        unsubscribes: every event reaches the steady subscriber once."""
        hooks = HookSet()
        lock = threading.Lock()
        seen = []

        def on_end(**payload):
            with lock:
                seen.append((payload["worker"], payload["index"]))

        hooks.subscribe("bucket_end", on_end)
        n_workers, per_worker = 4, 300
        barrier = threading.Barrier(n_workers + 1)
        stop = threading.Event()

        def emitter(wid):
            barrier.wait()
            for i in range(per_worker):
                hooks.emit("bucket_end", worker=wid, index=i)

        def churn():
            barrier.wait()
            while not stop.is_set():
                hooks.subscribe("bucket_end", lambda **p: None)()

        threads = [
            threading.Thread(target=emitter, args=(w,), name=f"emit-{w}")
            for w in range(n_workers)
        ]
        churner = threading.Thread(target=churn, name="churn")
        for th in threads + [churner]:
            th.start()
        for th in threads:
            th.join()
        stop.set()
        churner.join()
        assert sorted(seen) == [
            (w, i) for w in range(n_workers) for i in range(per_worker)
        ]


# ---------------------------------------------------------------------------
# Bundle + export


class TestObservabilityBundle:
    def test_null_obs_is_fully_disabled(self):
        assert not NULL_OBS.enabled
        assert NULL_OBS.span("x") is NULL_SPAN
        NULL_OBS.count("n")
        NULL_OBS.gauge("g", 1.0)
        NULL_OBS.observe("h", 1.0)
        NULL_OBS.emit("e", x=1)
        assert len(NULL_OBS.metrics) == 0
        assert NULL_OBS.tracer.events == []
        with pytest.raises(RuntimeError):
            NULL_OBS.hooks.subscribe("e", lambda **p: None)

    def test_enabled_bundle_records_everything(self):
        obs = Observability()
        seen = []
        obs.hooks.subscribe("e", lambda **p: seen.append(p))
        with obs.span("s"):
            obs.count("n", 2, engine="x")
            obs.observe("lat", 5.0)
            obs.emit("e", ok=True)
        snap = obs.metrics.snapshot()
        assert snap["n{engine=x}"] == 2
        assert snap["lat"]["count"] == 1
        assert seen == [{"ok": True}]
        assert obs.tracer.span_count() == 1

    def test_reset_clears_state_keeps_subscriptions(self):
        obs = Observability()
        seen = []
        obs.hooks.subscribe("e", lambda **p: seen.append(p))
        with obs.span("s"):
            obs.count("n")
        obs.reset()
        assert obs.tracer.events == []
        assert obs.metrics.snapshot()["n"] == 0
        obs.emit("e")
        assert seen == [{}]


class TestExport:
    def test_stats_dict_paths(self):
        import dataclasses

        @dataclasses.dataclass
        class Plain:
            hits: int = 3

        class Snapshottable:
            def snapshot(self):
                return {"x": 1}

        assert stats_dict(Plain()) == {"hits": 3}
        assert stats_dict(Snapshottable()) == {"x": 1}
        with pytest.raises(TypeError):
            stats_dict(object())

    def test_collect_all_unifies_tree_and_engine(self):
        tree, keys = shared_tree()
        reg = MetricsRegistry()
        engine = BatchingEngine(tree, bucket_size=128, obs=NULL_OBS)
        engine.lookup_batch(keys[:256])
        snap = collect_all(reg, tree=tree, engine=engine,
                           engine_label="batch")
        assert snap["gpu.kernel_launches"] > 0
        assert snap["engine.buckets{engine=batch}"] == 2
        assert any(k.startswith("pcie.") for k in snap)
        assert any(k.startswith("mem.") for k in snap)

    def test_publish_engine_label_dimension(self):
        tree, keys = shared_tree()
        reg = MetricsRegistry()
        a = BatchingEngine(tree, bucket_size=64, obs=NULL_OBS)
        b = BatchingEngine(tree, bucket_size=128, obs=NULL_OBS)
        a.lookup_batch(keys[:64])
        b.lookup_batch(keys[:128])
        publish_engine(reg, a, "small")
        publish_engine(reg, b, "large")
        snap = reg.snapshot()
        assert snap["engine.buckets{engine=small}"] == 1
        assert snap["engine.buckets{engine=large}"] == 1


# ---------------------------------------------------------------------------
# Engine integration: the bit-identity guarantee


class TestBatchingEngineTracing:
    def test_traced_run_bit_identical_with_spans(self):
        tree, keys = shared_tree()
        rng = np.random.default_rng(7)
        queries = rng.choice(keys, size=500, replace=True)
        ref, ref_counters, out, counters, obs = traced_vs_untraced(
            tree,
            lambda t, o: BatchingEngine(t, bucket_size=128, obs=o),
            queries,
        )
        np.testing.assert_array_equal(out, ref)
        assert counters == ref_counters
        assert obs.tracer.span_count() > 0
        assert validate_events(obs.tracer.events) == []
        span_names = {
            e["name"] for e in obs.tracer.events if e["ph"] == "B"
        }
        assert {"bucket", "gpu_descend", "cpu_finish"} <= span_names
        # the tree-level instrumentation recorded live counters too
        assert obs.metrics.snapshot()["live.gpu.kernel_launches"] > 0

    def test_engine_spans_land_on_a_named_caller_track(self):
        tree, keys = shared_tree()
        obs = Observability()
        BatchingEngine(tree, bucket_size=128, obs=obs).lookup_batch(
            keys[:300])
        names = obs.tracer.thread_names()
        tracks = {e["tid"] for e in obs.tracer.events if e["ph"] == "B"}
        assert tracks and tracks <= set(names)

    def test_bucket_hooks_fire_per_bucket(self):
        tree, keys = shared_tree()
        obs = Observability()
        starts, ends = [], []
        obs.hooks.subscribe("bucket_start", lambda **p: starts.append(p))
        obs.hooks.subscribe("bucket_end", lambda **p: ends.append(p))
        tree.attach_obs(obs)
        try:
            engine = BatchingEngine(tree, bucket_size=128)
            engine.lookup_batch(keys[:300])
        finally:
            tree.attach_obs(NULL_OBS)
        assert len(starts) == len(ends) == engine.stats.buckets == 3
        assert [p["index"] for p in starts] == [0, 1, 2]
        assert all("transactions" in p for p in ends)

    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        idx=st.lists(st.integers(0, 699), max_size=200),
        miss=st.lists(st.integers(0, 2**40), max_size=20),
        bucket=st.sampled_from([32, 64, 128]),
    )
    def test_property_tracing_never_changes_results(self, idx, miss, bucket):
        tree, keys = shared_tree()
        queries = np.concatenate([
            keys[np.asarray(idx, dtype=np.int64)],
            np.asarray(miss, dtype=np.uint64),
        ])
        ref, ref_counters, out, counters, obs = traced_vs_untraced(
            tree,
            lambda t, o: BatchingEngine(t, bucket_size=bucket, obs=o),
            queries,
        )
        np.testing.assert_array_equal(out, ref)
        assert counters == ref_counters
        assert validate_events(obs.tracer.events) == []
