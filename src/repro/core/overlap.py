"""Real overlapped CPU<->GPU bucket execution (threads + double buffering).

The paper's headline throughput comes from overlapping the GPU
I-segment stage with the CPU L-segment stage (section 5.4, Figs 5-6).
:mod:`repro.core.pipeline` *models* that overlap with an event-driven
simulator; this module *executes* it: real buckets flow through a
bounded-queue pipeline of actual ``threading`` workers, so the overlap
shows up in wall-clock time, not just in the cost model.

:class:`OverlappedEngine` is a
:class:`~repro.core.batching.BatchingEngine` with one addition: a
threaded executor for point lookups.  Everything else — range scans,
``quiesce``, the balancer and kernel plumbing, the serve lock — is the
batch engine's, and ``strategy="sequential"`` is the batch engine's own
inline path.

Thread topology of the threaded strategies::

    dispatcher (caller thread)
        slices the query stream into buckets, sort/deduplicates each
        (reusing BucketPlan), and performs the *stateful* launch
        screening — injector consultation + launch counter — serially
        in bucket order, then feeds a bounded queue (the buffer slots)
    GPU-stage workers (1 for pipelined, N>=2 for double_buffered)
        drive the pure vectorised descent (``tree.gpu_descend``) on
        independent buffer slots; NumPy releases the GIL inside the
        large array ops, so workers genuinely run concurrently
    CPU leaf-stage pool (``cpu_workers`` threads)
        shards each bucket's ``cpu_finish_bucket`` across chunks; the
        worker finishing a bucket's last chunk inverse-scatters the
        per-distinct results back to arrival order into the caller's
        output array

Guarantees:

* **bit-identical results** to the inline path — same sort/dedup plan
  and balancer split, same pure kernels, chunking the leaf stage is
  element-independent, and each bucket scatters into a disjoint output
  slice;
* **deterministic modeled counters** — the stateful pieces are never
  raced: fault/launch screening happens serially in the dispatcher (so
  the injector sees exactly the serial operation order) and the pure
  workers accumulate transactions into per-worker cells that merge into
  the device counters once, after all workers joined;
* **backpressure** — both queues are bounded; the dispatcher blocks
  when all buffer slots are full, exactly the double-buffering budget;
* **clean shutdown + exception propagation** — every blocking queue
  operation is stop-aware; a worker exception aborts the run, an
  injected launch fault stops dispatch but *drains* the in-flight
  buckets first (keeping counters bit-identical to the serial path,
  which executed every bucket before the failing screen); in both
  cases all threads are joined before ``lookup_batch`` raises, so a
  caller that catches the fault (the resilience layer degrading to
  CPU-only) never leaves workers running.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.batching import (
    BatchingEngine,
    BatchStats,
    BucketPlan,
    plan_bucket,
)
from repro.core.buckets import iter_buckets
from repro.core.pipeline import BucketStrategy

#: granularity of stop-aware queue waits (seconds); every blocking
#: operation re-checks the stop flag at least this often, which is what
#: makes deadlock impossible even when an exception fires mid-bucket
POLL_S = 0.02


@dataclass
class QueueStats:
    """Occupancy of one bounded pipeline queue, sampled at every put."""

    capacity: int = 0
    samples: int = 0
    occupancy_sum: int = 0
    max_occupancy: int = 0

    def sample(self, size: int) -> None:
        self.samples += 1
        self.occupancy_sum += size
        if size > self.max_occupancy:
            self.max_occupancy = size

    @property
    def mean_occupancy(self) -> float:
        if self.samples == 0:
            return 0.0
        return self.occupancy_sum / self.samples

    def snapshot(self) -> Dict[str, float]:
        return {
            "capacity": self.capacity,
            "samples": self.samples,
            "mean_occupancy": self.mean_occupancy,
            "max_occupancy": self.max_occupancy,
        }

    def reset(self) -> None:
        self.samples = 0
        self.occupancy_sum = 0
        self.max_occupancy = 0


@dataclass
class OverlapStats(BatchStats):
    """:class:`~repro.core.batching.BatchStats` plus what the overlap
    bought in wall-clock time.

    The modeled counters match the batch engine's for the same
    workload; the busy fields are booked by the threaded executor.
    """

    #: makespan of all lookup_batch calls (ns, wall)
    wall_ns: float = 0.0
    #: busy wall time of the dispatcher (planning + screening)
    dispatch_busy_ns: float = 0.0
    #: summed busy wall time of the GPU-stage workers
    gpu_busy_ns: float = 0.0
    #: summed busy wall time of the CPU leaf-stage workers
    cpu_busy_ns: float = 0.0
    gpu_queue: QueueStats = field(default_factory=QueueStats)
    cpu_queue: QueueStats = field(default_factory=QueueStats)

    @property
    def busy_ns(self) -> float:
        """Total stage busy time across all threads."""
        return self.dispatch_busy_ns + self.gpu_busy_ns + self.cpu_busy_ns

    @property
    def overlap_efficiency(self) -> float:
        """Measured concurrency: stage busy time over wall time.

        1.0 means perfectly serial execution (no overlap); values above
        1.0 mean that much stage work ran concurrently — e.g. 1.8 means
        the pipeline packed 1.8 seconds of stage time into every wall
        second.  Bounded by the number of runnable threads, and on a
        single-core host by ~1.0 regardless of topology.  The inline
        ``sequential`` strategy books no busy time, so it reads 0.
        """
        if self.wall_ns <= 0:
            return 0.0
        return self.busy_ns / self.wall_ns

    def snapshot(self) -> Dict[str, object]:
        snap: Dict[str, object] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        snap.update(
            duplicate_fraction=self.duplicate_fraction,
            overlap_efficiency=self.overlap_efficiency,
            gpu_queue=self.gpu_queue.snapshot(),
            cpu_queue=self.cpu_queue.snapshot(),
        )
        return snap

    def reset(self) -> None:
        """Zero every counter; the queue capacities are configuration."""
        self.__init__(
            gpu_queue=QueueStats(capacity=self.gpu_queue.capacity),
            cpu_queue=QueueStats(capacity=self.cpu_queue.capacity),
        )


class _Sentinel:
    """End-of-stream marker (one per worker)."""


_SENTINEL = _Sentinel()
_STOPPED = _Sentinel()


class _BucketState:
    """One in-flight bucket between the GPU stage and the scatter."""

    __slots__ = ("index", "start", "plan", "codes", "per_unique",
                 "_remaining", "_lock")

    def __init__(self, index: int, start: int, plan: BucketPlan,
                 codes: np.ndarray, per_unique: np.ndarray,
                 n_chunks: int):
        self.index = index
        self.start = start
        self.plan = plan
        self.codes = codes
        self.per_unique = per_unique
        self._remaining = n_chunks
        self._lock = threading.Lock()

    def chunk_done(self) -> bool:
        """Count one finished chunk; True when the bucket completed."""
        with self._lock:
            self._remaining -= 1
            return self._remaining == 0


class OverlappedEngine(BatchingEngine):
    """A :class:`~repro.core.batching.BatchingEngine` whose point
    lookups run through real worker threads.

    Runs over both hybrid trees; the threaded executor additionally
    needs ``gpu_begin_bucket`` / ``gpu_descend`` (and, with a balancer,
    ``cpu_descend_top`` / ``gpu_descend_from``) and ``device`` for the
    counter merge.

    ``strategy`` (a :class:`~repro.core.pipeline.BucketStrategy` or its
    string value) picks the topology:

    * ``sequential`` — no threads: the inherited inline batch-engine
      path, bucket by bucket.
    * ``pipelined`` — one GPU worker, one buffer slot: the CPU pool
      finishes bucket *i* while the GPU descends bucket *i+1* (Fig 5).
    * ``double_buffered`` — ``gpu_workers`` (>= 2) workers on
      independent buffer slots hide the hand-offs entirely (Fig 6).

    ``queue_depth`` overrides the buffer-slot count (tests use 1 to
    stress backpressure); ``cpu_chunk_min`` bounds leaf-stage shard
    granularity so tiny buckets are not over-split.  Range scans and
    ``quiesce`` are the batch engine's: the leaf stage dominates a scan
    and produces variable-length output, so scans run inline under the
    serve lock rather than through the lookup pipeline's fixed-width
    buffers.
    """

    def __init__(
        self,
        tree,
        bucket_size: Optional[int] = None,
        strategy="double_buffered",
        gpu_workers: Optional[int] = None,
        cpu_workers: int = 4,
        queue_depth: Optional[int] = None,
        measure_baseline: bool = False,
        cpu_chunk_min: int = 2048,
        obs=None,
        balancer=None,
        kernel: Optional[str] = None,
    ):
        super().__init__(tree, bucket_size=bucket_size,
                         measure_baseline=measure_baseline, obs=obs,
                         balancer=balancer, kernel=kernel)
        self.strategy = (
            strategy if isinstance(strategy, BucketStrategy)
            else BucketStrategy(strategy)
        )
        if gpu_workers is None:
            gpu_workers = 2 if self.strategy is BucketStrategy.DOUBLE_BUFFERED else 1
        if self.strategy is BucketStrategy.PIPELINED and gpu_workers != 1:
            raise ValueError("pipelined strategy uses exactly one GPU worker")
        if gpu_workers < 1 or cpu_workers < 1:
            raise ValueError("need at least one worker per stage")
        self.gpu_workers = gpu_workers
        self.cpu_workers = cpu_workers
        if queue_depth is None:
            # pipelined: a single buffer slot; double buffered: one slot
            # per GPU worker (the independent buffers of Fig 6)
            queue_depth = 1 if self.strategy is BucketStrategy.PIPELINED \
                else gpu_workers
        if queue_depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.queue_depth = queue_depth
        self.cpu_queue_depth = max(queue_depth, 2 * cpu_workers)
        self.cpu_chunk_min = max(1, cpu_chunk_min)
        self.stats = OverlapStats()
        self.stats.gpu_queue.capacity = self.queue_depth
        self.stats.cpu_queue.capacity = self.cpu_queue_depth

    def lookup_batch(self, queries: Sequence) -> np.ndarray:
        """All queries' values in arrival order; sentinel = not found.

        Bit-identical to ``BatchingEngine(tree).lookup_batch(queries)``
        and to the tree's own serial path.  Raises whatever a worker or
        the launch screening raised — but only after every in-flight
        bucket drained and every thread joined.  Worker threads live
        only inside this call, so holding the serve lock
        (:meth:`quiesce`) guarantees no thread is touching the tree.
        """
        q = self.tree.spec.coerce(queries)
        if len(q) == 0:
            return np.zeros(0, dtype=self.tree.spec.dtype)
        t0 = time.perf_counter_ns()
        try:
            with self._serve_lock, self.obs.span(
                "overlap.lookup_batch",
                queries=len(q), strategy=self.strategy.value,
            ):
                if self.strategy is BucketStrategy.SEQUENTIAL:
                    return super().lookup_batch(q)
                out = np.zeros(len(q), dtype=self.tree.spec.dtype)
                _OverlapRun(self, q, out).execute()
                return out
        finally:
            self.stats.wall_ns += time.perf_counter_ns() - t0


class _OverlapRun:
    """One threaded ``lookup_batch`` execution (workers live per call).

    All mutable state shared between threads is either (a) owned by one
    thread, (b) a ``queue.Queue``, (c) guarded by a lock, or (d) a
    disjoint slice of a preallocated array.  Modeled counters are only
    touched in :meth:`_merge`, after every worker joined.
    """

    def __init__(self, engine: OverlappedEngine, q: np.ndarray,
                 out: np.ndarray):
        self.engine = engine
        self.tree = engine.tree
        self.q = q
        self.out = out
        self.gpu_q: "queue.Queue" = queue.Queue(maxsize=engine.queue_depth)
        self.cpu_q: "queue.Queue" = queue.Queue(maxsize=engine.cpu_queue_depth)
        self.stop = threading.Event()
        self._error_lock = threading.Lock()
        self.errors: List[BaseException] = []
        #: launch-screening fault (graceful: drain, then re-raise)
        self.fault: Optional[BaseException] = None
        # per-worker accumulation cells (merged once, deterministically)
        self.gpu_txns = [0] * engine.gpu_workers
        self.gpu_baseline = [0] * engine.gpu_workers
        self.gpu_baselines_measured = [0] * engine.gpu_workers
        self.gpu_busy = [0] * engine.gpu_workers
        self.cpu_busy = [0] * engine.cpu_workers
        self.dispatch_busy = 0
        self._gpu_alive = engine.gpu_workers
        self._alive_lock = threading.Lock()
        self._done_lock = threading.Lock()
        self.done_buckets = 0
        self.done_queries = 0
        self.done_unique = 0

    # -- stop-aware queue primitives -----------------------------------

    def _put(self, qobj: "queue.Queue", item, qstats: QueueStats) -> bool:
        """Blocking put that re-checks the stop flag; False if stopped."""
        while True:
            if self.stop.is_set():
                return False
            try:
                qobj.put(item, timeout=POLL_S)
            except queue.Full:
                continue
            qstats.sample(qobj.qsize())
            return True

    def _get(self, qobj: "queue.Queue"):
        """Blocking get that re-checks the stop flag."""
        while True:
            if self.stop.is_set():
                return _STOPPED
            try:
                return qobj.get(timeout=POLL_S)
            except queue.Empty:
                continue

    def _fail(self, err: BaseException) -> None:
        with self._error_lock:
            self.errors.append(err)
        self.stop.set()

    # -- lifecycle ------------------------------------------------------

    def execute(self) -> None:
        eng = self.engine
        gpu_threads = [
            threading.Thread(
                target=self._gpu_worker, args=(i,), daemon=True,
                name=f"overlap-gpu-{i}",
            )
            for i in range(eng.gpu_workers)
        ]
        cpu_threads = [
            threading.Thread(
                target=self._cpu_worker, args=(i,), daemon=True,
                name=f"overlap-cpu-{i}",
            )
            for i in range(eng.cpu_workers)
        ]
        for t in gpu_threads + cpu_threads:
            t.start()
        try:
            self._dispatch()
        except BaseException as err:  # unexpected dispatcher failure
            self._fail(err)
        finally:
            # always deliver end-of-stream so GPU workers terminate;
            # when stopped they exit on the flag instead
            for _ in range(eng.gpu_workers):
                self._put(self.gpu_q, _SENTINEL, eng.stats.gpu_queue)
        for t in gpu_threads + cpu_threads:
            t.join()
        self._merge()
        if self.errors:
            raise self.errors[0]
        if self.fault is not None:
            raise self.fault

    def _dispatch(self) -> None:
        eng = self.engine
        obs = eng.obs
        for index, bucket in enumerate(iter_buckets(self.q, eng.bucket_size)):
            if self.stop.is_set():
                break
            # the timed region (plan + stateful screening) accumulates
            # at exactly one site — the finally — so the fault branch
            # and the fall-through can never both book the same
            # interval (the double-count hazard this loop used to carry)
            t0 = time.perf_counter_ns()
            try:
                with obs.span("plan_screen", bucket=index):
                    plan = plan_bucket(bucket, dtype=self.tree.spec.dtype)
                    obs.emit(
                        "bucket_start", index=index,
                        n_queries=plan.n_queries, n_unique=plan.n_unique,
                    )
                    # split decision + balancer feedback, serially in
                    # bucket order, next to the injector for the same
                    # reason: the rebalance schedule must be a
                    # deterministic function of the bucket sequence
                    levels, kernel = eng._split(plan)
                    # an all-CPU split bucket screens zero GPU queries,
                    # so it launches no kernel and consults no injector
                    gpu_active = plan.n_unique if levels is None else int(
                        np.count_nonzero(levels < self.tree.gpu_depth)
                    )
                    try:
                        # stateful screening, serially in bucket order:
                        # the injector draw stream is identical to the
                        # serial path
                        launch = self.tree.gpu_begin_bucket(gpu_active)
                    except Exception as err:
                        # an injected launch fault: stop feeding, drain
                        # what is already in flight, re-raise after the
                        # join
                        self.fault = err
            finally:
                self.dispatch_busy += time.perf_counter_ns() - t0
            if self.fault is not None:
                break
            item = (index, index * eng.bucket_size, plan, launch, levels,
                    kernel)
            if not self._put(self.gpu_q, item, eng.stats.gpu_queue):
                break

    # -- workers --------------------------------------------------------

    def _gpu_worker(self, wid: int) -> None:
        eng = self.engine
        obs = eng.obs
        try:
            while True:
                item = self._get(self.gpu_q)
                if isinstance(item, _Sentinel):
                    break
                index, start, plan, launch, levels, kernel = item
                t0 = time.perf_counter_ns()
                with obs.span("gpu_descend", bucket=index,
                              n_unique=plan.n_unique):
                    codes, txns = self._descend(plan, launch, levels,
                                                kernel)
                self.gpu_txns[wid] += txns
                if eng.measure_baseline:
                    self.gpu_baseline[wid] += self.tree.modeled_transactions(
                        plan.queries
                    )
                    self.gpu_baselines_measured[wid] += 1
                self.gpu_busy[wid] += time.perf_counter_ns() - t0
                self._submit_cpu(index, start, plan, codes, txns)
        except BaseException as err:
            self._fail(err)
        finally:
            with self._alive_lock:
                self._gpu_alive -= 1
                last = self._gpu_alive == 0
            if last:
                # the GPU stage fully drained: close the CPU stage
                for _ in range(eng.cpu_workers):
                    self._put(self.cpu_q, _SENTINEL, eng.stats.cpu_queue)

    def _descend(self, plan: BucketPlan, launch: bool, levels,
                 kernel: Optional[str]):
        """Pure inner-level stage for one bucket (worker-safe).

        Unbalanced buckets run the full GPU descent; split buckets walk
        their top levels on the CPU and resume on the GPU.  When the
        split put every query's full descent on the CPU, the CPU nodes
        *are* the leaf indices and no GPU work happens at all.
        """
        if levels is None:
            if launch:
                return self.tree.gpu_descend(plan.sorted_unique, kernel=kernel)
            return np.zeros(plan.n_unique, dtype=np.int64), 0
        nodes = self.tree.cpu_descend_top(plan.sorted_unique, levels)
        if launch:
            return self.tree.gpu_descend_from(
                plan.sorted_unique, levels, nodes, kernel=kernel
            )
        return nodes, 0

    def _submit_cpu(self, index: int, start: int, plan: BucketPlan,
                    codes: np.ndarray, txns: int) -> None:
        """Shard one bucket's leaf stage into chunk tasks."""
        eng = self.engine
        n_u = plan.n_unique
        n_chunks = min(
            eng.cpu_workers, max(1, -(-n_u // eng.cpu_chunk_min))
        )
        per_unique = np.empty(n_u, dtype=self.tree.spec.dtype)
        state = _BucketState(index, start, plan, codes, per_unique, n_chunks)
        bounds = np.linspace(0, n_u, n_chunks + 1).astype(np.int64)
        for c in range(n_chunks):
            task = (state, int(bounds[c]), int(bounds[c + 1]), txns)
            if not self._put(self.cpu_q, task, eng.stats.cpu_queue):
                return

    def _cpu_worker(self, wid: int) -> None:
        obs = self.engine.obs
        try:
            while True:
                item = self._get(self.cpu_q)
                if isinstance(item, _Sentinel):
                    break
                state, a, b, txns = item
                t0 = time.perf_counter_ns()
                with obs.span("cpu_finish_chunk", bucket=state.index,
                              lo=a, hi=b):
                    state.per_unique[a:b] = self.tree.cpu_finish_bucket(
                        state.plan.sorted_unique[a:b], state.codes[a:b]
                    )
                    completed = state.chunk_done()
                    if completed:
                        # last chunk: inverse-scatter into the (disjoint)
                        # output slice and book the completed bucket
                        end = state.start + state.plan.n_queries
                        self.out[state.start: end] = state.plan.scatter(
                            state.per_unique
                        )
                        with self._done_lock:
                            self.done_buckets += 1
                            self.done_queries += state.plan.n_queries
                            self.done_unique += state.plan.n_unique
                self.cpu_busy[wid] += time.perf_counter_ns() - t0
                if completed:
                    # completion order, from a worker thread — handlers
                    # must be thread-safe (see repro.obs.hooks)
                    obs.emit(
                        "bucket_end", index=state.index,
                        n_queries=state.plan.n_queries,
                        n_unique=state.plan.n_unique, transactions=txns,
                    )
        except BaseException as err:
            self._fail(err)

    # -- deterministic counter merge ------------------------------------

    def _merge(self) -> None:
        """Fold per-worker cells into engine + device counters.

        Runs single-threaded after all joins; totals are sums of
        per-bucket quantities, so they are independent of which worker
        ran which bucket in which order — the same totals the serial
        path produces.
        """
        eng = self.engine
        stats = eng.stats
        txns = sum(self.gpu_txns)
        stats.buckets += self.done_buckets
        stats.queries += self.done_queries
        stats.unique += self.done_unique
        stats.transactions += txns
        stats.baseline_transactions += sum(self.gpu_baseline)
        stats.baselines_measured += sum(self.gpu_baselines_measured)
        stats.dispatch_busy_ns += self.dispatch_busy
        stats.gpu_busy_ns += sum(self.gpu_busy)
        stats.cpu_busy_ns += sum(self.cpu_busy)
        counters = self.tree.device.memory.counters
        counters.transactions_64 += txns
        counters.bytes_moved += txns * 64
