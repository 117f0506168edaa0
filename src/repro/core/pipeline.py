"""Bucket scheduling strategies (paper section 5.4, Figs 5-6).

Three strategies are modeled, matching the paper's Fig 10 comparison:

* **sequential** — each bucket runs T1 -> T2 -> T3 -> T4 to completion
  before the next starts; no overlap at all.
* **pipelined** — the next bucket's transfer starts as soon as the
  current bucket's intermediate results reach the CPU; CPU leaf search
  overlaps the GPU's work on the successor bucket (Fig 5).
* **double_buffered** — two (or three, for the load-balanced variant)
  GPU worker threads on separate buffers hide the transfers entirely
  (Fig 6); steady state costs ``max(T2, T4)`` per bucket.

Besides the closed-form steady-state costs (in
:class:`repro.platform.costmodel.BucketCosts`) this module provides an
event-driven simulator that plays an arbitrary number of buckets
through the chosen schedule, yielding full per-bucket completion times
— pipeline fill and drain included — from which latency statistics are
derived.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional

from repro.platform.costmodel import BucketCosts


def nearest_rank_index(percentile: float, n: int) -> int:
    """Zero-based index of the standard (ceil) nearest-rank percentile.

    For a sorted sample of ``n`` values, the nearest-rank method picks
    the ``ceil(p/100 * n)``-th smallest value.  The previous
    ``round``-based variant both under-selected mid-ranks (banker's
    rounding sent p=25 on n=2 to rank 0) and collapsed small
    percentiles to index 0 only via clamping; ceil is exact for every
    ``0 < p <= 100``: p=100 is the maximum, p<=100/n is the minimum.
    """
    if not 0 < percentile <= 100:
        raise ValueError("percentile must be in (0, 100]")
    if n <= 0:
        raise ValueError("need at least one value")
    return math.ceil(percentile / 100.0 * n) - 1


class BucketStrategy(enum.Enum):
    SEQUENTIAL = "sequential"
    PIPELINED = "pipelined"
    DOUBLE_BUFFERED = "double_buffered"


@dataclass
class BucketTimeline:
    """When each step of one bucket started/finished (ns)."""

    index: int
    t1_start: float
    t1_end: float
    t2_end: float
    t3_end: float
    t4_end: float
    #: queries actually carried by this bucket; ``None`` means a full
    #: bucket.  A partial final bucket still occupies a whole buffer
    #: slot (device buffers are fixed-size, the tail is padded), so its
    #: timing is a full bucket's — only its query count differs.
    queries: Optional[int] = None

    @property
    def completion(self) -> float:
        return self.t4_end

    def latency_of_average_query(self) -> float:
        """A query waits from bucket dispatch to mid-way through T4."""
        return self.t3_end + (self.t4_end - self.t3_end) / 2.0 - self.t1_start


@dataclass
class PipelineRun:
    """Result of playing N buckets through a schedule."""

    timelines: List[BucketTimeline]
    bucket_size: int

    @property
    def makespan_ns(self) -> float:
        """Completion time of the last bucket; 0.0 for an empty run."""
        if not self.timelines:
            return 0.0
        return max(t.completion for t in self.timelines)

    @property
    def total_queries(self) -> int:
        """Queries actually carried, partial final bucket included."""
        return sum(
            self.bucket_size if t.queries is None else t.queries
            for t in self.timelines
        )

    @property
    def throughput_qps(self) -> float:
        """Queries per second over the makespan.

        Defined as 0.0 for degenerate runs — no buckets, zero carried
        queries, or an all-zero cost model (makespan 0) — instead of
        raising ``ZeroDivisionError`` / returning NaN: an idle or
        costless pipeline serves nothing per second.
        """
        queries = self.total_queries
        makespan = self.makespan_ns
        if queries == 0 or makespan <= 0.0:
            return 0.0
        return queries * 1e9 / makespan

    @property
    def mean_latency_ns(self) -> float:
        """Mean per-bucket average-query latency; 0.0 for an empty run."""
        if not self.timelines:
            return 0.0
        lats = [t.latency_of_average_query() for t in self.timelines]
        return sum(lats) / len(lats)

    def latency_percentile_ns(self, percentile: float) -> float:
        """Per-bucket query latency at a percentile (e.g. 50, 99).

        Computed over the per-bucket average-query latencies, which
        capture pipeline fill/drain and queueing differences between
        buckets.  Uses the standard ceil-based nearest-rank
        (:func:`nearest_rank_index`); the earlier ``round``-based rank
        picked the lower of two candidates at mid-percentiles.
        """
        if not 0 < percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if not self.timelines:
            return 0.0
        lats = sorted(t.latency_of_average_query() for t in self.timelines)
        return lats[nearest_rank_index(percentile, len(lats))]

    def timelines_df(self) -> List[dict]:
        """Structured export of every bucket timeline (list of dicts).

        One row per bucket with every step boundary, the carried query
        count (partial final bucket included) and the derived per-row
        metrics — so benchmarks can join the model's prediction against
        measured wall-clock data without poking at private attributes.
        The rows are ``pandas.DataFrame``-ready but require nothing
        beyond the standard library.
        """
        rows = []
        for t in self.timelines:
            rows.append({
                "index": t.index,
                "t1_start": t.t1_start,
                "t1_end": t.t1_end,
                "t2_end": t.t2_end,
                "t3_end": t.t3_end,
                "t4_end": t.t4_end,
                "queries": self.bucket_size if t.queries is None else t.queries,
                "completion_ns": t.completion,
                "avg_query_latency_ns": t.latency_of_average_query(),
            })
        return rows

    @property
    def steady_state_bucket_ns(self) -> float:
        """Per-bucket cost once the pipeline is warm."""
        if len(self.timelines) < 2:
            return self.makespan_ns
        tail = self.timelines[len(self.timelines) // 2:]
        if len(tail) < 2:
            tail = self.timelines[-2:]
        return (tail[-1].completion - tail[0].completion) / (len(tail) - 1)


class PipelineSimulator:
    """Plays buckets through a strategy, tracking resource conflicts.

    Resources: the PCIe link (shared by T1/T3), the GPU (T2) and the
    CPU worker pool (T4).  ``buffers`` is the number of buckets allowed
    in flight: 1 models sequential handling, 2 the plain pipelined /
    double-buffered variants, 3 the load-balanced variant's deeper
    queue (section 5.5).
    """

    def __init__(self, costs: BucketCosts, strategy: BucketStrategy,
                 bucket_size: int, buffers: int = 2):
        if buffers < 1:
            raise ValueError("need at least one buffer")
        self.costs = costs
        self.strategy = strategy
        self.bucket_size = bucket_size
        self.buffers = buffers

    def run(self, n_buckets: int) -> PipelineRun:
        if n_buckets <= 0:
            raise ValueError("need at least one bucket")
        if self.strategy is BucketStrategy.SEQUENTIAL:
            timelines = self._run_sequential(n_buckets)
        elif self.strategy is BucketStrategy.PIPELINED:
            timelines = self._run_pipelined(n_buckets, transfer_hidden=False)
        else:
            timelines = self._run_pipelined(n_buckets, transfer_hidden=True)
        return PipelineRun(timelines=timelines, bucket_size=self.bucket_size)

    def run_queries(self, n_queries: int) -> PipelineRun:
        """Play exactly ``n_queries`` through the schedule.

        A trailing partial bucket pays a full bucket's time (fixed-size
        buffers) but counts only its real queries, so
        :attr:`PipelineRun.throughput_qps` no longer overcounts when
        the workload is not a bucket multiple.
        """
        if n_queries <= 0:
            raise ValueError("need at least one query")
        n_buckets = -(-n_queries // self.bucket_size)
        run = self.run(n_buckets)
        remainder = n_queries - (n_buckets - 1) * self.bucket_size
        if remainder != self.bucket_size:
            run.timelines[-1].queries = remainder
        return run

    # ------------------------------------------------------------------

    def _run_sequential(self, n: int) -> List[BucketTimeline]:
        c = self.costs
        out = []
        t = 0.0
        for i in range(n):
            t1s = t
            t1e = t1s + c.t1
            t2e = t1e + c.t2
            t3e = t2e + c.t3
            t4e = t3e + c.t4
            out.append(BucketTimeline(i, t1s, t1e, t2e, t3e, t4e))
            t = t4e
        return out

    def _run_pipelined(self, n: int, transfer_hidden: bool
                        ) -> List[BucketTimeline]:
        """Event-driven schedule with GPU, CPU and link as resources.

        With ``transfer_hidden`` (double buffering) a second buffer lets
        the next bucket's T1 proceed during the current bucket's T2, so
        the GPU never waits on the link; without it (plain pipelining)
        the next T1 may only start once the current bucket's results
        left the GPU (Fig 5's schedule).
        """
        c = self.costs
        out: List[BucketTimeline] = []
        gpu_free = 0.0
        cpu_free = 0.0
        # PCIe is full duplex: host->device and device->host transfers
        # ride separate DMA engines
        link_up_free = 0.0
        link_down_free = 0.0
        prev_t3_end = 0.0
        for i in range(n):
            if transfer_hidden or i == 0:
                t1s = max(link_up_free, 0.0)
            else:
                # Fig 5: bucket i+1 is loaded after bucket i's results
                # transferred back
                t1s = max(link_up_free, prev_t3_end)
            if i >= self.buffers:
                # the device-side query/result buffers free once the
                # intermediate results reached host memory (T3 end); the
                # CPU leaf stage works out of host memory and is not
                # part of the device buffer cycle
                t1s = max(t1s, out[i - self.buffers].t3_end)
            t1e = t1s + c.t1
            link_up_free = t1e
            t2s = max(t1e, gpu_free)
            t2e = t2s + c.t2
            gpu_free = t2e
            t3s = max(t2e, link_down_free)
            t3e = t3s + c.t3
            link_down_free = t3e
            prev_t3_end = t3e
            t4s = max(t3e, cpu_free)
            t4e = t4s + c.t4
            cpu_free = t4e
            out.append(BucketTimeline(i, t1s, t1e, t2e, t3e, t4e))
        return out


def strategy_throughput_qps(
    costs: BucketCosts, strategy: BucketStrategy, bucket_size: int,
    n_buckets: int = 64,
) -> float:
    """Steady-state throughput of a strategy via the event simulator."""
    run = PipelineSimulator(costs, strategy, bucket_size).run(n_buckets)
    return bucket_size * 1e9 / run.steady_state_bucket_ns


def strategy_latency_ns(
    costs: BucketCosts, strategy: BucketStrategy, bucket_size: int,
    n_buckets: int = 64,
) -> float:
    run = PipelineSimulator(costs, strategy, bucket_size).run(n_buckets)
    return run.mean_latency_ns
