"""Per-shard bounded admission windows (backpressure for the service).

Each shard admits at most ``capacity_ops`` operations in flight at a
time.  A batch that does not fit waits (``BLOCK`` — backpressure
propagates to the submitter) or is rejected immediately with zero side
effects (``SHED`` — load shedding).  Admission is all-or-nothing per
batch, FIFO-fair under ``BLOCK`` (a waiting batch parks on the shared
condition; wakeups re-check in arrival order of notification).

This models the service-side request queue of a real deployment: the
depth of the window is the queue, and the high-watermark / shed / wait
counters in :class:`AdmissionStats` are the signals an operator (or
the service's own rebalancer) watches for a hot shard.
"""

from __future__ import annotations

import enum
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.stats import Stats


class AdmissionPolicy(enum.Enum):
    """What happens to a batch that does not fit the window."""

    BLOCK = "block"
    SHED = "shed"


class ShardOverloaded(RuntimeError):
    """A ``SHED``-policy shard rejected a batch (queue full), or a
    ``BLOCK``-policy wait exceeded its timeout."""

    def __init__(self, shard: int, requested: int, depth: int,
                 capacity: int):
        super().__init__(
            f"shard {shard}: batch of {requested} ops rejected "
            f"({depth}/{capacity} ops already queued)"
        )
        self.shard = shard
        self.requested = requested
        self.depth = depth
        self.capacity = capacity


@dataclass
class AdmissionStats(Stats):
    """One shard queue's lifetime accounting."""

    submitted_batches: int = 0
    admitted_batches: int = 0
    shed_batches: int = 0
    shed_ops: int = 0
    #: times an admission had to park and wait for space (BLOCK)
    blocked_waits: int = 0
    #: highest in-flight op count observed
    max_depth: int = 0


class ShardQueue:
    """A bounded in-flight window with block/shed admission.

    Use as a context manager around the shard work::

        with queue.admit(n_ops):
            engine.lookup_batch(...)

    Oversized batches (``ops > capacity_ops``) are admitted alone —
    they wait for an empty window and then occupy it exclusively;
    refusing them outright would make the capacity a hard batch-size
    limit rather than a backpressure bound.
    """

    def __init__(self, shard: int, capacity_ops: int,
                 policy: AdmissionPolicy = AdmissionPolicy.BLOCK,
                 timeout_s: Optional[float] = None):
        if capacity_ops < 1:
            raise ValueError("capacity_ops must be >= 1")
        self.shard = shard
        self.capacity_ops = int(capacity_ops)
        self.policy = AdmissionPolicy(policy)
        self.timeout_s = timeout_s
        self.stats = AdmissionStats()
        self._depth = 0
        self._cond = threading.Condition()

    @property
    def depth(self) -> int:
        """Ops currently in flight on this shard."""
        with self._cond:
            return self._depth

    def _fits(self, ops: int) -> bool:
        if ops > self.capacity_ops:
            # oversized batch: admitted alone, into an empty window
            return self._depth == 0
        return self._depth + ops <= self.capacity_ops

    def acquire(self, ops: int) -> None:
        if ops < 0:
            raise ValueError("ops must be >= 0")
        with self._cond:
            self.stats.submitted_batches += 1
            if not self._fits(ops):
                if self.policy is AdmissionPolicy.SHED:
                    self.stats.shed_batches += 1
                    self.stats.shed_ops += ops
                    raise ShardOverloaded(
                        self.shard, ops, self._depth, self.capacity_ops
                    )
                self.stats.blocked_waits += 1
                if not self._cond.wait_for(
                    lambda: self._fits(ops), timeout=self.timeout_s
                ):
                    self.stats.shed_batches += 1
                    self.stats.shed_ops += ops
                    raise ShardOverloaded(
                        self.shard, ops, self._depth, self.capacity_ops
                    )
            self._depth += ops
            self.stats.admitted_batches += 1
            self.stats.max_depth = max(self.stats.max_depth, self._depth)

    def release(self, ops: int) -> None:
        with self._cond:
            self._depth -= ops
            if self._depth < 0:
                raise RuntimeError(
                    f"shard {self.shard}: released more ops than admitted"
                )
            self._cond.notify_all()

    @contextmanager
    def admit(self, ops: int):
        self.acquire(ops)
        try:
            yield self
        finally:
            self.release(ops)
