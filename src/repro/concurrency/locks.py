"""A lock table for the logical-thread scheduler.

Locks are identified by hashable resource ids (the updaters use
last-level inner-node ids).  The table tracks, per lock, who holds it
and until when — the scheduler is event driven, so a "held" lock is
simply a release timestamp in the future.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.obs.stats import Stats


@dataclass
class LockStats(Stats):
    """Aggregate contention counters."""

    acquisitions: int = 0
    contended_acquisitions: int = 0
    total_wait_ns: float = 0.0

    @property
    def contention_rate(self) -> float:
        if self.acquisitions == 0:
            return 0.0
        return self.contended_acquisitions / self.acquisitions


class LockTable:
    """Event-time lock bookkeeping.

    ``acquire(resource, now, hold_ns)`` returns the time the lock is
    actually granted (``>= now``); the caller holds it for ``hold_ns``
    from that moment.
    """

    def __init__(self):
        # resource -> (held_until_ns, holder)
        self._held: Dict[Hashable, Tuple[float, Optional[int]]] = {}
        self.stats = LockStats()

    def acquire(self, resource: Hashable, now: float, hold_ns: float,
                holder: Optional[int] = None) -> float:
        """Grant the lock at the earliest possible time; returns it."""
        if hold_ns < 0:
            raise ValueError("hold time cannot be negative")
        held_until, _prev = self._held.get(resource, (0.0, None))
        granted = max(now, held_until)
        self.stats.acquisitions += 1
        if granted > now:
            self.stats.contended_acquisitions += 1
            self.stats.total_wait_ns += granted - now
        self._held[resource] = (granted + hold_ns, holder)
        return granted

    def available_at(self, resource: Hashable) -> float:
        """When the resource frees (0.0 if never held)."""
        return self._held.get(resource, (0.0, None))[0]

    def holder_of(self, resource: Hashable) -> Optional[int]:
        return self._held.get(resource, (0.0, None))[1]

    def reset(self) -> None:
        self._held.clear()
        self.stats = LockStats()
