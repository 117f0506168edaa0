"""Named counters/gauges/histograms with labeled dimensions.

Today's accounting is scattered over per-module stats dataclasses
(``BatchStats``, ``ResilienceStats``, ``MirrorSyncStats``,
``TransferStats``, ``AccessCounters``, ...).
:class:`MetricsRegistry` is the unifying surface: every instrument is
addressed by a name plus a label set (``engine="batch"``,
``bucket=3``, ``state="degraded"``), created on first use, and exported
through one ``snapshot()`` / ``reset()`` API.  The exporters in
:mod:`repro.obs.export` bridge the existing stats objects into a
registry without the components having to know about each other.

Thread safety: instrument creation and every mutation take the
registry's lock — observability runs at bucket granularity, so a lock
per update is far off any hot path.  A disabled registry hands out a
shared no-op instrument, keeping the disabled cost to one branch.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _series_name(name: str, key: LabelKey) -> str:
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


class _Instrument:
    """Base: a named series addressed by (name, labels)."""

    kind = "instrument"

    def __init__(self, name: str, key: LabelKey, lock: threading.Lock):
        self.name = name
        self.labels = dict(key)
        self._key = key
        self._lock = lock

    @property
    def series(self) -> str:
        return _series_name(self.name, self._key)


class Counter(_Instrument):
    """Monotone event count; ``inc`` only."""

    kind = "counter"

    def __init__(self, name: str, key: LabelKey, lock: threading.Lock):
        super().__init__(name, key, lock)
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only increase; use a gauge")
        with self._lock:
            self.value += n

    def _reset(self) -> None:
        self.value = 0

    def _export(self):
        return self.value


class Gauge(_Instrument):
    """Last-written value (set/add)."""

    kind = "gauge"

    def __init__(self, name: str, key: LabelKey, lock: threading.Lock):
        super().__init__(name, key, lock)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self.value += delta

    def _reset(self) -> None:
        self.value = 0.0

    def _export(self):
        return self.value


class Histogram(_Instrument):
    """Streaming summary of observed values (count/sum/min/max/mean).

    Deliberately reservoir-free: bounded memory no matter how many
    observations, which is what lets it sit on per-bucket paths.
    """

    kind = "histogram"

    def __init__(self, name: str, key: LabelKey, lock: threading.Lock):
        super().__init__(name, key, lock)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        v = float(value)
        with self._lock:
            self.count += 1
            self.sum += v
            if self.min is None or v < self.min:
                self.min = v
            if self.max is None or v > self.max:
                self.max = v

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.sum / self.count

    def _reset(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def _export(self):
        return {
            "count": self.count, "sum": self.sum, "mean": self.mean,
            "min": self.min, "max": self.max,
        }


class _NullInstrument:
    """Accepts every instrument method as a no-op (disabled registry)."""

    __slots__ = ()
    value = 0
    count = 0
    sum = 0.0
    mean = 0.0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Get-or-create registry of labeled instruments.

    The same ``(name, labels)`` pair always returns the same instrument
    object; distinct label values create distinct series (classic label
    cardinality — keep label values low-cardinality: engine names,
    fault states, strategy names, not raw keys).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, str, LabelKey], Any] = {}

    # -- instrument accessors ------------------------------------------

    def _get(self, cls, name: str, labels: Dict[str, Any]):
        if not self.enabled:
            return _NULL_INSTRUMENT
        key = _label_key(labels)
        slot = (cls.kind, name, key)
        with self._lock:
            inst = self._series.get(slot)
            if inst is None:
                for kind, other, okey in self._series:
                    if other == name and kind != cls.kind:
                        raise TypeError(
                            f"metric {name!r} already registered as {kind}"
                        )
                inst = self._series[slot] = cls(name, key, self._lock)
            return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- bulk API -------------------------------------------------------

    def instruments(self) -> Iterable[_Instrument]:
        with self._lock:
            return list(self._series.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    def snapshot(self) -> Dict[str, Any]:
        """Detached ``{series-name: value}`` dict, sorted by series.

        Counters/gauges export their value, histograms a summary dict.
        Mutating the registry afterwards never changes a snapshot.
        """
        return {
            inst.series: inst._export()
            for inst in sorted(self.instruments(), key=lambda i: i.series)
        }

    def reset(self) -> None:
        """Zero every instrument in place (registrations survive, so
        instrument objects held by components stay live)."""
        for inst in self.instruments():
            inst._reset()


#: the shared disabled registry (hands out no-op instruments)
NULL_REGISTRY = MetricsRegistry(enabled=False)
