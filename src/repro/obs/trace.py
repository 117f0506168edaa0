"""Hierarchical span tracing with Chrome trace-event export.

:class:`Tracer` records where a run's wall time went — hierarchical
spans with thread identity — and exports them in the Chrome trace-event
JSON format, so a run can be dropped into Perfetto
(https://ui.perfetto.dev) and inspected span by span: buckets, GPU
descents, PCIe transfers and CPU leaf stages, one track per thread.

Design constraints (DESIGN.md §10):

* **zero overhead when disabled** — a disabled tracer's :meth:`span`
  returns a shared no-op context manager without allocating; every
  component defaults to the shared :data:`NULL_TRACER` via
  :data:`repro.obs.NULL_OBS`;
* **never changes results or modeled counters** — the tracer only
  *observes* wall time; nothing in the simulation reads it (the
  bit-identity property is tested in ``tests/test_obs.py``);
* **thread-safe** — spans may open and close on any thread; each
  thread keeps its own nesting stack (thread-local), the shared event
  list is appended under a lock, and threads are auto-named from
  ``threading.current_thread().name`` so each track is labeled.

Timestamps are ``perf_counter_ns`` relative to the tracer's creation,
exported in microseconds (the trace-event unit).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional


class _NullSpan:
    """Shared no-op context manager returned by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """One live span: emits ``B`` on enter and the matching ``E`` on exit."""

    __slots__ = ("tracer", "name", "category", "args")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 args: Optional[Dict[str, Any]]):
        self.tracer = tracer
        self.name = name
        self.category = category
        self.args = args

    def __enter__(self) -> "_Span":
        self.tracer._begin(self.name, self.category, self.args)
        return self

    def __exit__(self, *exc) -> bool:
        self.tracer._end(self.name)
        return False


class Tracer:
    """Records hierarchical spans and exports Chrome trace-event JSON.

    ``enabled=False`` makes every recording method a no-op;
    :meth:`span` then returns the shared :data:`NULL_SPAN` so hot paths
    pay one attribute check and nothing else.

    ``clock`` is injectable for deterministic tests (it must return
    monotonically non-decreasing nanoseconds).
    """

    def __init__(self, enabled: bool = True,
                 clock: Callable[[], int] = time.perf_counter_ns):
        self.enabled = enabled
        self._clock = clock
        self._epoch = clock()
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._events: List[Dict[str, Any]] = []
        #: thread idents already announced via an ``M`` metadata event
        self._seen_threads: Dict[int, str] = {}

    # -- internals ------------------------------------------------------

    def _ts(self) -> float:
        """Microseconds since the tracer epoch (trace-event unit)."""
        return (self._clock() - self._epoch) / 1_000.0

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tid(self) -> int:
        return threading.get_ident()

    def _announce_thread(self, tid: int) -> List[Dict[str, Any]]:
        """Metadata event naming this thread's track, once per thread."""
        name = threading.current_thread().name
        if self._seen_threads.get(tid) == name:
            return []
        self._seen_threads[tid] = name
        return [{
            "ph": "M", "name": "thread_name", "pid": self._pid, "tid": tid,
            "args": {"name": name},
        }]

    def _append(self, event: Dict[str, Any]) -> None:
        tid = event["tid"]
        with self._lock:
            self._events.extend(self._announce_thread(tid))
            self._events.append(event)

    def _begin(self, name: str, category: str,
               args: Optional[Dict[str, Any]]) -> None:
        if not self.enabled:
            return
        self._stack().append(name)
        event: Dict[str, Any] = {
            "ph": "B", "name": name, "cat": category,
            "ts": self._ts(), "pid": self._pid, "tid": self._tid(),
        }
        if args:
            event["args"] = args
        self._append(event)

    def _end(self, name: str) -> None:
        if not self.enabled:
            return
        stack = self._stack()
        if not stack or stack[-1] != name:
            raise RuntimeError(
                f"span {name!r} closed out of order "
                f"(open stack: {stack!r})"
            )
        stack.pop()
        self._append({
            "ph": "E", "name": name, "cat": "repro",
            "ts": self._ts(), "pid": self._pid, "tid": self._tid(),
        })

    # -- recording API --------------------------------------------------

    def span(self, name: str, category: str = "repro", **args):
        """Context manager recording one ``B``/``E`` span pair.

        Keyword arguments become the span's ``args`` payload (shown in
        the Perfetto detail panel).  Disabled tracers return the shared
        no-op span.
        """
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, category, args or None)

    def instant(self, name: str, category: str = "repro", **args) -> None:
        """A zero-duration marker (``i`` phase), e.g. a fault event."""
        if not self.enabled:
            return
        event: Dict[str, Any] = {
            "ph": "i", "s": "t", "name": name, "cat": category,
            "ts": self._ts(), "pid": self._pid, "tid": self._tid(),
        }
        if args:
            event["args"] = args
        self._append(event)

    def counter(self, name: str, value: float,
                category: str = "repro") -> None:
        """A ``C`` counter sample (renders as a counter track)."""
        if not self.enabled:
            return
        self._append({
            "ph": "C", "name": name, "cat": category,
            "ts": self._ts(), "pid": self._pid, "tid": self._tid(),
            "args": {"value": value},
        })

    def depth(self) -> int:
        """Current span nesting depth on the calling thread."""
        return len(self._stack())

    # -- export ---------------------------------------------------------

    @property
    def events(self) -> List[Dict[str, Any]]:
        """A detached copy of every recorded event."""
        with self._lock:
            return [dict(e) for e in self._events]

    def span_count(self) -> int:
        """Completed spans recorded so far (``E`` events)."""
        with self._lock:
            return sum(1 for e in self._events if e["ph"] == "E")

    def thread_names(self) -> Dict[int, str]:
        """Thread ident -> announced track name."""
        with self._lock:
            return dict(self._seen_threads)

    def export(self) -> Dict[str, Any]:
        """The Chrome trace-event JSON payload (Perfetto-loadable)."""
        return {
            "traceEvents": self.events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs", "clock": "perf_counter_ns"},
        }

    def write(self, path) -> None:
        """Serialise :meth:`export` to ``path`` as JSON."""
        with open(path, "w") as fh:
            json.dump(self.export(), fh, indent=1)
            fh.write("\n")

    def reset(self) -> None:
        """Drop all recorded events (open spans on live threads keep
        their nesting stacks; reset between runs, not mid-span)."""
        with self._lock:
            self._events.clear()
            self._seen_threads.clear()


#: the shared disabled tracer every component defaults to
NULL_TRACER = Tracer(enabled=False)
