"""Profiling hooks: subscribe to pipeline events without coupling.

Benchmarks, the resilience layer and ad-hoc experiments often want a
callback at well-known points of the execution — bucket boundaries,
fault absorption, degradation — without the engines importing them.
:class:`HookSet` is a tiny synchronous pub-sub for that.

Well-known events (components document which they emit):

======================  ====================================================
``bucket_start``        the engine accepted a bucket (serial, in order)
``bucket_end``          a bucket's results are ready (serial, in order)
``fault``               the resilience layer absorbed one injected fault
``degrade``             the circuit breaker opened (``reason`` labels why)
``recover``             a probe brought the GPU back
``probe``               a recovery probe ran (``ok`` carries the outcome)
``rebalance``           the adaptive controller applied a (D, R) split
                        (``depth``/``ratio``/``gain``/``reason``;
                        ``moved`` is False when a forced re-apply landed
                        on the split already in force)
======================  ====================================================

Handlers run synchronously on the emitting thread; exceptions propagate
to the emitter (observability bugs should be loud in tests, and a
handler that must never throw can guard itself).  Emission with no
subscribers is one dict lookup — cheap enough for per-bucket sites.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List

Handler = Callable[..., Any]


class HookSet:
    """Named synchronous event hooks.

    ``frozen=True`` builds an immutable, permanently-empty hook set —
    used for the shared :data:`repro.obs.NULL_OBS` so nobody can
    accidentally subscribe every component in the process at once.
    """

    def __init__(self, frozen: bool = False):
        self._frozen = frozen
        self._lock = threading.Lock()
        self._handlers: Dict[str, List[Handler]] = {}

    def subscribe(self, event: str, handler: Handler) -> Callable[[], None]:
        """Register ``handler`` for ``event``; returns an unsubscriber."""
        if self._frozen:
            raise RuntimeError(
                "this HookSet is frozen (subscribing on the shared "
                "NULL_OBS would leak into every component); create an "
                "enabled Observability instead"
            )
        with self._lock:
            self._handlers.setdefault(event, []).append(handler)

        def unsubscribe() -> None:
            with self._lock:
                handlers = self._handlers.get(event, [])
                if handler in handlers:
                    handlers.remove(handler)

        return unsubscribe

    def on(self, event: str) -> Callable[[Handler], Handler]:
        """Decorator form of :meth:`subscribe`."""

        def deco(fn: Handler) -> Handler:
            self.subscribe(event, fn)
            return fn

        return deco

    def emit(self, event: str, **payload) -> None:
        """Call every subscriber of ``event`` in subscription order."""
        handlers = self._handlers.get(event)
        if not handlers:
            return
        with self._lock:
            handlers = list(handlers)
        for handler in handlers:
            handler(**payload)

    def has(self, event: str) -> bool:
        return bool(self._handlers.get(event))

    def clear(self) -> None:
        if self._frozen:
            return
        with self._lock:
            self._handlers.clear()
