"""``repro.obs`` — tracing, metrics and profiling hooks (DESIGN.md §10).

The observability layer the evaluation rests on: hierarchical span
tracing with Chrome trace-event / Perfetto export
(:class:`~repro.obs.trace.Tracer`), a unified metrics registry with
labeled counters/gauges/histograms
(:class:`~repro.obs.metrics.MetricsRegistry`), synchronous profiling
hooks (:class:`~repro.obs.hooks.HookSet`), one base for the layers'
stats records (:class:`~repro.obs.stats.Stats`) and one export path
that folds them into one snapshot (:mod:`repro.obs.export`), and a
trace-schema validator used by CI (:mod:`repro.obs.validate`).

The one object components hold is the
:class:`~repro.obs.bundle.Observability` bundle; everything defaults to
the shared disabled :data:`NULL_OBS`.  Guarantee: enabling observability
never changes results or modeled counters — only wall-clock-derived
fields may differ (property-tested in ``tests/test_obs.py``).
"""

from repro.obs.bundle import NULL_OBS, Observability
from repro.obs.export import (
    collect_all,
    publish,
    publish_engine,
    publish_service,
    stats_dict,
)
from repro.obs.hooks import HookSet
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
)
from repro.obs.stats import Stats
from repro.obs.trace import NULL_SPAN, NULL_TRACER, Tracer
from repro.obs.validate import validate_events, validate_trace_file

__all__ = [
    "NULL_OBS",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "HookSet",
    "MetricsRegistry",
    "Observability",
    "Stats",
    "Tracer",
    "collect_all",
    "publish",
    "publish_engine",
    "publish_service",
    "stats_dict",
    "validate_events",
    "validate_trace_file",
]
