"""Observability: metrics, cross-process tracing, guarantee probes.

Three layers, all behind ``Session(observe=)`` with a no-op fast path:

* :mod:`repro.obs.registry` — counters, gauges and fixed-bucket
  latency histograms whose p50/p95/p99 survive a cross-process merge
  (:func:`merge_snapshots`), plus Prometheus text and JSON exposition,
  and the collector hook feeding ``repro_gc_pause_seconds{generation}``
  into every observing session (:func:`watch_collector`);
* :mod:`repro.obs.tracing` — ``trace_id``/``span_id`` contexts that
  travel inside every request frame, worker-side child spans, and the
  bounded :class:`SpanLog` with its ``REPRO_SLOW_OP_MS`` slow ring;
* :mod:`repro.obs.probes` — per-view observed update-cost and
  enumeration-delay distributions tagged with the planner's promised
  class, surfaced by ``View.explain()`` and checked for drift.

Consumers: ``ClusterClient.metrics()`` merges every worker's snapshot
(folding in dead workers' last-known counters), ``python -m repro
metrics`` scrapes a running cluster, and the serving benchmark gates
the whole subsystem at ≤ 1.05x write-path overhead.
"""

from repro.obs.probes import ViewProbe
from repro.obs.registry import (
    Counter,
    GC_PAUSE_METRIC,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    merge_snapshots,
    render_prometheus,
    snapshot_quantile,
    watch_collector,
)
from repro.obs.tracing import (
    NULL_SPANLOG,
    Span,
    SpanLog,
    extract,
    inject,
    new_span_id,
    new_trace_id,
)

__all__ = [
    "Counter",
    "GC_PAUSE_METRIC",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_SPANLOG",
    "Span",
    "SpanLog",
    "ViewProbe",
    "extract",
    "inject",
    "merge_snapshots",
    "new_span_id",
    "new_trace_id",
    "render_prometheus",
    "snapshot_quantile",
    "watch_collector",
]
