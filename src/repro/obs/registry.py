"""Process-local metrics: counters, gauges, mergeable latency histograms.

The paper sells *quantitative guarantees* — O(1) updates, constant
delay — and this module is how the running system observes them instead
of merely asserting them in benchmarks.  A :class:`MetricsRegistry`
hands out three instrument kinds:

* :class:`Counter` — a monotonically increasing total (reads served,
  bytes sent, revalidations survived);
* :class:`Gauge` — a point-in-time level (dispatch queue depth,
  in-flight requests);
* :class:`Histogram` — a **fixed-bucket** latency distribution.  Fixed
  buckets are the load-bearing choice: two histograms with the same
  bucket boundaries merge by elementwise addition, so per-worker
  distributions recorded in separate processes combine into one
  cluster-wide distribution without any per-sample traffic
  (:func:`merge_snapshots`), and p50/p95/p99 are estimated from the
  merged buckets (:meth:`Histogram.quantile`).

Everything is deliberately cheap on the hot path: ``Counter.inc`` is an
unlocked ``+=`` (same GIL-atomicity budget as the serving layer's
pre-existing ad-hoc counters), ``Histogram.observe`` is one C-speed
:func:`bisect.bisect_left` plus two ``+=``.  Instrument *creation* is
locked and cached, so layers can call ``registry.counter(...)`` once at
construction and hold the instrument.

The no-op fast path: :data:`NULL_REGISTRY` answers the same surface
with shared do-nothing instruments, so ``Session(observe=False)``
callers pay only a ``None``/flag check on hot paths
(``registry.enabled`` tells layers whether timing calls are worth
making at all).

Exposition: :meth:`MetricsRegistry.snapshot` is the JSON-able wire/dump
form (what the ``metrics`` worker op ships and the nightly artifact
stores) and :func:`render_prometheus` turns any snapshot into the
Prometheus text format, cumulative ``le`` buckets and all.
"""

from __future__ import annotations

import gc
import threading
import weakref
from bisect import bisect_left
from time import perf_counter
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "GC_PAUSE_METRIC",
    "merge_snapshots",
    "render_prometheus",
    "snapshot_quantile",
    "watch_collector",
]

#: Log-spaced seconds from 1µs to 10s — wide enough that a constant-
#: time engine update (µs) and a journal replay recovery (100s of ms)
#: land mid-range, never in the open-ended overflow bucket.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1,
    1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing total.  ``inc`` is an unlocked ``+=``."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __eq__(self, other: object) -> bool:
        # Counters compare by value (against ints and each other) so
        # code that previously kept plain-int tallies can swap in a
        # Counter without disturbing equality-based assertions.
        if isinstance(other, Counter):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        return object.__hash__(self)

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """A point-in-time level with a high-water mark."""

    __slots__ = ("value", "high_water")

    def __init__(self) -> None:
        self.value = 0
        self.high_water = 0

    def set(self, value) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def inc(self, n: int = 1) -> None:
        self.set(self.value + n)

    def dec(self, n: int = 1) -> None:
        self.value -= n

    def __repr__(self) -> str:
        return f"Gauge({self.value}, high_water={self.high_water})"


class Histogram:
    """Fixed-bucket distribution with quantile estimates.

    ``boundaries`` are the *upper* bucket edges; one extra overflow
    bucket catches everything above the last edge.  Two histograms with
    identical boundaries merge by adding their count arrays — the
    property the cluster-wide :func:`merge_snapshots` relies on.
    """

    __slots__ = ("boundaries", "counts", "sum", "count")

    def __init__(self, boundaries: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS):
        self.boundaries = tuple(boundaries)
        self.counts = [0] * (len(self.boundaries) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> Optional[float]:
        """Estimated q-quantile (0 < q <= 1) by linear interpolation
        within the bucket where the cumulative count crosses q·total.
        None on an empty histogram; the overflow bucket reports its
        lower edge (the estimate is then a lower bound)."""
        return _bucket_quantile(self.boundaries, self.counts, self.count, q)

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def state(self) -> Dict[str, object]:
        return {
            "le": list(self.boundaries),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, sum={self.sum:.6f})"


def _bucket_quantile(
    boundaries: Tuple[float, ...],
    counts: List[int],
    total: int,
    q: float,
) -> Optional[float]:
    if not total:
        return None
    target = q * total
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        if not bucket_count:
            continue
        if cumulative + bucket_count >= target:
            if index >= len(boundaries):
                return boundaries[-1]  # overflow: lower-bound estimate
            low = boundaries[index - 1] if index else 0.0
            high = boundaries[index]
            fraction = (target - cumulative) / bucket_count
            return low + (high - low) * fraction
        cumulative += bucket_count
    return boundaries[-1]


def _key(name: str, labels: Mapping[str, object]) -> str:
    """``name{a="x",b="y"}`` with sorted labels — already the Prometheus
    series syntax, so snapshots render without re-parsing."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """One process's named instruments, snapshot-able and mergeable."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument factories (locked, cached; hold the result) ---------

    def counter(self, name: str, **labels) -> Counter:
        key = _key(name, labels)
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter()
            return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        key = _key(name, labels)
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge()
            return instrument

    def histogram(
        self,
        name: str,
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels,
    ) -> Histogram:
        key = _key(name, labels)
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram(buckets)
            return instrument

    # -- exposition -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-able dump: what the ``metrics`` worker op ships."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in self._counters.items()},
                "gauges": {k: g.value for k, g in self._gauges.items()},
                "histograms": {
                    k: h.state() for k, h in self._histograms.items()
                },
            }

    def render_prometheus(self) -> str:
        return render_prometheus(self.snapshot())

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)})"
            )


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram for ``observe=False``."""

    __slots__ = ()
    value = 0
    high_water = 0
    sum = 0.0
    count = 0
    mean = None
    boundaries: Tuple[float, ...] = ()

    def inc(self, n: int = 1) -> None:
        pass

    def dec(self, n: int = 1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> Optional[float]:
        return None

    def state(self) -> Dict[str, object]:
        return {"le": [], "counts": [], "sum": 0.0, "count": 0}


_NULL_INSTRUMENT = _NullInstrument()


class _NullRegistry:
    """The ``observe=False`` fast path: same surface, no recording."""

    enabled = False

    def counter(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, buckets=DEFAULT_LATENCY_BUCKETS, **labels):
        return _NULL_INSTRUMENT

    def snapshot(self) -> Dict[str, object]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def render_prometheus(self) -> str:
        return ""

    def __repr__(self) -> str:
        return "NullRegistry()"


NULL_REGISTRY = _NullRegistry()


# ---------------------------------------------------------------------------
# the cyclic collector as a metric
# ---------------------------------------------------------------------------

#: Seconds per collector pass, labelled ``generation="0" | "1" | "2"``.
GC_PAUSE_METRIC = "repro_gc_pause_seconds"

#: Live observing sessions; each holds its per-generation histograms as
#: ``_gc_pauses``.  A dropped session leaves the set when it is freed.
_collector_watchers: "weakref.WeakSet[object]" = weakref.WeakSet()
# Reentrant: a collection can start inside watch_collector's own add,
# and the hook then runs on the thread already holding the lock.
_collector_lock = threading.RLock()
_collection_started = 0.0


def _on_collection(phase: str, info: Dict[str, int]) -> None:
    """The one process-wide ``gc.callbacks`` hook.  Collections never
    overlap, so one start stamp suffices; the hook only calls
    ``observe`` on instruments created beforehand — taking a registry
    lock here could deadlock against the allocation that triggered the
    pass."""
    global _collection_started
    if phase == "start":
        _collection_started = perf_counter()
        return
    seconds = perf_counter() - _collection_started
    generation = info["generation"]
    with _collector_lock:
        for watcher in _collector_watchers:
            watcher._gc_pauses[generation].observe(seconds)


def watch_collector(session: object) -> None:
    """Feed every collector pass into ``session.metrics`` as
    ``repro_gc_pause_seconds{generation}`` for as long as the session
    lives.  The first call installs the process-wide hook; cluster
    workers' series reach the client through the usual snapshot merge
    (:meth:`repro.serve.cluster.ClusterClient.metrics`)."""
    registry = session.metrics  # type: ignore[attr-defined]
    session._gc_pauses = tuple(  # type: ignore[attr-defined]
        registry.histogram(GC_PAUSE_METRIC, generation=str(generation))
        for generation in range(3)
    )
    with _collector_lock:
        if _on_collection not in gc.callbacks:
            gc.callbacks.append(_on_collection)
        _collector_watchers.add(session)


# ---------------------------------------------------------------------------
# snapshot algebra — the cross-process merge
# ---------------------------------------------------------------------------


def merge_snapshots(snapshots: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Merge registry snapshots from many processes into one.

    Counters and gauges add (a cluster's queue depth is the sum of its
    workers'); histograms with identical boundaries add elementwise —
    that is exactly why the buckets are fixed.  A boundary mismatch
    (custom buckets meeting defaults under one name) keeps the first
    series and counts the collision under ``"skew"`` rather than
    producing a silently wrong distribution.
    """
    merged: Dict[str, object] = {
        "counters": {},
        "gauges": {},
        "histograms": {},
        "skew": 0,
    }
    counters: Dict[str, int] = merged["counters"]  # type: ignore[assignment]
    gauges: Dict[str, float] = merged["gauges"]  # type: ignore[assignment]
    histograms: Dict[str, Dict[str, object]] = merged["histograms"]  # type: ignore[assignment]
    for snapshot in snapshots:
        if not snapshot:
            continue
        for key, value in snapshot.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        for key, value in snapshot.get("gauges", {}).items():
            gauges[key] = gauges.get(key, 0) + value
        for key, state in snapshot.get("histograms", {}).items():
            existing = histograms.get(key)
            if existing is None:
                histograms[key] = {
                    "le": list(state["le"]),
                    "counts": list(state["counts"]),
                    "sum": state["sum"],
                    "count": state["count"],
                }
            elif existing["le"] == list(state["le"]):
                existing["counts"] = [
                    a + b for a, b in zip(existing["counts"], state["counts"])
                ]
                existing["sum"] += state["sum"]
                existing["count"] += state["count"]
            else:
                merged["skew"] += 1
        merged["skew"] += snapshot.get("skew", 0)
    return merged


def snapshot_quantile(
    state: Mapping[str, object], q: float
) -> Optional[float]:
    """Quantile estimate over a snapshot histogram state dict."""
    return _bucket_quantile(
        tuple(state["le"]), list(state["counts"]), int(state["count"]), q
    )


def render_prometheus(snapshot: Mapping[str, object]) -> str:
    """Any snapshot (single-process or merged) as Prometheus text."""
    lines: List[str] = []
    seen_types: set = set()

    def type_line(key: str, kind: str) -> None:
        base = key.split("{", 1)[0]
        if base not in seen_types:
            seen_types.add(base)
            lines.append(f"# TYPE {base} {kind}")

    for key in sorted(snapshot.get("counters", {})):
        type_line(key, "counter")
        lines.append(f"{key} {snapshot['counters'][key]}")
    for key in sorted(snapshot.get("gauges", {})):
        type_line(key, "gauge")
        lines.append(f"{key} {snapshot['gauges'][key]}")
    for key in sorted(snapshot.get("histograms", {})):
        state = snapshot["histograms"][key]
        base, brace, labels = key.partition("{")
        labels = labels[:-1] if brace else ""
        type_line(base, "histogram")

        def series(suffix: str, extra: str = "") -> str:
            inner = ",".join(part for part in (labels, extra) if part)
            return f"{base}{suffix}{{{inner}}}" if inner else f"{base}{suffix}"

        cumulative = 0
        for edge, count in zip(state["le"], state["counts"]):
            cumulative += count
            edge_label = 'le="%s"' % edge
            lines.append("%s %d" % (series("_bucket", edge_label), cumulative))
        if len(state["counts"]) > len(state["le"]):
            cumulative += state["counts"][len(state["le"])]
        lines.append("%s %d" % (series("_bucket", 'le="+Inf"'), cumulative))
        lines.append("%s %s" % (series("_sum"), state["sum"]))
        lines.append("%s %s" % (series("_count"), state["count"]))
    return "\n".join(lines) + ("\n" if lines else "")
