"""Guarantee probes: the paper's bounds, observed instead of asserted.

The planner promises each view a complexity class — O(poly(ϕ)) update
time and constant enumeration delay for q-hierarchical queries
(Theorem 3.2), Θ(delta join size) updates for the delta-IVM fallback —
and until now only benchmarks checked the promise.  A
:class:`ViewProbe` rides along in production: every effective update
records its engine cost into a per-view histogram, every served page
records its per-tuple delay *tagged with the result size it was served
at*, and both distributions sit in the metrics registry next to the
plan's promised class.

The payoff is :meth:`drift`: a view whose plan promised constant
per-tuple delay but whose *measured* delay grows with the result size
is flagged — the observable symptom of serving a fallback-quality plan
under a Theorem 3.2 label (a broken index, an accidentally filtered
scan, a non-prefix cursor binding on the hot path).  Size buckets are
powers of four, and drift compares the mean per-tuple delay of the
largest populated bucket against the smallest; a constant-delay view
stays flat (ratio ~1) while an O(|result|)-delay view tracks the size
ratio.

``View.explain()`` surfaces :meth:`observed` as a column next to the
promised guarantees, which is the acceptance shape of this subsystem:
promise and measurement, side by side.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.obs.registry import Histogram, MetricsRegistry

__all__ = ["ViewProbe", "CONSTANT_DELAY_ENGINES", "CONSTANT_UPDATE_ENGINES"]

#: Engines whose plans promise data-independent per-update cost.
CONSTANT_UPDATE_ENGINES = frozenset({"qhierarchical", "ucq_union"})

#: Engines whose plans promise data-independent per-tuple delay.
#: delta_ivm enumerates a materialised result — O(1) per tuple — while
#: recompute's first tuple hides a full re-evaluation.
CONSTANT_DELAY_ENGINES = frozenset({"qhierarchical", "ucq_union", "delta_ivm"})

def _update_stride() -> int:
    """How many updates share one timed sample (env REPRO_PROBE_STRIDE).

    Timing an update costs two clock reads plus a histogram observe —
    ~0.5µs, a large fraction of a Theorem 3.2 update itself.  Sampling
    every Nth update keeps the distribution honest (updates of one view
    are statistically exchangeable within a stride) while bounding the
    probe at a couple of integer ops per untimed update; the serving
    CI guards the total at <= 1.05x.  Stride 1 restores exhaustive
    timing for debugging.
    """
    try:
        return max(1, int(os.environ.get("REPRO_PROBE_STRIDE", "64")))
    except ValueError:
        return 64


#: Guard rails for the drift verdict: need both ends of the size range
#: populated with this many page samples, a real size spread, and a
#: delay blow-up well past timer noise before crying wolf.
_MIN_SAMPLES = 3
_MIN_SIZE_SPREAD = 16
_DRIFT_RATIO = 8.0


def _size_bucket(result_size: int) -> int:
    """Power-of-four size bucket (0, 1-4, 5-16, 17-64, ...)."""
    bucket = 0
    while result_size > 4 ** bucket:
        bucket += 1
    return bucket


class ViewProbe:
    """Observed update-cost and enumeration-delay for one view."""

    __slots__ = (
        "view",
        "engine",
        "constant_update",
        "constant_delay",
        "update_hist",
        "result_size",
        "delay_hist",
        "page_hist",
        "revalidations",
        "invalidations",
        "cursors_opened",
        "update_stride",
        "update_countdown",
        "_delay_by_size",
        "_registry",
        "_bound_hists",
    )

    def __init__(self, view: str, engine: str, registry: MetricsRegistry):
        self.view = view
        self.engine = engine
        self.constant_update = engine in CONSTANT_UPDATE_ENGINES
        self.constant_delay = engine in CONSTANT_DELAY_ENGINES
        self.update_hist = registry.histogram(
            "repro_view_update_seconds", view=view, engine=engine
        )
        #: ``|ϕ(D)|`` as of the last recorded update sample — single
        #: writes (1 in ``update_stride``) and batches (once per
        #: ``apply_all``) feed the one series; the view sets it, and
        #: only where ``count()`` is O(1).
        self.result_size = registry.gauge(
            "repro_view_result_size", view=view, engine=engine
        )
        self.delay_hist = registry.histogram(
            "repro_view_delay_seconds", view=view, engine=engine
        )
        #: the view's cursor instruments, resolved once here and shared
        #: by every cursor the view opens (a registry lookup builds a
        #: label key — four of them per ``open_cursor`` was a third of
        #: the open).
        self.page_hist = registry.histogram(
            "repro_cursor_page_seconds", view=view
        )
        self.revalidations = registry.counter(
            "repro_cursor_revalidations_total", view=view
        )
        self.invalidations = registry.counter(
            "repro_cursor_invalidations_total", view=view
        )
        self.cursors_opened = registry.counter(
            "repro_cursor_opened_total", view=view
        )
        #: update-timing sample stride; the caller decrements
        #: ``update_countdown`` per update and times the one that
        #: drives it below zero (so the very first update is sampled).
        self.update_stride = _update_stride()
        self.update_countdown = 0
        #: size bucket → [delay sum, tuple count, page samples]
        self._delay_by_size: Dict[int, List[float]] = {}
        #: access-pattern key → per-tuple bound-delay histogram, created
        #: lazily on the first bound page of that pattern (kept off the
        #: unbound hot path entirely).
        self._registry = registry
        self._bound_hists: Dict[str, Histogram] = {}

    # -- recording (hot path: keep it to adds and one observe) ----------

    def record_update(self, seconds: float) -> None:
        """One update's engine cost — a timed single write, or the
        per-command mean of a batch the view took as one net."""
        self.update_hist.observe(seconds)

    def record_page(
        self, seconds: float, tuples: int, result_size: int
    ) -> None:
        """One served page: ``tuples`` rows in ``seconds`` against a
        result of ``result_size`` rows.  The per-tuple delay lands in
        the delay histogram; the (size, delay) pair feeds drift."""
        if tuples <= 0:
            return
        per_tuple = seconds / tuples
        self.delay_hist.observe(per_tuple)
        bucket = self._delay_by_size.get(_size_bucket(result_size))
        if bucket is None:
            bucket = self._delay_by_size[_size_bucket(result_size)] = [
                0.0,
                0,
                0,
            ]
        bucket[0] += seconds
        bucket[1] += tuples
        bucket[2] += 1

    def record_bound_page(
        self, pattern: str, seconds: float, tuples: int
    ) -> None:
        """One page served under an access pattern: the per-tuple delay
        lands in that pattern's own histogram
        (``repro_view_bound_delay_seconds{view=..., pattern=...}``), so
        ``explain()`` can print measured percentiles per pattern."""
        if tuples <= 0:
            return
        hist = self._bound_hists.get(pattern)
        if hist is None:
            hist = self._bound_hists[pattern] = self._registry.histogram(
                "repro_view_bound_delay_seconds",
                view=self.view,
                pattern=pattern,
            )
        hist.observe(seconds / tuples)

    # -- verdicts -------------------------------------------------------

    def observed(self) -> Dict[str, object]:
        """The measured side of ``explain()``'s guarantee table."""
        out: Dict[str, object] = {
            "update": _percentiles(self.update_hist),
            "delay": _percentiles(self.delay_hist),
        }
        if self._bound_hists:
            out["access_patterns"] = {
                pattern: _percentiles(hist)
                for pattern, hist in self._bound_hists.items()
                if hist.count
            }
        drift = self.drift()
        if drift is not None:
            out["drift"] = drift
        return out

    def drift(self) -> Optional[Dict[str, object]]:
        """Flag a constant-delay promise contradicted by measurement.

        Returns None while the promise holds (or while there is not
        enough spread/sampling to judge); otherwise a dict naming the
        size ratio and the delay ratio that broke it.
        """
        if not self.constant_delay:
            return None
        populated = sorted(
            (bucket, stats)
            for bucket, stats in self._delay_by_size.items()
            if stats[2] >= _MIN_SAMPLES and stats[1] > 0
        )
        if len(populated) < 2:
            return None
        small_bucket, small = populated[0]
        large_bucket, large = populated[-1]
        size_spread = 4 ** (large_bucket - small_bucket)
        if size_spread < _MIN_SIZE_SPREAD:
            return None
        small_delay = small[0] / small[1]
        large_delay = large[0] / large[1]
        if small_delay <= 0:
            return None
        ratio = large_delay / small_delay
        if ratio < _DRIFT_RATIO:
            return None
        return {
            "view": self.view,
            "engine": self.engine,
            "promised": "constant per-tuple delay",
            "size_spread": size_spread,
            "delay_ratio": round(ratio, 1),
            "small_delay_us": round(small_delay * 1e6, 3),
            "large_delay_us": round(large_delay * 1e6, 3),
        }

    def __repr__(self) -> str:
        return (
            f"ViewProbe({self.view!r}, engine={self.engine!r}, "
            f"updates={self.update_hist.count}, "
            f"pages={self.delay_hist.count})"
        )


def _percentiles(histogram: Histogram) -> Optional[Dict[str, object]]:
    if not histogram.count:
        return None
    return {
        "p50_us": _us(histogram.quantile(0.50)),
        "p95_us": _us(histogram.quantile(0.95)),
        "p99_us": _us(histogram.quantile(0.99)),
        "n": histogram.count,
    }


def _us(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else round(seconds * 1e6, 3)


def format_observed(observed: Optional[Dict[str, object]], aspect: str) -> Optional[str]:
    """One ``explain()`` cell: ``p50=2.1µs p95=5.0µs p99=9.8µs (n=123)``."""
    if not observed:
        return None
    cell = observed.get(aspect)
    if not cell:
        return None
    return (
        f"p50={cell['p50_us']}µs p95={cell['p95_us']}µs "
        f"p99={cell['p99_us']}µs (n={cell['n']})"
    )
