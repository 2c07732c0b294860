"""The metrics registry, guarantee probes and their serving hookup.

Unit coverage for :mod:`repro.obs.registry` (fixed-bucket histogram
algebra, the cross-process snapshot merge, Prometheus rendering, the
``observe=False`` null surface), :mod:`repro.obs.probes` (sampled
update timing, the drift verdict) and the layers that feed them: the
per-view engine counters, the serving layer's thin-view accessors, the
cursor/dispatch instruments and the ``metrics`` CLI plumbing.
"""

import pytest

from repro import Server, Session
from repro.obs.probes import ViewProbe, _update_stride
from repro.obs.registry import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    merge_snapshots,
    render_prometheus,
    snapshot_quantile,
)
from repro.storage.updates import delete, insert


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------


def test_counter_compares_by_value():
    counter = Counter()
    counter.inc()
    counter.inc(2)
    assert counter.value == 3
    # Equality against plain ints keeps pre-registry assertions (ad-hoc
    # tallies swapped for Counters) working unchanged.
    assert counter == 3
    assert counter != 4
    other = Counter()
    other.inc(3)
    assert counter == other
    assert [Counter(), counter] == [0, 3]
    # Identity-hash: usable in sets despite value equality.
    assert len({counter, other}) == 2


def test_gauge_tracks_high_water():
    gauge = Gauge()
    gauge.set(5)
    gauge.inc(3)
    gauge.dec(6)
    assert gauge.value == 2
    assert gauge.high_water == 8


def test_histogram_quantiles_interpolate_within_buckets():
    histogram = Histogram(boundaries=(1.0, 2.0, 4.0))
    assert histogram.quantile(0.5) is None  # empty
    for value in (0.5, 1.5, 1.5, 3.0):
        histogram.observe(value)
    assert histogram.count == 4
    assert histogram.sum == pytest.approx(6.5)
    assert histogram.mean == pytest.approx(1.625)
    # p50 falls inside the (1, 2] bucket that holds samples 2 and 3.
    p50 = histogram.quantile(0.5)
    assert 1.0 <= p50 <= 2.0
    # Everything above the last edge is a lower-bound estimate.
    histogram.observe(100.0)
    assert histogram.quantile(0.999) == 4.0


def test_snapshot_quantile_matches_instrument():
    histogram = Histogram(boundaries=(1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 1.5, 3.0):
        histogram.observe(value)
    state = histogram.state()
    assert snapshot_quantile(state, 0.5) == pytest.approx(
        histogram.quantile(0.5)
    )


def test_registry_caches_instruments_by_name_and_labels():
    registry = MetricsRegistry()
    a = registry.counter("x_total", shard=0)
    b = registry.counter("x_total", shard=0)
    c = registry.counter("x_total", shard=1)
    assert a is b and a is not c
    a.inc(2)
    snap = registry.snapshot()
    assert snap["counters"]['x_total{shard="0"}'] == 2
    assert snap["counters"]['x_total{shard="1"}'] == 0


# ---------------------------------------------------------------------------
# snapshot algebra
# ---------------------------------------------------------------------------


def _process_snapshot(counter_value, histogram_values):
    registry = MetricsRegistry()
    registry.counter("ops_total").inc(counter_value)
    registry.gauge("depth").set(counter_value)
    histogram = registry.histogram("lat_seconds")
    for value in histogram_values:
        histogram.observe(value)
    return registry.snapshot()


def test_merge_snapshots_adds_everything_elementwise():
    merged = merge_snapshots(
        [
            _process_snapshot(2, [1e-5, 1e-3]),
            _process_snapshot(3, [1e-4]),
            {},  # a dead worker with no cached snapshot contributes nothing
        ]
    )
    assert merged["counters"]["ops_total"] == 5
    assert merged["gauges"]["depth"] == 5
    state = merged["histograms"]["lat_seconds"]
    assert state["count"] == 3
    assert sum(state["counts"]) == 3
    assert merged["skew"] == 0


def test_merge_snapshots_flags_bucket_skew_instead_of_lying():
    registry = MetricsRegistry()
    registry.histogram("lat_seconds", buckets=(1.0, 2.0)).observe(0.5)
    custom = registry.snapshot()
    default = _process_snapshot(1, [1e-4])
    merged = merge_snapshots([default, custom])
    # The first series wins; the mismatch is counted, not merged.
    assert merged["skew"] == 1
    assert merged["histograms"]["lat_seconds"]["count"] == 1


def test_render_prometheus_cumulative_buckets():
    registry = MetricsRegistry()
    registry.counter("ops_total", op="count").inc(7)
    registry.gauge("depth").set(3)
    histogram = registry.histogram("lat_seconds", buckets=(1.0, 2.0))
    histogram.observe(0.5)
    histogram.observe(1.5)
    histogram.observe(9.0)  # overflow
    text = registry.render_prometheus()
    assert "# TYPE ops_total counter" in text
    assert 'ops_total{op="count"} 7' in text
    assert "# TYPE depth gauge" in text
    assert "depth 3" in text
    # le buckets are cumulative and +Inf covers the overflow bucket.
    assert 'lat_seconds_bucket{le="1.0"} 1' in text
    assert 'lat_seconds_bucket{le="2.0"} 2' in text
    assert 'lat_seconds_bucket{le="+Inf"} 3' in text
    assert "lat_seconds_count 3" in text
    # Any snapshot renders, including a merged one.
    assert render_prometheus(merge_snapshots([registry.snapshot()])) == text


def test_null_registry_is_inert_but_surface_compatible():
    assert not NULL_REGISTRY.enabled
    counter = NULL_REGISTRY.counter("x_total", shard=0)
    gauge = NULL_REGISTRY.gauge("depth")
    histogram = NULL_REGISTRY.histogram("lat_seconds")
    counter.inc(10)
    gauge.set(5)
    histogram.observe(1.0)
    assert counter.value == 0 and gauge.value == 0 and histogram.count == 0
    assert histogram.quantile(0.5) is None
    assert NULL_REGISTRY.snapshot() == {
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    assert NULL_REGISTRY.render_prometheus() == ""


# ---------------------------------------------------------------------------
# engine + session instrumentation
# ---------------------------------------------------------------------------


def test_engine_update_counters_and_plan_gauges_in_snapshot():
    session = Session()
    session.view("q", "Q(x, y) :- R(x, y), S(y)")
    session.insert("R", (1, 2))
    session.insert("S", (2,))
    session.delete("R", (1, 2))
    snap = session.metrics.snapshot()
    counters = snap["counters"]
    assert (
        counters[
            'repro_engine_updates_total{engine="qhierarchical",'
            'op="insert",relation="R",view="q"}'
        ]
        == 1
    )
    assert (
        counters[
            'repro_engine_updates_total{engine="qhierarchical",'
            'op="delete",relation="R",view="q"}'
        ]
        == 1
    )
    # The planner's structural stats publish as gauges at instrument().
    assert any(
        key.startswith("repro_engine_plan_") for key in snap["gauges"]
    )


def test_apply_with_delta_path_counts_updates_too():
    session = Session()
    view = session.view("d", "V(x) :- D(x)")
    engine = view._engine
    before = session.metrics.snapshot()["counters"]
    engine.apply_with_delta(insert("D", (1,)))
    engine.apply_with_delta(delete("D", (1,)))
    after = session.metrics.snapshot()["counters"]
    key_insert = (
        'repro_engine_updates_total{engine="qhierarchical",'
        'op="insert",relation="D",view="d"}'
    )
    key_delete = (
        'repro_engine_updates_total{engine="qhierarchical",'
        'op="delete",relation="D",view="d"}'
    )
    assert after[key_insert] == before.get(key_insert, 0) + 1
    assert after[key_delete] == before.get(key_delete, 0) + 1


def test_observe_false_takes_the_null_fast_path():
    session = Session(observe=False)
    assert not session.observe
    assert session.metrics is NULL_REGISTRY
    assert not session.spans.enabled
    view = session.view("q", "Q(x) :- R(x)")
    session.insert("R", (1,))
    assert view._probe is None
    assert session.metrics.snapshot() == {
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    assert session.explain("q").observed is None
    assert session.drift_report() == []


# ---------------------------------------------------------------------------
# guarantee probes
# ---------------------------------------------------------------------------


def test_update_stride_env_knob(monkeypatch):
    monkeypatch.delenv("REPRO_PROBE_STRIDE", raising=False)
    assert _update_stride() == 64
    monkeypatch.setenv("REPRO_PROBE_STRIDE", "4")
    assert _update_stride() == 4
    monkeypatch.setenv("REPRO_PROBE_STRIDE", "0")
    assert _update_stride() == 1  # clamped: stride 1 = exhaustive timing
    monkeypatch.setenv("REPRO_PROBE_STRIDE", "not-a-number")
    assert _update_stride() == 64


def test_probe_samples_every_nth_update(monkeypatch):
    monkeypatch.setenv("REPRO_PROBE_STRIDE", "4")
    session = Session()
    view = session.view("p", "V(x) :- P(x)")
    assert view._probe.update_stride == 4
    for i in range(10):
        session.insert("P", (i,))
    # Countdown starts at 0, so updates 1, 5 and 9 are the timed ones.
    assert view._probe.update_hist.count == 3


def test_batches_feed_the_update_percentiles_and_the_result_size_gauge(monkeypatch):
    monkeypatch.setenv("REPRO_PROBE_STRIDE", "4")
    session = Session()
    view = session.view("q", "Q(x, y) :- R(x, y), S(y)")
    hard = session.view(
        "h", "H(x, y, z, w) :- R(x, x), R(x, y), R(y, y), R(z, w)",
        engine="phi2_appendix",
    )
    size = 'repro_view_result_size{engine="qhierarchical",view="q"}'

    def gauges():
        return session.metrics.snapshot()["gauges"]

    # One batch of 20 effective commands: one per-command-mean sample
    # per touched view, and the gauge equals count().
    session.apply_all(
        [insert("S", (y,)) for y in range(4)]
        + [insert("R", (x, x % 4)) for x in range(16)]
    )
    assert view._probe.update_hist.count == 1
    assert hard._probe.update_hist.count == 1
    assert gauges()[size] == view.count() == 16
    assert session.explain("q").observed["update"]["n"] == 1
    # A second batch that is its own undo still records its sample.
    session.apply_all([delete("S", (0,)), insert("S", (0,))])
    assert view._probe.update_hist.count == 2
    assert gauges()[size] == 16
    # Single writes: the 1-in-4 timed sample refreshes the same gauge
    # (the batches left the countdown alone, so write 1 is sampled).
    session.delete("R", (0, 0))
    assert view._probe.update_hist.count == 3
    assert gauges()[size] == view.count() == 15
    session.delete("R", (1, 1))  # unsampled: the gauge keeps its value
    assert view._probe.update_hist.count == 3
    assert gauges()[size] == 15 and view.count() == 14
    # count() is not O(1) for ϕ2 (it walks the edges): its gauge is
    # never written.
    phi2 = 'repro_view_result_size{engine="phi2_appendix",view="h"}'
    assert gauges()[phi2] == 0


def test_observe_false_skips_the_publish_phase():
    session = Session(observe=False)
    view = session.view("q", "Q(x, y) :- R(x, y), S(y)")
    assert session.apply_all([insert("S", (1,)), insert("R", (1, 1))]) == 2
    assert view._probe is None and view.count() == 1
    assert session.metrics.snapshot() == NULL_REGISTRY.snapshot()


def test_explain_shows_observed_percentiles(monkeypatch):
    monkeypatch.setenv("REPRO_PROBE_STRIDE", "1")
    session = Session()
    session.view("q", "Q(x, y) :- R(x, y), S(y)")
    for i in range(8):
        session.insert("R", (i, i % 3))
        session.insert("S", (i % 3,))
    plan = session.explain("q")
    observed = plan.observed
    assert observed is not None
    update = observed["update"]
    # 8 effective R inserts + 3 effective S inserts (i % 3 repeats are
    # no-ops and never reach the view): every effective update is timed
    # at stride 1.
    assert update["n"] == 11
    assert 0 < update["p50_us"] <= update["p99_us"]
    assert "observed" in plan.render()


def _page(probe, result_size, per_tuple, pages=3, tuples=8):
    for _ in range(pages):
        probe.record_page(per_tuple * tuples, tuples, result_size)


def test_drift_flags_delay_that_tracks_result_size():
    probe = ViewProbe("v", "qhierarchical", MetricsRegistry())
    assert probe.constant_delay
    # Constant per-tuple delay over a wide size spread: no drift.
    _page(probe, result_size=2, per_tuple=1e-6)
    _page(probe, result_size=5000, per_tuple=1.2e-6)
    assert probe.drift() is None
    # Delay that grew with the result contradicts the promised class.
    linear = ViewProbe("v", "qhierarchical", MetricsRegistry())
    _page(linear, result_size=2, per_tuple=1e-6)
    _page(linear, result_size=5000, per_tuple=1e-3)
    verdict = linear.drift()
    assert verdict is not None
    assert verdict["view"] == "v"
    assert verdict["promised"] == "constant per-tuple delay"
    assert verdict["delay_ratio"] >= 8.0
    assert verdict["size_spread"] >= 16
    # An engine that never promised constant delay is not judged.
    fallback = ViewProbe("v", "recompute", MetricsRegistry())
    _page(fallback, result_size=2, per_tuple=1e-6)
    _page(fallback, result_size=5000, per_tuple=1e-3)
    assert fallback.drift() is None


def test_drift_needs_spread_and_samples_before_crying_wolf():
    probe = ViewProbe("v", "qhierarchical", MetricsRegistry())
    # Big delay ratio but only a 4x size spread: below the guard rail.
    _page(probe, result_size=2, per_tuple=1e-6)
    _page(probe, result_size=4, per_tuple=1e-3)
    assert probe.drift() is None
    # Wide spread but too few page samples at one end.
    sparse = ViewProbe("v", "qhierarchical", MetricsRegistry())
    _page(sparse, result_size=2, per_tuple=1e-6)
    _page(sparse, result_size=5000, per_tuple=1e-3, pages=1)
    assert sparse.drift() is None


# ---------------------------------------------------------------------------
# serving-layer hookup
# ---------------------------------------------------------------------------


def test_server_accessors_are_thin_views_over_the_registry():
    server = Server(Session())
    try:
        server.view("feed", "V(x) :- F(x)")
        server.insert("F", (1,))
        server.insert("F", (2,))
        server.count("feed")
        assert server.writes == 2
        assert server.reads == 1
        counters = server.session.metrics.snapshot()["counters"]
        assert counters["repro_server_reads_total"] == 1
        assert (
            sum(
                value
                for key, value in counters.items()
                if key.startswith("repro_server_writes_total")
            )
            == 2
        )
        stats = server.stats()
        assert stats["writes"] == 2 and stats["reads"] == 1
    finally:
        server.close()


def test_server_accessors_survive_observe_false():
    server = Server(Session(observe=False))
    try:
        server.view("feed", "V(x) :- F(x)")
        server.insert("F", (1,))
        server.count("feed")
        # Standalone counters keep stats() truthful with no registry.
        assert server.writes == 1
        assert server.reads == 1
        assert server.session.metrics.snapshot()["counters"] == {}
    finally:
        server.close()


def test_cursor_metrics_record_pages_and_opens():
    server = Server(Session())
    try:
        server.view("feed", "V(x) :- F(x)")
        for i in range(12):
            server.insert("F", (i,))
        cursor = server.open_cursor("feed")
        while server.fetch(cursor, 4):
            pass
        snap = server.session.metrics.snapshot()
        assert snap["counters"]['repro_cursor_opened_total{view="feed"}'] == 1
        pages = snap["histograms"]['repro_cursor_page_seconds{view="feed"}']
        assert pages["count"] >= 3
    finally:
        server.close()


def test_dispatch_pool_metrics_flow_through_subscription():
    server = Server(Session(), dispatch_workers=1)
    try:
        server.view("feed", "V(x) :- F(x)")
        handle = server.subscribe("feed")
        server.insert("F", (1,))
        server.drain()
        snap = server.session.metrics.snapshot()
        assert snap["counters"]["repro_dispatch_submitted_total"] >= 1
        assert snap["counters"]["repro_dispatch_delivered_total"] >= 1
        assert "repro_dispatch_lag_seconds" in snap["histograms"]
        assert server.poll(handle)  # the delta actually arrived
    finally:
        server.close()


# ---------------------------------------------------------------------------
# CLI plumbing + CI guardrail wiring
# ---------------------------------------------------------------------------


def test_parse_address_forms():
    from repro.__main__ import _parse_address

    assert _parse_address("unix:/tmp/w0.sock") == ("unix", "/tmp/w0.sock")
    assert _parse_address("tcp:10.0.0.5:4001") == ("tcp", "10.0.0.5", 4001)
    assert _parse_address("localhost:4001") == ("tcp", "localhost", 4001)
    assert _parse_address(":4001") == ("tcp", "127.0.0.1", 4001)
    with pytest.raises(ValueError):
        _parse_address("no-port-here")
    with pytest.raises(ValueError):
        _parse_address("tcp:host:notaport")


def test_metrics_cli_requires_addresses_without_demo(capsys):
    from repro.__main__ import main

    assert main(["metrics"]) == 2
    assert "address" in capsys.readouterr().err.lower()


def test_overhead_guardrail_is_tracked_by_the_gate():
    import pathlib
    import sys

    benchmarks = str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks")
    if benchmarks not in sys.path:
        sys.path.insert(0, benchmarks)
    import check_regression

    tracked = {
        (metric, direction): guard
        for metric, direction, guard in check_regression.TRACKED["serving"]
    }
    assert tracked[("observability_overhead.overhead_ratio", "lower")] == 1.05
