"""Cross-process tracing: one logical RPC, one parent/child span pair.

The client stamps every RPC attempt with a ``_trace`` context that
rides inside the request frame; the worker opens a child span under
it.  These tests pin the properties that make the span log usable for
attribution: the pairing survives multiplexed out-of-order replies,
blind read retries share a trace while each attempt keeps its own
span, a kill -9 recovery leaves a ``recovery`` span carrying the
journal epoch, and the crash-consistent stats/metrics folds never let
cumulative traffic shrink because a worker died.
"""

import threading
import time

import pytest

from repro.serve.cluster import ShardCluster
from repro.serve.faults import Fault, FaultPlan
from repro.serve.journal import CommandJournal
from repro.serve.supervisor import Supervisor
from repro.storage.updates import insert

pytestmark = pytest.mark.cluster


@pytest.fixture(scope="module")
def cluster():
    with ShardCluster(workers=2) as deployment:
        yield deployment


@pytest.fixture(scope="module")
def client(cluster):
    with cluster.client() as facade:
        yield facade


def _await_death(cluster, index, timeout=5.0):
    deadline = time.monotonic() + timeout
    while cluster.workers[index].alive() and time.monotonic() < deadline:
        time.sleep(0.02)


def _worker_spans(metrics_dump):
    spans = []
    for entry in metrics_dump["per_worker"].values():
        if entry is not None:
            spans.extend(entry["spans"])
    return [span for span in spans if span["name"].startswith("worker:")]


# ---------------------------------------------------------------------------
# the differential: every RPC is a cross-process parent/child pair
# ---------------------------------------------------------------------------


def test_every_rpc_op_shows_up_as_a_cross_process_pair(client):
    client.view("tr", "V(x, y) :- TR(x, y)")
    client.insert("TR", (1, 2))
    client.delete("TR", (9, 9))
    client.count("tr")
    cursor = client.open_cursor("tr")
    client.fetch(cursor, 8)
    client.close_cursor(cursor)
    # A multi-worker batch runs 2PC: prepare/ping/commit legs.
    client.view("ts", "W(x) :- TS(x)")
    client.batch(
        [insert("TR", (i, i)) for i in range(3)]
        + [insert("TS", (i,)) for i in range(3)]
    )

    dump = client.metrics()
    client_spans = {
        span["span_id"]: span
        for span in dump["spans"]
        if span["name"].startswith("rpc:")
    }
    worker_spans = _worker_spans(dump)
    assert worker_spans

    driven = {
        "view",
        "insert",
        "delete",
        "count",
        "open_cursor",
        "fetch",
        "close_cursor",
    }
    covered = set()
    for span in worker_spans:
        # Only connection hellos arrive without a client span context;
        # every real op must link back across the process boundary.
        assert span["parent_id"] is not None, span
        parent = client_spans[span["parent_id"]]
        assert parent["trace_id"] == span["trace_id"]
        assert parent["name"] == span["name"].replace("worker:", "rpc:")
        assert span["attrs"]["op"] == parent["attrs"]["op"]
        covered.add(span["attrs"]["op"])
    assert driven <= covered

    # The 2PC legs each got their own span under one shared trace.
    legs = [
        span
        for span in client_spans.values()
        if span["attrs"]["op"] in ("batch_prepare", "batch_commit")
    ]
    assert len(legs) >= 4  # two workers x (prepare + commit)
    assert len({span["trace_id"] for span in legs}) == 1
    assert len({span["span_id"] for span in legs}) == len(legs)


# ---------------------------------------------------------------------------
# mux out-of-order replies
# ---------------------------------------------------------------------------


def test_spans_survive_mux_out_of_order_replies():
    plan = FaultPlan(
        faults=(
            # Frame 4 on worker 0's request channel = the reply to the
            # first count after hello(1), view(2), insert(3) —
            # held 0.6s, so later counts on the same mux lane overtake.
            Fault(
                action="delay",
                frame=4,
                worker=0,
                channel="request",
                delay=0.6,
            ),
        )
    )
    with ShardCluster(workers=2) as deployment:
        with deployment.client(faults=plan) as facade:
            facade.view("oo", "V(x) :- OO(x)")
            facade.insert("OO", (1,))
            slow_result = {}

            def slow_read():
                slow_result["count"] = facade.count("oo")

            thread = threading.Thread(target=slow_read)
            thread.start()
            time.sleep(0.1)  # the delayed request is in flight
            fast = [facade.count("oo") for _ in range(3)]
            thread.join()
            assert slow_result["count"] == 1 and fast == [1, 1, 1]

            counts = [
                span
                for span in facade.spans.snapshot()
                if span["name"] == "rpc:count"
            ]
            assert len(counts) == 4
            for span in counts:
                assert span["error"] is None
                assert span["duration_ms"] is not None
            # Four distinct traces: the replies re-matched by mux id,
            # not by arrival order.
            assert len({span["trace_id"] for span in counts}) == 4
            delayed = max(counts, key=lambda span: span["duration_ms"])
            assert delayed["duration_ms"] >= 500.0
            # The held span crossed REPRO_SLOW_OP_MS (default 100ms)
            # and survives in the dedicated slow ring.
            assert any(
                span["name"] == "rpc:count"
                and span["duration_ms"] >= 500.0
                for span in facade.spans.slow_snapshot()
            )

            # Worker-side children still pair one-to-one with exactly
            # the attempt that carried them.
            dump = facade.metrics()
            children = {
                span["parent_id"]
                for span in _worker_spans(dump)
                if span["attrs"]["op"] == "count"
            }
            for span in counts:
                assert span["span_id"] in children


# ---------------------------------------------------------------------------
# blind read retries
# ---------------------------------------------------------------------------


def test_blind_read_retry_shares_trace_with_distinct_attempt_spans():
    plan = FaultPlan(
        faults=(
            # Drop the reply to the first count: the mux deadline fires
            # and the retry-safe read is blindly re-sent.
            Fault(action="drop", frame=4, worker=0, channel="request"),
        )
    )
    with ShardCluster(workers=2) as deployment:
        with deployment.client(
            request_timeout=0.5, retry_budget=2, faults=plan
        ) as facade:
            facade.view("rt", "V(x) :- RT(x)")
            facade.insert("RT", (1,))
            assert facade.count("rt") == 1
            attempts = sorted(
                (
                    span
                    for span in facade.spans.snapshot()
                    if span["name"] == "rpc:count"
                ),
                key=lambda span: span["attrs"]["attempt"],
            )
            assert [span["attrs"]["attempt"] for span in attempts] == [1, 2]
            first, second = attempts
            # One logical read, one trace — but each attempt is its own
            # span, so the timed-out leg stays attributable.
            assert first["trace_id"] == second["trace_id"]
            assert first["span_id"] != second["span_id"]
            assert "DeadlineExceededError" in first["error"]
            assert second["error"] is None


# ---------------------------------------------------------------------------
# kill -9: the recovery span and the crash-consistent folds
# ---------------------------------------------------------------------------


def test_kill9_recovery_span_carries_the_journal_epoch():
    with ShardCluster(workers=2) as deployment:
        journal = CommandJournal()
        with deployment.client(journal=journal) as facade:
            facade.view("rc", "V(x) :- RC(x)")
            facade.insert("RC", (1,))
            victim = facade._worker_of_view("rc")
            supervisor = Supervisor(deployment, facade, journal=journal)
            facade.attach_supervisor(supervisor)
            deployment.kill_worker(victim)
            _await_death(deployment, victim)
            assert supervisor.sweep() == [victim]
            assert facade.result_set("rc") == {(1,)}

            recoveries = [
                span
                for span in facade.spans.snapshot()
                if span["name"] == "recovery"
            ]
            assert len(recoveries) == 1
            span = recoveries[0]
            assert span["error"] is None
            assert span["duration_ms"] > 0
            assert span["attrs"]["worker"] == victim
            assert (
                span["attrs"]["journal_epoch"]
                == supervisor.recoveries[0]["epoch"]
            )
            # The respawned worker answers RPCs with child spans again.
            dump = facade.metrics()
            entry = dump["per_worker"][victim]
            assert entry is not None
            assert any(
                rpc_span["parent_id"] is not None
                for rpc_span in entry["spans"]
            )


def test_stats_fold_never_shrinks_after_kill9():
    with ShardCluster(workers=2) as deployment:
        with deployment.client() as facade:
            facade.view("fa", "V(x) :- FA(x)")
            facade.view("fb", "W(x) :- FB(x)")
            for i in range(6):
                facade.insert("FA", (i,))
                facade.insert("FB", (i,))
            facade.count("fa")
            facade.count("fb")
            before = facade.stats()
            assert before["writes"] >= 12

            victim = facade._worker_of_view("fa")
            deployment.kill_worker(victim)
            _await_death(deployment, victim)
            after = facade.stats()
            assert victim in after["dead_workers"]
            assert after["per_worker"][victim] is None
            # The dead worker's last-known counters fold in: cumulative
            # cluster traffic is monotone across the crash.
            assert after["writes"] >= before["writes"]
            assert after["reads"] >= before["reads"]


def test_metrics_merge_is_monotone_across_kill9():
    with ShardCluster(workers=2) as deployment:
        with deployment.client() as facade:
            facade.view("ma", "V(x) :- MA(x)")
            facade.view("mb", "W(x) :- MB(x)")
            for i in range(5):
                facade.insert("MA", (i,))
                facade.insert("MB", (i,))

            def engine_updates(dump):
                return sum(
                    value
                    for key, value in dump["merged"]["counters"].items()
                    if key.startswith("repro_engine_updates_total")
                )

            first = facade.metrics()
            assert engine_updates(first) == 10

            victim = facade._worker_of_view("ma")
            deployment.kill_worker(victim)
            _await_death(deployment, victim)
            second = facade.metrics()
            assert second["per_worker"][victim] is None
            # The dead incarnation contributes its last scraped
            # snapshot, so cumulative series never move backwards.
            assert second["retired_snapshots"] >= 1
            assert engine_updates(second) >= engine_updates(first)
