"""Supervision subsystem: journal folding, recovery, placement, serve().

The chaos scenarios (kill -9 mid-stream, repeated kills, migration
under writers) live in ``test_cluster.py``; this file unit-tests the
journal's net-effect semantics and the supervisor's own machinery —
seeding, sweep bookkeeping, rebalancing, and the ``Session.serve``
wiring.
"""

import time

import pytest

from repro import Session
from repro.errors import ClusterError
from repro.serve.cluster import ShardCluster
from repro.serve.journal import CommandJournal
from repro.serve.supervisor import Supervisor
from repro.storage.updates import delete, insert

pytestmark = pytest.mark.cluster


# ---------------------------------------------------------------------------
# CommandJournal: net-effect folding
# ---------------------------------------------------------------------------


def test_journal_folds_to_net_effect():
    journal = CommandJournal()
    assert journal.record(insert("R", (1,))) is True
    assert journal.record(insert("R", (1,))) is False  # already present
    assert journal.record(insert("R", (2,))) is True
    assert journal.record(delete("R", (1,))) is True
    assert journal.record(delete("R", (1,))) is False  # already gone
    assert journal.rows("R") == [(2,)]
    assert journal.commands_seen == 5
    assert journal.relations() == ("R",)
    assert journal.rows("unknown") == []


def test_journal_record_many_reports_per_command():
    journal = CommandJournal()
    effective = journal.record_many(
        [insert("R", (1,)), insert("R", (1,)), delete("R", (9,))]
    )
    assert effective == [True, False, False]


def test_journal_epoch_and_forget():
    journal = CommandJournal()
    assert journal.bump_epoch() == 1
    assert journal.bump_epoch() == 2
    journal.record(insert("R", (1,)))
    journal.forget_relation("R")
    assert journal.rows("R") == []
    assert "epoch=2" in repr(journal)


# ---------------------------------------------------------------------------
# Supervisor machinery (thread-free: sweeps driven manually)
# ---------------------------------------------------------------------------


@pytest.fixture
def rig():
    with ShardCluster(workers=2) as cluster:
        journal = CommandJournal()
        with cluster.client(journal=journal) as facade:
            yield cluster, facade, journal


def _kill_and_flag(cluster, facade, victim):
    cluster.kill_worker(victim)
    deadline = time.monotonic() + 5.0
    while cluster.workers[victim].alive() and time.monotonic() < deadline:
        time.sleep(0.02)
    facade._mark_dead(victim, ClusterError("chaos"))


def test_sweep_detects_exited_process_without_a_request(rig):
    cluster, facade, journal = rig
    facade.view("sw", "V(x) :- SW(x)")
    facade.insert("SW", (1,))
    victim = facade._worker_of_view("sw")
    supervisor = Supervisor(cluster, facade, journal=journal)
    facade.attach_supervisor(supervisor)
    cluster.kill_worker(victim)
    deadline = time.monotonic() + 5.0
    while cluster.workers[victim].alive() and time.monotonic() < deadline:
        time.sleep(0.02)
    # No client request ever touched the dead socket: the sweep's
    # process-liveness check alone must find and recover it.
    assert supervisor.sweep() == [victim]
    assert facade.dead_workers == ()
    assert facade.result_set("sw") == {(1,)}
    recovery = supervisor.recoveries[0]
    assert recovery["worker"] == victim
    assert recovery["views"] == ("sw",)
    assert recovery["epoch"] == 1
    assert recovery["seconds"] > 0
    stats = supervisor.stats()
    assert stats["attempts"] == {victim: 1}
    assert stats["journal_epoch"] == 1


def test_recovery_replays_views_and_rows(rig):
    cluster, facade, journal = rig
    facade.view("ra", "V(x, y) :- RA(x, y)")
    facade.view("rb", "W(x) :- RB(x)")
    facade.batch([insert("RA", (i, 0)) for i in range(8)])
    facade.insert("RB", (5,))
    facade.delete("RA", (3, 0))
    supervisor = Supervisor(cluster, facade, journal=journal)
    facade.attach_supervisor(supervisor)
    before = {name: facade.result_digest(name) for name in ("ra", "rb")}
    for victim in (0, 1):
        _kill_and_flag(cluster, facade, victim)
        assert supervisor.sweep() == [victim]
    for name, digest in before.items():
        assert facade.result_digest(name) == digest


def test_recovery_reregisters_in_registration_order(rig):
    cluster, facade, journal = rig
    # Names chosen so registration order is not name order.
    for name in ("b", "c", "a"):
        facade.view(name, f"V(x) :- R_{name}(x)")
        facade.insert(f"R_{name}", (1,))
    assert [facade._worker_of_view(n) for n in ("b", "c", "a")] == [0, 1, 0]
    supervisor = Supervisor(cluster, facade, journal=journal)
    facade.attach_supervisor(supervisor)
    _kill_and_flag(cluster, facade, 0)
    assert supervisor.sweep() == [0]
    assert supervisor.recoveries[-1]["views"] == ("b", "a")
    # The worker's own session lists its views in the order it got them.
    assert list(facade.stats()["per_worker"][0]["views"]) == ["b", "a"]
    # A migrated view keeps its place in the registration order.
    facade.migrate_view("b", target=1)
    _kill_and_flag(cluster, facade, 1)
    assert supervisor.sweep() == [1]
    assert supervisor.recoveries[-1]["views"] == ("b", "c")
    for name in ("a", "b", "c"):
        assert facade.result_set(name) == {(1,)}


def test_supervisor_seeds_journal_from_preexisting_views():
    with ShardCluster(workers=2) as cluster:
        with cluster.client() as facade:  # no journal: nothing recorded
            facade.view("pre", "V(x) :- PRE(x)")
            supervisor = Supervisor(cluster, facade)
            # The view needs no seeding — the client's own table is the
            # registration record — and the journal is attached, so
            # rows record from now on.
            assert facade._journal is supervisor.journal
            facade.attach_supervisor(supervisor)
            facade.insert("PRE", (1,))
            victim = facade._worker_of_view("pre")
            _kill_and_flag(cluster, facade, victim)
            assert supervisor.sweep() == [victim]
            assert facade.result_set("pre") == {(1,)}


def test_supervisor_rejects_a_second_journal(rig):
    cluster, facade, _journal = rig
    with pytest.raises(ClusterError, match="different journal"):
        Supervisor(cluster, facade, journal=CommandJournal())


def test_start_stop_lifecycle(rig):
    cluster, facade, journal = rig
    supervisor = Supervisor(cluster, facade, journal=journal, heartbeat=0.05)
    assert not supervisor.running
    with supervisor:
        assert supervisor.running
        assert facade.supervised
        assert supervisor.start() is supervisor  # idempotent
    assert not supervisor.running
    supervisor.stop()  # idempotent


# ---------------------------------------------------------------------------
# placement: least-loaded registration and rebalancing
# ---------------------------------------------------------------------------


def test_views_spread_to_least_loaded_worker():
    with ShardCluster(workers=3) as cluster:
        with cluster.client() as facade:
            for index in range(6):
                facade.view(f"pl{index}", f"V(x) :- PL{index}(x)")
            owners = [facade._worker_of_view(f"pl{index}") for index in range(6)]
            # Fresh cluster: least-loaded with lowest-index tie-break
            # walks the workers round-robin.
            assert owners == [0, 1, 2, 0, 1, 2]


def test_rebalance_levels_skewed_placement(rig):
    cluster, facade, journal = rig
    for index in range(4):
        facade.view(f"rb{index}", f"V(x) :- RB{index}(x)")
        facade.insert(f"RB{index}", (index,))
    # Skew everything onto worker 0.
    for index in range(4):
        if facade._worker_of_view(f"rb{index}") != 0:
            facade.migrate_view(f"rb{index}", target=0)
    supervisor = Supervisor(cluster, facade, journal=journal)
    facade.attach_supervisor(supervisor)
    moves = supervisor.rebalance()
    counts = {0: 0, 1: 0}
    for index in range(4):
        counts[facade._worker_of_view(f"rb{index}")] += 1
    assert counts == {0: 2, 1: 2}
    assert len(moves) == 2  # 4–0 → 3–1 → 2–2
    assert all(m["source"] == 0 and m["target"] == 1 for m in moves)
    for index in range(4):
        assert facade.result_set(f"rb{index}") == {(index,)}
    assert supervisor.rebalance() == []  # already level


# ---------------------------------------------------------------------------
# Session.serve(supervise=True)
# ---------------------------------------------------------------------------


def test_session_serve_supervised_end_to_end():
    session = Session()
    session.view("feed", "V(x, y) :- E(x, y)")
    session.insert("E", (1, 2))
    facade = session.serve(backend="processes", shards=2, supervise=True)
    try:
        assert facade.supervised
        assert facade._journal is not None
        # The adopted state was journaled, so it survives a kill.
        assert facade._journal.rows("E") == [(1, 2)]
        victim = facade._worker_of_view("feed")
        facade._cluster.kill_worker(victim)
        deadline = time.monotonic() + 5.0
        while (
            facade._cluster.workers[victim].alive()
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        # The next write stalls through the recovery instead of dying.
        assert facade.insert("E", (3, 4))
        assert facade.result_set("feed") == {(1, 2), (3, 4)}
        assert facade._cluster.restarts[victim] == 1
        supervisor = facade._supervisor
        assert supervisor.running
    finally:
        facade.close()
    assert not supervisor.running  # close() stopped the supervisor


def test_session_serve_unsupervised_has_no_journal():
    session = Session()
    session.view("plain", "V(x) :- P(x)")
    facade = session.serve(backend="processes", shards=2)
    try:
        assert not facade.supervised
        assert facade._journal is None
    finally:
        facade.close()


# ---------------------------------------------------------------------------
# configurable supervision knobs (args, env vars, cluster_stats surface)
# ---------------------------------------------------------------------------


def test_supervisor_knobs_resolve_from_env(rig, monkeypatch):
    cluster, facade, journal = rig
    monkeypatch.setenv("REPRO_SUP_HEARTBEAT", "0.25")
    monkeypatch.setenv("REPRO_SUP_PING_TIMEOUT", "2.5")
    monkeypatch.setenv("REPRO_SUP_RESTART_BACKOFF", "0.125")
    monkeypatch.setenv("REPRO_SUP_MAX_RESTARTS", "9")
    supervisor = Supervisor(cluster, facade, journal=journal)
    assert supervisor.heartbeat == 0.25
    assert supervisor.heartbeat_timeout == 2.5
    assert supervisor.restart_backoff == 0.125
    assert supervisor.max_restarts == 9
    assert supervisor.config() == {
        "running": False,
        "heartbeat": 0.25,
        "heartbeat_timeout": 2.5,
        "restart_backoff": 0.125,
        "max_restarts": 9,
        "recoveries": 0,
    }
    stats = supervisor.stats()
    assert stats["heartbeat_timeout"] == 2.5
    assert stats["restart_backoff"] == 0.125
    # explicit arguments beat the environment
    override = Supervisor(cluster, facade, heartbeat=0.5, max_restarts=2)
    assert override.heartbeat == 0.5 and override.max_restarts == 2


def test_supervisor_knobs_reject_bad_env(rig, monkeypatch):
    cluster, facade, journal = rig
    monkeypatch.setenv("REPRO_SUP_HEARTBEAT", "not-a-number")
    with pytest.raises(ClusterError, match="REPRO_SUP_HEARTBEAT"):
        Supervisor(cluster, facade, journal=journal)


def test_client_deadline_knobs_resolve_from_env(rig, monkeypatch):
    cluster, _facade, _journal = rig
    monkeypatch.setenv("REPRO_REQUEST_TIMEOUT", "12.5")
    monkeypatch.setenv("REPRO_RETRY_BUDGET", "7")
    with cluster.client() as tuned:
        assert tuned._request_timeout == 12.5
        assert tuned._retry_budget == 7
    # a non-positive timeout disables the deadline entirely
    monkeypatch.setenv("REPRO_REQUEST_TIMEOUT", "0")
    with cluster.client() as unbounded:
        assert unbounded._request_timeout is None


def test_session_serve_surfaces_supervision_knobs():
    session = Session()
    session.view("kv", "V(x) :- KV(x)")
    facade = session.serve(
        backend="processes",
        shards=2,
        supervise=True,
        request_timeout=5.0,
        retry_budget=1,
        heartbeat=0.2,
        heartbeat_timeout=2.0,
        restart_backoff=0.01,
        max_restarts=3,
    )
    try:
        assert facade._request_timeout == 5.0
        assert facade._retry_budget == 1
        supervisor = facade._supervisor
        assert supervisor.heartbeat == 0.2
        assert supervisor.heartbeat_timeout == 2.0
        assert supervisor.restart_backoff == 0.01
        assert supervisor.max_restarts == 3
        surfaced = facade.cluster_stats()["supervisor"]
        assert surfaced == supervisor.config()
        assert surfaced["running"] is True
    finally:
        facade.close()
