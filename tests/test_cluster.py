"""Multiprocess shard cluster: differential, routing, 2PC and crash tests.

The oracle everywhere is the in-process :class:`repro.serve.Server` fed
the identical command stream: the cluster must agree on results, deltas
(byte-identical replay) and error behaviour, while its shards live in
separate worker processes behind the socket transport.
"""

import inspect
import os
import random
import threading
import time

import pytest

from repro import Server, Session
from repro.errors import (
    ClusterError,
    CursorInvalidatedError,
    EngineStateError,
    SchemaError,
    UpdateError,
    WorkerCrashedError,
)
from repro.serve import cluster as cluster_module
from repro.serve.cluster import ClusterClient, ShardCluster, query_to_text
from repro.serve.faults import Fault, FaultPlan
from repro.serve.supervisor import Supervisor
from repro.storage.updates import delete, insert

pytestmark = pytest.mark.cluster


@pytest.fixture(scope="module")
def cluster():
    with ShardCluster(workers=2) as deployment:
        yield deployment


@pytest.fixture(scope="module")
def client(cluster):
    with cluster.client() as facade:
        yield facade


def unique(prefix, _counter=[0]):
    _counter[0] += 1
    return f"{prefix}{_counter[0]}"


def effective_stream(relation, count, domain, seed):
    rng = random.Random(seed)
    live, commands = [], []
    for step in range(count):
        if live and rng.random() < 0.35:
            commands.append(delete(relation, live.pop(rng.randrange(len(live)))))
        else:
            row = (step, rng.randrange(domain))
            live.append(row)
            commands.append(insert(relation, row))
    return commands


# ---------------------------------------------------------------------------
# text round-trip (the registration wire format)
# ---------------------------------------------------------------------------


def test_query_to_text_roundtrips_cq_and_ucq():
    from repro.api.planner import parse_view

    cq = parse_view("Q(x, y) :- E(x, y), T(y)")
    assert query_to_text(cq) == str(cq)
    ucq = parse_view("Q(x) :- R(x, y); Q(x) :- S(x)")
    text = query_to_text(ucq)
    assert ";" in text and "∪" not in text
    reparsed = parse_view(text)
    assert query_to_text(reparsed) == text
    assert query_to_text("Q(x) :- E(x, x)") == "Q(x) :- E(x, x)"


# ---------------------------------------------------------------------------
# differential: cluster vs in-process server on one command stream
# ---------------------------------------------------------------------------


def test_cluster_matches_inprocess_server(client):
    va, vb = unique("diff_a"), unique("diff_b")
    ra, rb, shared = unique("RA"), unique("RB"), unique("RS")
    qa = f"V(x, y) :- {ra}(x, y), {shared}(y)"
    qb = f"V(x, y) :- {rb}(x, y), {shared}(y)"

    oracle = Server(Session())
    for name, query in ((va, qa), (vb, qb)):
        oracle.view(name, query)
        client.view(name, query)
    oracle_subs = {name: oracle.subscribe(name) for name in (va, vb)}
    cluster_subs = {name: client.subscribe(name) for name in (va, vb)}

    rng = random.Random(11)
    commands = []
    for value in range(8):
        commands.append(insert(shared, (value,)))
    commands += effective_stream(ra, 120, 8, 7)
    commands += effective_stream(rb, 120, 8, 9)
    rng.shuffle(commands)

    for command in commands:
        assert client.apply(command) == oracle.apply(command)

    for name in (va, vb):
        assert client.count(name) == oracle.count(name)
        assert client.answer(name) == oracle.answer(name)
        expected = oracle.session[name].result_set()
        assert client.result_set(name) == expected
        assert (
            client.result_digest(name)
            == oracle.session[name].engine.result_digest()
        )
        ours = client.poll(cluster_subs[name])
        theirs = oracle.poll(oracle_subs[name])
        assert [
            (d.view, d.epoch, d.command, d.added, d.removed) for d in ours
        ] == [
            (d.view, d.epoch, d.command, d.added, d.removed) for d in theirs
        ]
        # replaying the cluster's delta log reproduces the result
        mirror = set()
        for d in ours:
            mirror |= set(d.added)
            mirror -= set(d.removed)
        assert mirror == expected
    assert client.epochs()[va] == oracle.epochs()[va]


def test_contains_and_explain_round_trip(client):
    name, rel = unique("probe"), unique("RP")
    client.view(name, f"V(x) :- {rel}(x)")
    client.insert(rel, (3,))
    assert client.contains(name, (3,))
    assert not client.contains(name, (4,))
    assert "qhierarchical" in client.explain(name)


def test_workers_report_collector_pauses_through_the_metrics_merge(client):
    name, rel = unique("gc"), unique("RG")
    client.view(name, f"V(x, y) :- {rel}(x, y)")
    client.apply_stream(insert(rel, (i, i % 7)) for i in range(5000))
    report = client.metrics()
    keys = [f'repro_gc_pause_seconds{{generation="{g}"}}' for g in range(3)]
    workers = [entry for entry in report["per_worker"].values() if entry]
    assert len(workers) == 2
    for key in keys:
        per_worker = [
            entry["metrics"]["histograms"][key]["count"] for entry in workers
        ]
        assert report["merged"]["histograms"][key]["count"] == sum(per_worker)
    assert report["merged"]["histograms"][keys[0]]["count"] > 0


# ---------------------------------------------------------------------------
# routing: fan-out, shared relations, backfill, schema mirroring
# ---------------------------------------------------------------------------


def test_shared_relation_fans_out_and_backfills(client):
    shared = unique("RF")
    first = unique("fan_a")
    client.view(first, f"V(x) :- {shared}(x)")
    client.insert(shared, (1,))
    client.insert(shared, (2,))
    # The second view lands on the other worker and must be preloaded
    # with the shared relation's existing rows (registration backfill).
    second = unique("fan_b")
    info = client.view(second, f"W(x) :- {shared}(x)")
    assert client.result_set(second) == {(1,), (2,)}
    # Subsequent writes fan out to both workers' views.
    client.insert(shared, (3,))
    assert client.result_set(first) == client.result_set(second) == {
        (1,),
        (2,),
        (3,),
    }
    assert info.relations == (shared,)


def test_unknown_relation_mirrors_session_error(client):
    with pytest.raises(SchemaError, match="no registered view uses relation"):
        client.insert(unique("NOPE"), (1,))


def test_duplicate_view_name_rejected(client):
    name, rel = unique("dup"), unique("RD")
    client.view(name, f"V(x) :- {rel}(x)")
    with pytest.raises(EngineStateError, match="already exists"):
        client.view(name, f"V(x) :- {rel}(x)")


def test_cross_worker_arity_conflict_rejected(client):
    rel = unique("RC")
    client.view(unique("ar_a"), f"V(x) :- {rel}(x)")
    bad = unique("ar_b")
    with pytest.raises(SchemaError, match="already serves"):
        client.view(bad, f"W(x, y) :- {rel}(x, y)")
    # the doomed registration was rolled back remotely
    with pytest.raises(EngineStateError, match="no view named"):
        client.count(bad)


def test_unknown_view_and_handles(client):
    with pytest.raises(EngineStateError, match="no view named"):
        client.count(unique("ghost"))
    with pytest.raises(EngineStateError, match="unknown cursor handle"):
        client.fetch(999_999, 10)
    with pytest.raises(EngineStateError, match="unknown subscription handle"):
        client.poll(999_999)


def test_drop_view_releases_routing(client):
    name, rel = unique("dropme"), unique("RX")
    client.view(name, f"V(x) :- {rel}(x)")
    client.insert(rel, (1,))
    client.drop_view(name)
    with pytest.raises(EngineStateError, match="no view named"):
        client.count(name)
    with pytest.raises(SchemaError):
        client.insert(rel, (2,))


# ---------------------------------------------------------------------------
# cursors over the wire
# ---------------------------------------------------------------------------


def test_cursor_pages_concatenate_to_result(client):
    name, rel = unique("page"), unique("RG")
    client.view(name, f"V(x, y) :- {rel}(x, y)")
    rows = {(i, i % 5) for i in range(57)}
    client.batch([insert(rel, row) for row in rows])
    cursor = client.open_cursor(name)
    seen = []
    while True:
        page = client.fetch(cursor, 10)
        if not page:
            break
        seen.extend(page)
    assert len(seen) == len(rows)
    assert set(seen) == rows
    client.close_cursor(cursor)
    with pytest.raises(EngineStateError, match="unknown cursor handle"):
        client.fetch(cursor, 1)


def test_cursor_binding_and_snapshot(client):
    name, rel = unique("bind"), unique("RB2")
    client.view(name, f"V(x, y) :- {rel}(x, y)")
    client.batch([insert(rel, (i % 3, i)) for i in range(30)])
    bound = client.open_cursor(name, binding={"x": 1})
    rows = client.fetch(bound, 100)
    assert rows and all(row[0] == 1 for row in rows)
    snap = client.open_cursor(name, snapshot=True)
    before = client.count(name)
    client.insert(rel, (1, 999))
    pinned = []
    while True:
        page = client.fetch(snap, 16)
        if not page:
            break
        pinned.extend(page)
    assert len(pinned) == before  # the snapshot pinned pre-write results


def test_cursor_invalidation_report_crosses_the_wire(client):
    name, rel = unique("inv"), unique("RI")
    client.view(name, f"V(x, y) :- {rel}(x, y)")
    client.batch([insert(rel, (i, 0)) for i in range(20)])
    cursor = client.open_cursor(name)
    emitted = client.fetch(cursor, 3)
    client.delete(rel, emitted[0])
    with pytest.raises(CursorInvalidatedError) as excinfo:
        client.fetch(cursor, 3)
    report = excinfo.value.invalidation
    assert report is not None
    assert report.view == name
    assert report.fetched == 3
    assert "delete" in str(report.command)
    assert report.invalidated_epoch > report.opened_epoch


def test_cursor_revalidates_across_beyond_frontier_writes(client):
    name, rel = unique("reval"), unique("RV")
    client.view(name, f"V(x, y) :- {rel}(x, y)")
    client.batch([insert(rel, (i, 0)) for i in range(10)])
    cursor = client.open_cursor(name)
    first = client.fetch(cursor, 2)
    client.insert(rel, (100, 1))  # beyond the cursor's frontier
    rest = client.fetch(cursor, 100)
    assert set(first) | set(rest) == client.result_set(name)


# ---------------------------------------------------------------------------
# subscriptions: ordering, barrier, concurrent writers
# ---------------------------------------------------------------------------


def test_subscription_replay_under_concurrent_writers(client):
    name, rel = unique("live"), unique("RL")
    client.view(name, f"V(x, y) :- {rel}(x, y)")
    handle = client.subscribe(name)
    streams = [
        [
            insert(rel, (1_000 * i + n, n % 4))
            for n in range(60)
        ]
        for i in range(3)
    ]
    threads = [
        threading.Thread(target=lambda s=s: [client.apply(c) for c in s])
        for s in streams
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    deltas = client.poll(handle)
    mirror = set()
    epochs = []
    for delta in deltas:
        mirror |= set(delta.added)
        mirror -= set(delta.removed)
        epochs.append(delta.epoch)
    assert epochs == sorted(epochs)
    assert mirror == client.result_set(name)


def test_poll_observes_writes_that_returned(client):
    name, rel = unique("sync"), unique("RY")
    client.view(name, f"V(x) :- {rel}(x)")
    handle = client.subscribe(name)
    for value in range(25):
        client.insert(rel, (value,))
        # the barrier makes every returned write visible to the poll
        deltas = client.poll(handle)
        assert deltas and deltas[-1].added == ((value,),)


def test_client_side_callback_and_dispatch_pool(cluster):
    with cluster.client(dispatch_workers=2) as facade:
        name, rel = unique("cb"), unique("RCB")
        facade.view(name, f"V(x) :- {rel}(x)")
        seen = []
        handle = facade.subscribe(name, callback=lambda d: seen.append(d))
        for value in range(30):
            facade.insert(rel, (value,))
        facade.drain()
        assert [d.added for d in seen] == [((v,),) for v in range(30)]
        facade.poll(handle)


def test_unsubscribe_stops_the_stream(client):
    name, rel = unique("unsub"), unique("RU")
    client.view(name, f"V(x) :- {rel}(x)")
    handle = client.subscribe(name)
    client.insert(rel, (1,))
    assert len(client.poll(handle)) == 1
    client.unsubscribe(handle)
    client.insert(rel, (2,))
    with pytest.raises(EngineStateError, match="unknown subscription"):
        client.poll(handle)


# ---------------------------------------------------------------------------
# transactional batches across shards
# ---------------------------------------------------------------------------


def test_single_worker_batch_uses_local_transaction(client):
    name, rel = unique("loc"), unique("RLB")
    client.view(name, f"V(x) :- {rel}(x)")
    stats = client.batch(
        [insert(rel, (1,)), insert(rel, (2,)), delete(rel, (1,))]
    )
    assert stats["applied"] == 1  # net effect: only (2,) lands
    assert client.result_set(name) == {(2,)}


def test_cross_shard_batch_commits_atomically(client):
    va, vb = unique("tx_a"), unique("tx_b")
    ra, rb = unique("RTA"), unique("RTB")
    client.view(va, f"V(x) :- {ra}(x)")
    client.view(vb, f"V(x) :- {rb}(x)")
    assert client._worker_of_view(va) != client._worker_of_view(vb)
    stats = client.batch(
        [insert(ra, (1,)), insert(rb, (2,)), insert(ra, (3,)), delete(ra, (3,))]
    )
    assert client.result_set(va) == {(1,)}
    assert client.result_set(vb) == {(2,)}
    assert stats["applied"] == 2


def test_cross_shard_batch_validation_failure_rolls_back(client):
    va, vb = unique("rb_a"), unique("rb_b")
    ra, rb = unique("RRA"), unique("RRB")
    client.view(va, f"V(x) :- {ra}(x)")
    client.view(vb, f"V(x) :- {rb}(x)")
    client.insert(ra, (0,))
    client.insert(rb, (0,))
    with pytest.raises(UpdateError, match="arity"):
        client.batch(
            [insert(ra, (1,)), insert(rb, (2, "too-wide"))]
        )
    # nothing from the doomed batch landed anywhere
    assert client.result_set(va) == {(0,)}
    assert client.result_set(vb) == {(0,)}
    # and both workers still serve (no lock was leaked by the abort)
    client.insert(ra, (5,))
    client.insert(rb, (6,))
    assert client.count(va) == 2
    assert client.count(vb) == 2


# ---------------------------------------------------------------------------
# worker crashes (kill -9 chaos)
# ---------------------------------------------------------------------------


@pytest.fixture
def crashable():
    with ShardCluster(workers=2) as deployment:
        with deployment.client() as facade:
            yield deployment, facade


def _await_death(cluster, index, timeout=5.0):
    deadline = time.monotonic() + timeout
    while cluster.workers[index].alive() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not cluster.workers[index].alive()


def test_worker_crash_mid_prepare_rolls_back(crashable):
    cluster, facade = crashable
    facade.view("a", "V(x) :- RA(x)")
    facade.view("b", "V(x) :- RB(x)")
    facade.insert("RA", (0,))
    facade.insert("RB", (0,))
    survivor = facade._worker_of_view("a")
    victim = facade._worker_of_view("b")
    assert survivor != victim

    def kill_victim(_client):
        cluster.kill_worker(victim)
        _await_death(cluster, victim)

    facade._test_pause_after_prepare = kill_victim
    with pytest.raises(WorkerCrashedError, match="rolled back") as excinfo:
        facade.batch([insert("RA", (1,)), insert("RB", (1,))])
    facade._test_pause_after_prepare = None
    assert excinfo.value.worker == victim
    assert "b" in excinfo.value.views
    # the survivor observed a rollback: its staged half never applied
    assert facade.result_set("a") == {(0,)}
    # and it keeps serving reads and writes
    facade.insert("RA", (7,))
    assert facade.count("a") == 2


def test_reads_parked_on_a_prepared_worker_do_not_starve_its_commit(crashable):
    # More reads than the worker has receivers wait on the prepared
    # worker's exclusive hold; the batch_commit that releases it must
    # still be read off the same connection.
    _cluster, facade = crashable
    facade.view("a", "V(x) :- RA(x)")
    facade.view("b", "V(x) :- RB(x)")
    facade.insert("RA", (0,))
    facade.insert("RB", (0,))
    assert facade._worker_of_view("a") != facade._worker_of_view("b")
    readers = cluster_module._WorkerHost.RECEIVERS + 1
    counts = []
    threads = [
        threading.Thread(target=lambda: counts.append(facade.count("a")), daemon=True)
        for _ in range(readers)
    ]

    def read_while_prepared(_client):
        for thread in threads:
            thread.start()
        time.sleep(0.3)  # let every read reach the prepared worker

    facade._test_pause_after_prepare = read_while_prepared
    try:
        done = threading.Event()
        batch = threading.Thread(
            target=lambda: (
                facade.batch([insert("RA", (1,)), insert("RB", (1,))]),
                done.set(),
            ),
            daemon=True,
        )
        batch.start()
        batch.join(timeout=10)
        assert done.is_set(), "the batch never committed"
    finally:
        facade._test_pause_after_prepare = None
    for thread in threads:
        thread.join(timeout=10)
    assert counts == [2] * readers
    assert facade.result_set("b") == {(0,), (1,)}


def test_views_named_like_block_markers_snapshot_intact(client):
    relation = unique("Marker")
    for name in ("#rows", "#tuples", "#tail"):
        client.view(name, f"V(x) :- {relation}(x)")
    client.batch([insert(relation, (i,)) for i in range(40)])
    for names in (["#rows"], ["#tuples"], ["#tail"], ["#rows", "#tuples", "#tail"]):
        snapshot = client.snapshot(names)
        for name in names:
            assert snapshot.result_set(name) == {(i,) for i in range(40)}


def test_worker_crash_during_prepare_phase_rolls_back(crashable):
    cluster, facade = crashable
    facade.view("a", "V(x) :- RA(x)")
    facade.view("b", "V(x) :- RB(x)")
    facade.insert("RA", (0,))
    facade.insert("RB", (0,))
    low = min(facade._worker_of_view("a"), facade._worker_of_view("b"))
    high = max(facade._worker_of_view("a"), facade._worker_of_view("b"))
    # Kill the higher-id worker first: its prepare (second in ascending
    # order) fails, and the already-prepared lower worker must abort.
    cluster.kill_worker(high)
    _await_death(cluster, high)
    with pytest.raises(WorkerCrashedError, match="rolled back"):
        facade.batch([insert("RA", (1,)), insert("RB", (1,))])
    surviving_view = "a" if facade._worker_of_view("a") == low else "b"
    relation = "RA" if surviving_view == "a" else "RB"
    assert facade.result_set(surviving_view) == {(0,)}
    facade.insert(relation, (9,))
    assert facade.count(surviving_view) == 2


def test_crashed_worker_cursor_raises_precise_error(crashable):
    cluster, facade = crashable
    facade.view("a", "V(x) :- RA(x)")
    facade.view("b", "V(x) :- RB(x)")
    facade.batch([insert("RB", (i,)) for i in range(10)])
    cursor = facade.open_cursor("b")
    assert facade.fetch(cursor, 3)
    sub = facade.subscribe("b")
    victim = facade._worker_of_view("b")
    cluster.kill_worker(victim)
    _await_death(cluster, victim)
    with pytest.raises(WorkerCrashedError) as excinfo:
        facade.fetch(cursor, 3)
    message = str(excinfo.value)
    assert f"shard worker {victim}" in message
    assert "b" in excinfo.value.views
    assert "cursor" in message  # the precise context: which handle died
    with pytest.raises(WorkerCrashedError):
        facade.poll(sub)
    with pytest.raises(WorkerCrashedError):
        facade.count("b")
    # the other shard is untouched
    assert facade.count("a") == 0
    assert victim in facade.dead_workers


def test_cluster_close_terminates_workers():
    cluster = ShardCluster(workers=2)
    pids = [handle.pid for handle in cluster.workers]
    assert all(pid is not None for pid in pids)
    cluster.close()
    cluster.close()  # idempotent
    for handle in cluster.workers:
        assert not handle.alive()


# ---------------------------------------------------------------------------
# Session.serve backend selection
# ---------------------------------------------------------------------------


def test_session_serve_threads_backend():
    session = Session()
    server = session.serve(backend="threads", shards=2)
    assert isinstance(server, Server)
    assert server.session is session
    assert server.shards == 2


def test_session_serve_unknown_backend():
    with pytest.raises(EngineStateError, match="unknown serving backend"):
        Session().serve(backend="quantum")


def test_session_serve_processes_skips_orphaned_relations():
    # drop_view keeps the relation's rows in the session's shared
    # store; migrating must skip them (no cluster view could see them)
    # instead of raising SchemaError on the unroutable relation.
    session = Session()
    session.view("gone", "V(x) :- Orphan(x)")
    session.insert("Orphan", (1,))
    session.drop_view("gone")
    session.view("kept", "W(x) :- Keep(x)")
    session.insert("Keep", (2,))
    facade = session.serve(backend="processes", shards=2)
    try:
        assert facade.result_set("kept") == {(2,)}
        with pytest.raises(EngineStateError, match="no view named"):
            facade.count("gone")
    finally:
        facade.close()


def test_session_serve_processes_migrates_views_and_rows():
    session = Session()
    session.view("feed", "V(x, y) :- E(x, y), T(y)")
    session.view("tags", "W(x) :- G(x)")
    for value in range(4):
        session.insert("T", (value,))
    session.insert("E", (1, 2))
    session.insert("E", (9, 3))
    session.insert("G", ("tag",))
    facade = session.serve(backend="processes", shards=2)
    try:
        assert facade.owns_cluster
        for name in ("feed", "tags"):
            assert facade.result_set(name) == session[name].result_set()
            assert (
                facade.result_digest(name) == session[name].result_digest()
            )
        # the cluster keeps serving updates with the same engines
        facade.insert("E", (4, 0))
        assert facade.count("feed") == session["feed"].count() + 1
        cluster = facade._cluster
    finally:
        facade.close()
    for handle in cluster.workers:
        assert not handle.alive()


# ---------------------------------------------------------------------------
# supervision chaos: kill -9 under a supervisor degrades to a bounded stall
# ---------------------------------------------------------------------------


@pytest.fixture
def supervised():
    from repro.serve.journal import CommandJournal

    with ShardCluster(workers=2) as deployment:
        journal = CommandJournal()
        with deployment.client(journal=journal) as facade:
            supervisor = Supervisor(
                deployment, facade, journal=journal, heartbeat=0.1
            ).start()
            try:
                yield deployment, facade, supervisor
            finally:
                supervisor.stop()


def _await_recovery(facade, supervisor, count=1, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not facade.dead_workers and len(supervisor.recoveries) >= count:
            return
        time.sleep(0.02)
    raise AssertionError(
        f"no recovery after {timeout}s: dead={facade.dead_workers}, "
        f"recoveries={supervisor.recoveries}"
    )


def test_kill9_mid_stream_recovers_byte_identical(supervised):
    cluster, facade, supervisor = supervised
    oracle = Server(Session())
    views = {"sup_a": "V(x, y) :- SA(x, y)", "sup_b": "W(x, y) :- SB(x, y)"}
    for name, query in views.items():
        facade.view(name, query)
        oracle.view(name, query)
    victim = facade._worker_of_view("sup_b")
    commands = effective_stream("SA", 150, 9, 21) + effective_stream(
        "SB", 150, 9, 22
    )
    random.Random(5).shuffle(commands)
    for step, command in enumerate(commands):
        if step == 90:
            cluster.kill_worker(victim)  # SIGKILL, mid-write-stream
        # Supervised: the apply stalls while the supervisor respawns
        # and replays, then retries — never a WorkerCrashedError.
        assert facade.apply(command) == oracle.apply(command)
    _await_recovery(facade, supervisor)
    for name in views:
        assert facade.result_set(name) == oracle.session[name].result_set()
        assert (
            facade.result_digest(name)
            == oracle.session[name].engine.result_digest()
        )
    assert supervisor.recoveries[0]["worker"] == victim
    assert cluster.restarts[victim] >= 1
    assert facade.dead_workers == ()


def test_repeated_kills_of_same_worker(supervised):
    cluster, facade, supervisor = supervised
    oracle = Server(Session())
    facade.view("rk", "V(x) :- RK(x)")
    oracle.view("rk", "V(x) :- RK(x)")
    victim = facade._worker_of_view("rk")
    value = 0
    for round_no in range(1, 4):
        for _ in range(10):
            facade.insert("RK", (value,))
            oracle.insert("RK", (value,))
            value += 1
        cluster.kill_worker(victim)
        facade.insert("RK", (value,))  # stalls through the recovery
        oracle.insert("RK", (value,))
        value += 1
        _await_recovery(facade, supervisor, count=round_no)
    assert facade.result_digest("rk") == oracle.session[
        "rk"
    ].engine.result_digest()
    assert cluster.restarts[victim] == 3
    assert supervisor.journal.epoch == 3
    stats = facade.cluster_stats()
    assert stats[victim]["restarts"] == 3
    assert stats[victim]["incarnation"] == 3


def test_recovered_worker_handles_report_precisely(supervised):
    from repro.errors import WorkerRecoveredError

    cluster, facade, supervisor = supervised
    facade.view("wr", "V(x) :- WR(x)")
    facade.batch([insert("WR", (i,)) for i in range(20)])
    victim = facade._worker_of_view("wr")
    cursor = facade.open_cursor("wr")
    assert facade.fetch(cursor, 5)
    sub = facade.subscribe("wr")
    cluster.kill_worker(victim)
    _await_death(cluster, victim)
    _await_recovery(facade, supervisor)
    # Result state survived the crash; per-handle state did not, and
    # says so precisely instead of pretending or crashing permanently.
    with pytest.raises(WorkerRecoveredError) as excinfo:
        facade.fetch(cursor, 5)
    assert excinfo.value.worker == victim
    assert "wr" in excinfo.value.views
    assert excinfo.value.journal_epoch == supervisor.journal.epoch
    with pytest.raises(WorkerRecoveredError):
        facade.poll(sub)
    facade.unsubscribe(sub)  # stale: cleans up locally without error
    reopened = facade.open_cursor("wr")
    assert set(facade.fetch(reopened, 100)) == facade.result_set("wr")
    assert set(facade.fetch(reopened, 100)) == set()  # exhausted
    fresh = facade.subscribe("wr")
    facade.insert("WR", (99,))
    deltas = facade.poll(fresh)
    assert deltas and deltas[-1].added == ((99,),)


def test_unsupervised_client_still_fails_fast(crashable):
    cluster, facade = crashable
    facade.view("ff", "V(x) :- FF(x)")
    victim = facade._worker_of_view("ff")
    cluster.kill_worker(victim)
    _await_death(cluster, victim)
    with pytest.raises(WorkerCrashedError):
        facade.insert("FF", (1,))


def test_max_restarts_declares_unrecoverable():
    from repro.serve.journal import CommandJournal

    with ShardCluster(workers=2) as cluster:
        journal = CommandJournal()
        with cluster.client(journal=journal) as facade:
            facade.view("mr", "V(x) :- MR(x)")
            facade.insert("MR", (1,))
            victim = facade._worker_of_view("mr")
            supervisor = Supervisor(
                cluster, facade, journal=journal, max_restarts=2
            )
            # Attach without start(): the test drives sweeps manually,
            # so no background thread races the assertions.
            facade.attach_supervisor(supervisor)
            try:
                for _ in range(2):
                    cluster.kill_worker(victim)
                    _await_death(cluster, victim)
                    facade._mark_dead(victim, ClusterError("chaos"))
                    assert supervisor.sweep() == [victim]
                cluster.kill_worker(victim)
                _await_death(cluster, victim)
                facade._mark_dead(victim, ClusterError("chaos"))
                assert supervisor.sweep() == []
                with pytest.raises(WorkerCrashedError, match="gave up"):
                    facade.insert("MR", (2,))
                # the untouched worker keeps serving
                other = 1 - victim
                facade.view("mr2", "W(x) :- MR2(x)")
                assert facade._worker_of_view("mr2") == other
            finally:
                supervisor.stop()


# ---------------------------------------------------------------------------
# live view migration
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh():
    with ShardCluster(workers=2) as deployment:
        with deployment.client() as facade:
            yield deployment, facade


def test_migrate_view_moves_rows_subs_and_routing(fresh):
    _cluster, facade = fresh
    facade.view("mg", "V(x, y) :- MG(x, y)")
    facade.batch([insert("MG", (i, i % 3)) for i in range(12)])
    sub = facade.subscribe("mg")
    cursor = facade.open_cursor("mg")
    assert facade.fetch(cursor, 4)
    source = facade._worker_of_view("mg")
    before = facade.result_digest("mg")
    version = facade.stats()["routing_version"]

    target = facade.migrate_view("mg")
    assert target != source
    assert facade._worker_of_view("mg") == target
    assert facade.stats()["routing_version"] == version + 1
    assert facade.result_digest("mg") == before
    # writes route to the new home and deltas still flow
    facade.insert("MG", (50, 0))
    deltas = facade.poll(sub)
    assert deltas and deltas[-1].added == ((50, 0),)
    # the cursor pages worker-side state that did not move: precise error
    with pytest.raises(CursorInvalidatedError, match="migrated"):
        facade.fetch(cursor, 4)
    reopened = facade.open_cursor("mg")
    assert set(facade.fetch(reopened, 100)) == facade.result_set("mg")


def test_migrate_view_under_concurrent_write_stream(fresh):
    _cluster, facade = fresh
    oracle = Server(Session())
    for api in (facade, oracle):
        api.view("mw", "V(x, y) :- MW(x, y)")
    commands = effective_stream("MW", 240, 7, 33)
    sub = facade.subscribe("mw")
    errors = []

    def writer():
        try:
            for command in commands:
                facade.apply(command)
        except Exception as error:  # pragma: no cover - surfaced below
            errors.append(error)

    thread = threading.Thread(target=writer)
    thread.start()
    moves = 0
    while thread.is_alive():
        facade.migrate_view("mw")
        moves += 1
        time.sleep(0.005)
    thread.join()
    assert not errors
    for command in commands:
        oracle.apply(command)
    assert moves >= 2
    assert facade.result_digest("mw") == oracle.session[
        "mw"
    ].engine.result_digest()
    # no delta was lost across any hop: the replayed log converges
    mirror = set()
    for delta in facade.poll(sub):
        mirror |= set(delta.added)
        mirror -= set(delta.removed)
    assert mirror == facade.result_set("mw")


def test_migrate_view_to_same_worker_is_noop(fresh):
    _cluster, facade = fresh
    facade.view("ms", "V(x) :- MS(x)")
    source = facade._worker_of_view("ms")
    assert facade.migrate_view("ms", target=source) == source
    with pytest.raises(EngineStateError, match="no view named"):
        facade.migrate_view("nope")


# ---------------------------------------------------------------------------
# cluster_stats: the operational load surface
# ---------------------------------------------------------------------------


def test_cluster_stats_reports_load(fresh):
    _cluster, facade = fresh
    facade.view("cs_a", "V(x) :- CSA(x)")
    facade.view("cs_b", "W(x) :- CSB(x)")
    facade.batch([insert("CSA", (i,)) for i in range(5)])
    stats = facade.cluster_stats()
    assert set(stats) == {0, 1, "supervisor"}
    assert stats["supervisor"] is None  # the fresh rig runs unsupervised
    total_views = total_rows = 0
    for worker, info in stats.items():
        if worker == "supervisor":
            continue
        assert info["pid"] == facade.ping()[worker]
        assert info["restarts"] == 0
        assert info["pending"] >= 0
        total_views += info["views"]
        total_rows += info["rows"]
    assert total_views == 2
    assert total_rows == 5
    assert facade.stats()["cluster"] == stats


# ---------------------------------------------------------------------------
# interactions the chaos drive surfaced: stale handles vs migration,
# oversize frames vs worker liveness
# ---------------------------------------------------------------------------


def test_migrate_view_skips_stale_incarnation_subs(supervised):
    from repro.errors import WorkerRecoveredError

    cluster, facade, supervisor = supervised
    facade.view("sm", "V(x) :- SM(x)")
    facade.insert("SM", (1,))
    victim = facade._worker_of_view("sm")
    stale = facade.subscribe("sm")
    cluster.kill_worker(victim)
    _await_death(cluster, victim)
    _await_recovery(facade, supervisor)
    # The stale subscription died with the old incarnation; migration
    # must neither drain nor resurrect it — and must not trip over it.
    target = facade.migrate_view("sm")
    assert target != victim
    assert facade.result_set("sm") == {(1,)}
    with pytest.raises(WorkerRecoveredError):
        facade.poll(stale)
    live = facade.subscribe("sm")
    facade.insert("SM", (2,))
    deltas = facade.poll(live)
    assert deltas and deltas[-1].added == ((2,),)


def test_oversize_frames_do_not_condemn_the_worker(monkeypatch):
    from repro.errors import FrameTooLargeError

    monkeypatch.setenv("REPRO_MAX_FRAME", "4096")
    with ShardCluster(workers=1) as deployment:
        with deployment.client() as facade:
            facade.view("of", "V(x, y) :- OF(x, y)")
            # Outgoing direction: the request never hits the wire, the
            # caller hears about the payload, the channel stays up.
            with pytest.raises(FrameTooLargeError, match="frame cap"):
                facade.insert("OF", (1, "x" * 8000))
            assert facade.dead_workers == ()
            # Distinct strings: a column of one repeated string would
            # ship as a dictionary and fit under the cap.
            for i in range(400):
                assert facade.insert("OF", (i, f"{i:04d}" + "y" * 12))
            # Reply direction: the worker converts the oversize reply
            # into an error instead of dropping the connection (which
            # would be diagnosed as a crash).
            with pytest.raises(FrameTooLargeError, match="frame cap"):
                facade.result_set("of")
            assert facade.dead_workers == ()
            assert facade.count("of") == 400


def _replay(deltas):
    state = set()
    for delta in deltas:
        state |= set(delta.added)
        state -= set(delta.removed)
    return state


def test_oversize_push_frames_split_instead_of_dropping_subscriptions(monkeypatch):
    # One batch moves ~300 deltas (~17 kB of push frame) under a 4 kB
    # cap: the worker must split the frame, not unsubscribe the client.
    monkeypatch.setenv("REPRO_MAX_FRAME", "4096")
    with ShardCluster(workers=1) as deployment:
        with deployment.client() as facade:
            facade.view("pa", "V(x, y) :- PA(x, y)")
            facade.view("pb", "W(x) :- PA(x, y)")
            subs = {
                facade.subscribe("pa"): "pa",
                facade.subscribe("pb"): "pb",
                facade.subscribe("pa", callback=lambda delta: None): "pa",
            }
            facade.batch([insert("PA", (i, i + 1)) for i in range(100)])
            facade.apply_stream(
                [delete("PA", (i, i + 1)) for i in range(0, 100, 3)], chunk=50
            )
            for handle, view in subs.items():
                assert _replay(facade.poll(handle)) == facade.result_set(view)


def test_a_single_push_delta_over_the_cap_is_a_named_error(monkeypatch):
    from repro.errors import FrameTooLargeError

    monkeypatch.setenv("REPRO_MAX_FRAME", "4096")
    with ShardCluster(workers=1) as deployment:
        with deployment.client() as facade:
            facade.view("prod", "V(x, y) :- PL(x), PR(y)")
            facade.view("side", "W(y) :- PR(y)")
            facade.apply_stream([insert("PR", (i,)) for i in range(600)], chunk=100)
            wide, side = facade.subscribe("prod"), facade.subscribe("side")
            seen = []
            called = facade.subscribe("prod", callback=seen.append)
            facade.insert("PL", (1,))  # one delta of 600 rows, ~5 kB
            facade.insert("PR", (600,))
            with pytest.raises(FrameTooLargeError, match="frame cap"):
                facade.poll(wide)
            # A callback-only consumer sees the loss on its state.
            state = facade.subscription_state(called)
            assert isinstance(state.delivery_error, FrameTooLargeError)
            assert state.dropped == 1
            assert [delta.added for delta in seen] == [((1, 600),)]
            # The other subscription of the same client keeps flowing.
            assert _replay(facade.poll(side)) == {(600,)}
            assert facade.dead_workers == ()


def test_slow_read_on_the_worker_does_not_hold_up_a_ping(tmp_path):
    # Reads run on the thread that received them, after it passed the
    # receive role on: a stalled fetch holds up only its own thread.
    host = cluster_module._WorkerHost(0, str(tmp_path), observe=False)
    threading.Thread(target=host.run, daemon=True).start()
    try:
        with ClusterClient(addresses=[host.address], observe=False) as facade:
            facade.view("sl", "V(x) :- SL(x)")
            facade.insert("SL", (1,))
            cursor = facade.open_cursor("sl")
            fetch = host.server.fetch
            entered = threading.Event()

            def slow_fetch(*args, **kwargs):
                entered.set()
                time.sleep(1.0)
                return fetch(*args, **kwargs)

            host.server.fetch = slow_fetch
            rows = []
            reader = threading.Thread(
                target=lambda: rows.extend(facade.fetch(cursor, 10))
            )
            reader.start()
            assert entered.wait(5.0)
            begun = time.monotonic()
            assert facade.ping() == {0: os.getpid()}
            assert time.monotonic() - begun < 0.5
            reader.join(timeout=5.0)
            assert rows == [(1,)]
    finally:
        host.stop()


def test_a_count_runs_where_it_was_read_unless_its_lock_is_held(
    tmp_path, monkeypatch
):
    # With its shard's read lock free, a count of a q-hierarchical view
    # (O(1), Theorem 3.2) is answered by the receiver that read its
    # frame, which keeps the receive role: the next frame is read by
    # the same thread.  Behind a held exclusive
    # lock the receiver hands the role on before it waits, so a ping
    # sent meanwhile is read — and answered — by another receiver.
    from repro.serve import transport

    host = cluster_module._WorkerHost(0, str(tmp_path), observe=False)
    threading.Thread(target=host.run, daemon=True).start()
    received = []  # (receiving thread, op) per request frame
    counted = []  # the thread each count ran on
    recv = transport.Connection.recv

    def spy_recv(self, timeout=None):
        frame = recv(self, timeout)
        name = threading.current_thread().name
        if name.startswith("repro-shard-") and isinstance(frame, dict):
            received.append((name, frame.get("op")))
        return frame

    monkeypatch.setattr(transport.Connection, "recv", spy_recv)
    try:
        with ClusterClient(addresses=[host.address], observe=False) as facade:
            facade.view("ir", "V(x) :- IR(x)")
            facade.insert("IR", (1,))
            engine = host.server.session["ir"].engine
            count = engine.count

            def spy_count():
                counted.append(threading.current_thread().name)
                return count()

            engine.count = spy_count
            del received[:]
            assert [facade.count("ir") for _ in range(3)] == [1, 1, 1]
            facade.ping()
            readers = {name for name, _op in received}
            assert len(readers) == 1, received
            assert set(counted) == readers
            assert [op for _name, op in received] == ["count"] * 3 + ["ping"]

            del received[:], counted[:]
            results = []
            with host.server.exclusive():
                reader = threading.Thread(
                    target=lambda: results.append(facade.count("ir"))
                )
                reader.start()
                deadline = time.monotonic() + 5.0
                while not received and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert facade.ping() == {0: os.getpid()}
                assert not results  # still waiting on the lock
            reader.join(timeout=5.0)
            assert results == [1]
            (count_reader, op), (ping_reader, ping) = received
            assert (op, ping) == ("count", "ping")
            assert ping_reader != count_reader
            assert counted == [count_reader]

            # A recompute view may re-evaluate for a count: it is handed
            # off even with its lock free, so the next frame is read by
            # another receiver.
            facade.view("rc", "V(x) :- IR(x)", engine="recompute")
            del received[:]
            assert facade.count("rc") == 1
            facade.ping()
            (count_reader, op), (ping_reader, ping) = received
            assert (op, ping) == ("count", "ping")
            assert ping_reader != count_reader
    finally:
        host.stop()


def test_a_request_tagged_with_a_non_integer_mux_id_is_refused_not_fatal(tmp_path):
    # More such frames than the connection has receivers: each gets an
    # untagged TransportError and no receiver thread dies of it.
    from repro.serve.transport import connect

    host = cluster_module._WorkerHost(0, str(tmp_path), observe=False)
    threading.Thread(target=host.run, daemon=True).start()
    try:
        with connect(host.address) as raw:
            assert raw.request({"op": "_hello", "kind": "request", "client": "t"})["ok"]
            for tag in ["x"] * cluster_module._WorkerHost.RECEIVERS + [1.5, None]:
                reply = raw.request({"op": "ping", "mux_id": tag}, timeout=5.0)
                assert reply["error"] == "TransportError", reply
                assert "integer mux_id" in reply["message"]
            reply = raw.request({"op": "ping", "mux_id": 7}, timeout=5.0)
            assert reply["ok"] and reply["mux_id"] == 7
    finally:
        host.stop()


def test_untagged_request_frame_gets_a_transport_error(cluster):
    # The multiplexed channel is the only request protocol: a frame
    # without a mux_id is answered (not dropped, not served serially).
    from repro.serve.transport import connect

    with connect(cluster.workers[0].address) as raw:
        hello = raw.request({"op": "_hello", "kind": "request", "client": "t"})
        assert hello["ok"]
        reply = raw.request({"op": "ping"}, timeout=5.0)
        assert reply["ok"] is False
        assert reply["error"] == "TransportError"
        assert "mux_id" in reply["message"]


@pytest.mark.parametrize("op", ["batch", "apply_many", "batch_prepare"])
def test_unknown_wire_command_kind_never_deletes(client, op):
    name, rel = unique("typo"), unique("RT")
    client.view(name, f"V(x) :- {rel}(x)")
    client.insert(rel, (1,))
    worker = client._worker_of_view(name)
    request = {"op": op, "txn": "t", "commands": [["upsert", rel, [1]]]}
    with pytest.raises(UpdateError, match="upsert"):
        client._request(worker, request)
    assert client.result_set(name) == {(1,)}
    # a refused prepare staged nothing and holds no lock
    assert client.insert(rel, (2,))


# ---------------------------------------------------------------------------
# one install path: registration reconciles like migration does
# ---------------------------------------------------------------------------


def test_registration_deletes_stale_residue_of_a_dropped_view(fresh):
    _cluster, facade = fresh
    facade.view("A", "V(x, y) :- E(x, y)")
    facade.view("B", "W(x, y) :- E(x, y)")
    assert (facade._worker_of_view("A"), facade._worker_of_view("B")) == (0, 1)
    facade.insert("E", (1, 2))
    facade.drop_view("A")  # worker 0 keeps its copy of E(1, 2)...
    facade.delete("E", (1, 2))  # ...and this reaches worker 1 only
    registered = facade.view("C", "U(x, y) :- E(x, y)")
    assert registered.worker == 0
    # (1, 2) is not in D, so no view may answer it.
    assert facade.result_set("C") == set()
    assert facade.result_set("B") == set()
    # From here both replicas of E take every write and stay equal.
    facade.insert("E", (3, 4))
    assert facade.result_set("C") == {(3, 4)}
    assert facade.result_digest("C") == facade.result_digest("B")


def test_registration_without_a_live_owner_keeps_the_workers_rows(fresh):
    _cluster, facade = fresh
    facade.view("A", "V(x, y) :- E(x, y)")
    facade.insert("E", (1, 2))
    facade.drop_view("A")
    # No live view serves E: there is no truth to reconcile against,
    # so the rows worker 0 still stores stand.
    assert facade.view("C", "U(x, y) :- E(x, y)").worker == 0
    assert facade.result_set("C") == {(1, 2)}


# ---------------------------------------------------------------------------
# what the single copies promise: sweeps, the barrier deadline, the surface
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sweep", ["epochs", "ping", "stats", "cluster_stats", "metrics"]
)
def test_sweeps_return_on_the_first_call_past_a_killed_worker(crashable, sweep):
    cluster, facade = crashable
    facade.view("a", "V(x) :- RA(x)")
    facade.view("b", "V(x) :- RB(x)")
    victim = facade._worker_of_view("b")
    cluster.kill_worker(victim)
    _await_death(cluster, victim)
    assert facade.dead_workers == ()  # no request has noticed yet
    result = getattr(facade, sweep)()
    if sweep == "epochs":
        assert set(result) == {"a"}
    elif sweep in ("ping", "cluster_stats"):
        assert result[victim] is None and result[1 - victim] is not None
    else:
        per_worker = result["per_worker"]
        assert per_worker[victim] is None and per_worker[1 - victim] is not None
    assert facade.dead_workers == (victim,)


def test_ping_reports_a_missed_deadline_as_absent(cluster):
    # Frame 2 on worker 0's request channel is the reply to the first
    # request after the hello: the ping below.
    plan = FaultPlan([Fault("drop", frame=2, worker=0, channel="request")])
    with cluster.client(
        faults=plan, request_timeout=0.3, retry_budget=0
    ) as facade:
        pids = facade.ping()
        assert pids[0] is None and pids[1] is not None
        assert facade.dead_workers == ()  # a clean deadline, not a crash
        assert facade.ping()[0] is not None


def test_drain_and_poll_share_the_barrier_deadline(monkeypatch):
    monkeypatch.setattr(cluster_module, "_POLL_TIMEOUT", 0.3)
    # Frame 2 on the push channel is the first deltas frame (frame 1 is
    # the hello reply): the worker counts a delivery that never lands.
    plan = FaultPlan(
        [Fault("drop", frame=2, worker=0, channel="push", direction="recv")]
    )
    with ShardCluster(workers=1) as deployment:
        with deployment.client(faults=plan) as facade:
            facade.view("bd", "V(x) :- BD(x)")
            handle = facade.subscribe("bd")
            facade.insert("BD", (1,))
            with pytest.raises(ClusterError, match="push barrier timed out") as polled:
                facade.poll(handle)
            with pytest.raises(ClusterError, match="push barrier timed out") as drained:
                facade.drain()
            assert str(drained.value) == str(polled.value)


def _parameters(function):
    return list(inspect.signature(function).parameters)[1:]  # drop self


def test_serving_signatures_are_frozen():
    assert _parameters(ClusterClient.__init__) == [
        "cluster",
        "addresses",
        "dispatch_workers",
        "dispatch_queue",
        "journal",
        "request_timeout",
        "retry_budget",
        "faults",
        "observe",
    ]
    assert _parameters(ShardCluster.__init__) == [
        "workers",
        "socket_dir",
        "observe",
    ]
    assert _parameters(ShardCluster.client) == [
        "dispatch_workers",
        "dispatch_queue",
        "journal",
        "request_timeout",
        "retry_budget",
        "faults",
        "observe",
    ]
    assert _parameters(Supervisor.__init__) == [
        "cluster",
        "client",
        "journal",
        "heartbeat",
        "heartbeat_timeout",
        "max_restarts",
        "restart_backoff",
    ]
    assert _parameters(Session.serve) == [
        "backend",
        "shards",
        "dispatch_workers",
        "dispatch_queue",
        "supervise",
        "request_timeout",
        "retry_budget",
        "heartbeat",
        "heartbeat_timeout",
        "restart_backoff",
        "max_restarts",
        "faults",
        "observe",
    ]
    # The retired knobs are unknown names on every entry point.
    with pytest.raises(TypeError, match="start_method"):
        ShardCluster(workers=1, start_method="fork")
    with pytest.raises(TypeError, match="multiplex"):
        ClusterClient(addresses=[("tcp", "127.0.0.1", 1)], multiplex=False)
    with pytest.raises(TypeError, match="multiplex"):
        Session().serve(backend="processes", multiplex=False)
    with pytest.raises(TypeError, match="start_method"):
        Session().serve(backend="processes", start_method="fork")
    with pytest.raises(TypeError, match="codec"):
        ShardCluster(workers=1, codec="msgpack")
    with pytest.raises(TypeError, match="codec"):
        Session().serve(backend="processes", codec="json")
    with pytest.raises(EngineStateError, match="unknown serving backend"):
        Session().serve(backend="cluster")
    with pytest.raises(EngineStateError, match="unknown serving backend"):
        Session().serve(backend="inprocess")


def _public(cls):
    return {name for name in dir(cls) if not name.startswith("_")}


def test_server_and_cluster_client_mirror_one_surface():
    # The mirrored surface written down once, until a Protocol both
    # implement replaces this list (ROADMAP, "One serving surface").
    server, client = _public(Server), _public(ClusterClient)
    assert sorted(server & client) == [
        "answer",
        "apply",
        "batch",
        "close",
        "close_cursor",
        "contains",
        "count",
        "delete",
        "drain",
        "drop_view",
        "epochs",
        "explain",
        "fetch",
        "insert",
        "metrics",
        "open_cursor",
        "poll",
        "result_digest",
        "result_set",
        "snapshot",
        "stats",
        "subscribe",
        "subscription_state",
        "unsubscribe",
        "view",
    ]
    assert sorted(server - client) == [
        "apply_all",
        "cursor_state",
        "digest",
        "dispatcher",
        "exclusive",
        "handle",
        "load_stats",
        "reads",
        "relation_rows",
        "result_rows",
        "serve",
        "session",
        "shard_of",
        "shards",
        "snapshot_read",
        "writes",
    ]
    assert sorted(client - server) == [
        "adopt_session",
        "apply_stream",
        "attach_supervisor",
        "cluster_stats",
        "dead_workers",
        "migrate_view",
        "ping",
        "probe_worker",
        "workers",
    ]
