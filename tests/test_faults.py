"""Deterministic fault injection: scripted drops, delays, freezes and
truncations against the cluster transport, plus the seeded chaos
differential the nightly matrix replays.

Every scenario here is a *script*, not a race: the same
:class:`~repro.serve.faults.FaultPlan` hits the same frames every run,
so the deadline/retry machinery is exercised on cue and the final
state can be compared byte-for-byte against the in-process oracle.
"""

import os
import signal
import socket
import threading
import time

import pytest

from repro import Server
from repro.errors import (
    ClusterError,
    DeadlineExceededError,
    WorkerCrashedError,
)
from repro.serve.cluster import ShardCluster
from repro.serve.faults import Fault, FaultPlan, FaultyConnection
from repro.serve.journal import CommandJournal
from repro.serve.supervisor import Supervisor
from repro.serve.transport import Connection, get_codec
from repro.storage.updates import delete, insert

pytestmark = pytest.mark.cluster

CHAOS_SEEDS = [11, 23]
if os.environ.get("REPRO_CHAOS_SEED"):
    CHAOS_SEEDS = [int(os.environ["REPRO_CHAOS_SEED"])]


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------


def test_randomized_plan_is_deterministic_per_seed():
    a = FaultPlan.randomized(seed=42)
    b = FaultPlan.randomized(seed=42)
    assert a.faults == b.faults
    assert a.seed == 42 and len(a) == 6
    assert "seed=42" in repr(a)
    c = FaultPlan.randomized(seed=43)
    assert c.faults != a.faults


def test_fault_validation():
    with pytest.raises(ClusterError, match="unknown fault action"):
        Fault(action="explode", frame=1)
    with pytest.raises(ClusterError, match="unknown fault direction"):
        Fault(action="drop", frame=1, direction="sideways")
    with pytest.raises(ClusterError, match="unknown fault channel"):
        Fault(action="drop", frame=1, channel="carrier-pigeon")
    with pytest.raises(ClusterError, match="1-based"):
        Fault(action="drop", frame=0)
    with pytest.raises(ClusterError, match="direction='send'"):
        Fault(action="truncate", frame=1, direction="recv")
    with pytest.raises(ClusterError, match="delay="):
        Fault(action="delay", frame=1)
    with pytest.raises(ClusterError, match="duration="):
        Fault(action="freeze", frame=1)


def test_plan_wrap_only_installs_when_faults_match():
    plan = FaultPlan(
        faults=(Fault(action="drop", frame=1, worker=0, channel="request"),)
    )
    left, right = socket.socketpair()
    try:
        conn = Connection(left, get_codec("json"))
        assert plan.wrap(conn, 1, "request", lambda: None) is conn
        assert plan.wrap(conn, 0, "push", lambda: None) is conn
        wrapped = plan.wrap(conn, 0, "request", lambda: None)
        assert isinstance(wrapped, FaultyConnection)
        assert "pending=1" in repr(wrapped)
    finally:
        left.close()
        right.close()


# ---------------------------------------------------------------------------
# FaultyConnection frame accounting over a raw socketpair
# ---------------------------------------------------------------------------


def test_faulty_connection_drops_duplicates_and_counts_frames():
    left, right = socket.socketpair()
    peer = Connection(right, get_codec("json"))
    conn = FaultyConnection(
        Connection(left, get_codec("json")),
        [
            Fault(action="drop", frame=2, direction="send"),
            Fault(action="duplicate", frame=3, direction="send"),
            Fault(action="duplicate", frame=2, direction="recv"),
        ],
        lambda: None,
    )
    try:
        conn.send({"n": 1})
        conn.send({"n": 2})  # dropped: the peer never sees it
        conn.send({"n": 3})  # duplicated: the peer sees it twice
        assert peer.recv() == {"n": 1}
        assert peer.recv() == {"n": 3}
        assert peer.recv() == {"n": 3}
        peer.send({"r": 1})
        peer.send({"r": 2})
        assert conn.recv() == {"r": 1}
        assert conn.recv() == {"r": 2}  # duplicated inbound ...
        assert conn.recv() == {"r": 2}  # ... replayed on the next read
        assert ("send", 2, "drop") in conn.fired
        assert ("send", 3, "duplicate") in conn.fired
        assert ("recv", 2, "duplicate") in conn.fired
    finally:
        conn.close()
        peer.close()


# ---------------------------------------------------------------------------
# cluster-level scripted faults
#
# Frame ordinals on a worker's request channel are deterministic:
# 1 = hello reply, then one reply per request in issue order.
# ---------------------------------------------------------------------------


def test_dropped_reply_times_out_and_blind_retry_succeeds():
    plan = FaultPlan(
        faults=(
            # frame 4 = the reply to the first count() after hello(1),
            # view(2), insert(3) — dropped, so the mux deadline fires
            # and the retry-safe read is blindly re-sent.
            Fault(action="drop", frame=4, worker=0, channel="request"),
        )
    )
    with ShardCluster(workers=2) as deployment:
        with deployment.client(
            request_timeout=0.5, retry_budget=2, faults=plan
        ) as facade:
            facade.view("dr", "V(x) :- DR(x)")
            facade.insert("DR", (1,))
            started = time.monotonic()
            assert facade.count("dr") == 1
            elapsed = time.monotonic() - started
            # one deadline (0.5s) plus backoff, then the retry answered
            assert elapsed >= 0.5
            # the channel was never condemned: workers all alive
            assert not facade.dead_workers


def test_dropped_write_reply_raises_instead_of_blind_retry():
    plan = FaultPlan(
        faults=(
            # frame 3 = the reply to the insert — writes are not
            # retry-safe (a blind re-send could double-apply against a
            # non-idempotent journal verdict), so the deadline surfaces.
            Fault(action="drop", frame=3, worker=0, channel="request"),
        )
    )
    with ShardCluster(workers=2) as deployment:
        with deployment.client(
            request_timeout=0.4, retry_budget=3, faults=plan
        ) as facade:
            facade.view("wr", "V(x) :- WR(x)")
            with pytest.raises(DeadlineExceededError) as info:
                facade.insert("WR", (1,))
            error = info.value
            assert error.details["op"] == "insert"
            assert error.details["worker"] == 0
            assert error.details["elapsed"] >= 0.4
            assert "not retry-safe" in str(error)
            # Only the *reply* was lost: the worker applied the write,
            # which is exactly why writes must not be blindly re-sent.
            assert facade.count("wr") == 1
            assert not facade.dead_workers


def test_injected_delay_does_not_starve_other_worker_lanes():
    plan = FaultPlan(
        faults=(
            # frame 4 on worker 0 = the reply to the slow thread's
            # count — held for 0.6s on worker 0's channel.
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
            facade.view("la", "V(x) :- LA(x)")  # worker 0
            facade.view("lb", "W(x) :- LB(x)")  # worker 1
            facade.insert("LA", (1,))
            facade.insert("LB", (2,))
            slow_elapsed = []

            def slow_read():
                started = time.monotonic()
                assert facade.count("la") == 1
                slow_elapsed.append(time.monotonic() - started)

            thread = threading.Thread(target=slow_read)
            thread.start()
            try:
                time.sleep(0.05)  # let the slow count get in flight
                started = time.monotonic()
                for _ in range(5):
                    assert facade.count("lb") == 1
                fast_elapsed = time.monotonic() - started
            finally:
                thread.join()
            # worker 1's lane answered while worker 0's reply was held
            assert slow_elapsed[0] >= 0.5
            assert fast_elapsed < 0.5


def test_frozen_worker_trips_deadline_then_recovers_after_thaw():
    plan = FaultPlan(
        faults=(
            # freeze fires as frame 3 (the insert reply) passes:
            # SIGSTOP for 0.6s, SIGCONT from a timer thread.
            Fault(
                action="freeze",
                frame=3,
                worker=0,
                channel="request",
                duration=0.6,
            ),
        )
    )
    with ShardCluster(workers=2) as deployment:
        with deployment.client(
            request_timeout=0.25, retry_budget=6, faults=plan
        ) as facade:
            facade.view("fz", "V(x) :- FZ(x)")
            facade.insert("FZ", (1,))
            started = time.monotonic()
            assert facade.count("fz") == 1
            elapsed = time.monotonic() - started
            # at least one 0.25s deadline fired while the worker was
            # stopped; the retries converged once it thawed
            assert elapsed >= 0.25
            assert not facade.dead_workers


def test_truncated_request_condemns_the_channel():
    plan = FaultPlan(
        faults=(
            # frame 3 (send) = the insert request: half the payload
            # goes out and the connection slams shut — the worker sees
            # a mid-frame EOF, the client a crashed channel.
            Fault(
                action="truncate",
                frame=3,
                worker=0,
                channel="request",
                direction="send",
            ),
        )
    )
    with ShardCluster(workers=2) as deployment:
        with deployment.client(faults=plan) as facade:
            facade.view("tr", "V(x) :- TR(x)")
            with pytest.raises(WorkerCrashedError) as info:
                facade.insert("TR", (1,))
            assert info.value.details["worker"] == 0
            assert 0 in facade.dead_workers


# ---------------------------------------------------------------------------
# the seeded chaos differential
# ---------------------------------------------------------------------------


def _oracle_final_state(commands, views):
    oracle = Server(shards=1)
    try:
        for name, text in views:
            oracle.view(name, text)
        for command in commands:
            if command.op == "insert":
                oracle.insert(command.relation, command.row)
            else:
                oracle.delete(command.relation, command.row)
        return {
            name: sorted(oracle.result_set(name), key=repr)
            for name, _ in views
        }
    finally:
        oracle.close()


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_differential_with_faults_and_failover(seed):
    """The full gauntlet, scripted from one seed: dropped and delayed
    reply frames, a ``kill -9`` mid-stream with supervised journal
    replay, a writer that retries its own deadlines — and at the end a
    pinned snapshot that must be **byte-identical** to the frozen
    in-process oracle, including paging order across a mid-fetch kill.
    """
    plan = FaultPlan.randomized(seed=seed, count=8, frames=36, max_delay=0.04)
    views = [("cha", "V(x) :- CHA(x)"), ("chb", "W(x) :- CHB(x)")]
    commands = []
    for i in range(50):
        commands.append(insert("CHA" if i % 2 == 0 else "CHB", (i,)))
        if i % 9 == 8:
            commands.append(delete("CHA" if i % 2 == 0 else "CHB", (i,)))
    expected = _oracle_final_state(commands, views)

    with ShardCluster(workers=2) as deployment:
        journal = CommandJournal()
        with deployment.client(
            journal=journal,
            request_timeout=1.0,
            retry_budget=4,
            faults=plan,
        ) as facade:
            supervisor = Supervisor(
                deployment, facade, journal=journal, heartbeat=0.1
            ).start()
            try:
                for name, text in views:
                    facade.view(name, text)
                for step, command in enumerate(commands):
                    # writes are not blindly retried by the transport;
                    # the *caller* owns the retry, and set semantics
                    # plus the journal fold make it exactly-once
                    for attempt in range(6):
                        try:
                            if command.op == "insert":
                                facade.insert(command.relation, command.row)
                            else:
                                facade.delete(command.relation, command.row)
                            break
                        except DeadlineExceededError:
                            if attempt == 5:
                                raise
                    if step == 25:
                        os.kill(
                            facade.ping()[facade._worker_of_view("cha")],
                            signal.SIGKILL,
                        )
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if not facade.dead_workers:
                        break
                    time.sleep(0.02)
                assert not facade.dead_workers

                snap = facade.snapshot(views=["cha", "chb"])
                for name, _ in views:
                    assert list(snap.rows(name)) == expected[name]

                # byte-identical paging across a mid-fetch kill: the
                # pinned rows never re-contact the cluster
                page = snap.fetch("cha", 5)
                os.kill(facade.ping()[snap.workers["cha"]], signal.SIGKILL)
                rest = snap.fetch("cha", 10_000)
                assert page + rest == expected["cha"]
            finally:
                supervisor.stop()
