"""The scaled serving layer: sharded writes and async dispatch.

Covers the :class:`repro.serve.Server` scaling surface:

* **view-affine sharding** — round-robin placement, relation→shard
  routing (one write takes exactly the shards whose views mention the
  relation, ascending order), cross-shard fan-out when two views on
  different shards share a relation, and batches looking atomic
  everywhere;
* **async subscription dispatch** — deliveries leave the writer
  thread, per-subscription FIFO keeps delta epochs increasing, the
  drain barrier makes poll deterministic, back-pressure bounds the
  backlog, and a closed pool degrades to inline delivery;
* **differential ends** — after any concurrent run, every view equals
  a sequential oracle over the session's final rows, and subscription
  replay reproduces ``result_set()`` exactly.
"""

import random
import threading
import time
from typing import List

import pytest

from repro.api import Session
from repro.errors import EngineStateError
from repro.serve import DispatchPool, Server
from repro.serve.server import RWLock
from repro.storage.updates import insert

N_VIEWS = 4


def disjoint_server(shards, **kwargs):
    server = Server(shards=shards, **kwargs)
    for i in range(N_VIEWS):
        server.view(f"v{i}", f"V(x, y) :- E{i}(x, y), T{i}(y)")
    return server


def churn(server, index, seed, rounds=120):
    rng = random.Random(seed)
    for step in range(rounds):
        if rng.random() < 0.75:
            server.insert(f"E{index}", (rng.randint(1, 30), rng.randint(1, 6)))
        elif rng.random() < 0.5:
            server.insert(f"T{index}", (rng.randint(1, 6),))
        else:
            server.delete(f"E{index}", (rng.randint(1, 30), rng.randint(1, 6)))


def expected_result(server, index):
    e_rows = server.session.rows(f"E{index}")
    t_rows = server.session.rows(f"T{index}")
    return {(x, y) for (x, y) in e_rows if (y,) in t_rows}


# ---------------------------------------------------------------------------
# sharded write path
# ---------------------------------------------------------------------------


def test_views_place_round_robin_and_writes_route_by_relation():
    server = disjoint_server(shards=4)
    assert [server.shard_of(f"v{i}") for i in range(4)] == [0, 1, 2, 3]
    assert server._routes["E2"].shards == (2,)
    server.insert("E3", (1, 1))
    assert server._shard_writes == [0, 0, 0, 1]  # only shard 3 wrote
    stats = server.stats()
    assert stats["shards"] == 4 and stats["shard_of_view"]["v1"] == 1


def test_shared_relation_fans_out_across_shards():
    server = Server(shards=2)
    server.view("a", "A(x, y) :- E(x, y), L(y)")  # shard 0
    server.view("b", "B(x) :- E(x, x)")  # shard 1: E is shared
    assert server._routes["E"].shards == (0, 1)
    server.insert("L", (2,))
    server.insert("E", (1, 2))
    server.insert("E", (3, 3))
    assert server.count("a") == 1 and server.count("b") == 1
    assert server.epochs() == {"a": 3, "b": 2}  # L only touched shard 0


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_concurrent_disjoint_writers_match_sequential_oracle(shards):
    server = disjoint_server(shards=shards)
    subscriptions = [server.subscribe(f"v{i}") for i in range(N_VIEWS)]
    threads = [
        threading.Thread(target=churn, args=(server, i, 1000 + i))
        for i in range(N_VIEWS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for i in range(N_VIEWS):
        view = server.session[f"v{i}"]
        assert view.result_set() == expected_result(server, i)
        mirror = set()
        epochs = []
        for delta in server.poll(subscriptions[i]):
            mirror |= set(delta.added)
            mirror -= set(delta.removed)
            epochs.append(delta.epoch)
        assert mirror == view.result_set()
        assert epochs == sorted(epochs) and len(set(epochs)) == len(epochs)
    # The parallel writers shared one store and kept no shared counter
    # in it: its size is the sum of its relations.
    session = server.session
    assert session.cardinality == sum(
        len(session.rows(relation)) for relation in session.relations
    )


def test_cross_shard_writers_on_a_shared_relation_stay_consistent():
    server = Server(shards=4)
    server.view("left", "L(x, y) :- E(x, y), A(y)")
    server.view("right", "R(x, y) :- E(x, y), B(y)")
    server.view("third", "T3(x) :- C(x)")

    def writer(seed):
        rng = random.Random(seed)
        for _ in range(150):
            roll = rng.random()
            if roll < 0.5:
                server.insert("E", (rng.randint(1, 20), rng.randint(1, 5)))
            elif roll < 0.7:
                server.insert("A", (rng.randint(1, 5),))
            elif roll < 0.9:
                server.insert("B", (rng.randint(1, 5),))
            else:
                server.delete("E", (rng.randint(1, 20), rng.randint(1, 5)))

    threads = [threading.Thread(target=writer, args=(s,)) for s in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    e_rows = server.session.rows("E")
    a_rows = server.session.rows("A")
    b_rows = server.session.rows("B")
    assert server.session["left"].result_set() == {
        (x, y) for (x, y) in e_rows if (y,) in a_rows
    }
    assert server.session["right"].result_set() == {
        (x, y) for (x, y) in e_rows if (y,) in b_rows
    }


def test_batch_is_atomic_across_shards():
    server = disjoint_server(shards=4)
    stats = server.batch(
        [insert("E0", (1, 1)), insert("T0", (1,)), insert("E3", (2, 2)),
         insert("T3", (2,))]
    )
    assert stats["applied"] == 4
    assert server.count("v0") == 1 and server.count("v3") == 1


def test_drop_view_reroutes_relations():
    server = disjoint_server(shards=2)
    server.drop_view("v0")
    with pytest.raises(EngineStateError):
        server.shard_of("v0")
    assert "E0" not in server._routes
    server.insert("E1", (1, 1))  # routing still works after reindex
    assert server.count("v1") == 0


def test_single_shard_server_rejects_bad_shard_count():
    with pytest.raises(EngineStateError):
        Server(shards=0)


def test_wrapping_a_prepopulated_session_places_existing_views():
    session = Session()
    session.view("a", "A(x) :- R(x)")
    session.view("b", "B(x) :- S(x)")
    server = Server(session, shards=2)
    assert {server.shard_of("a"), server.shard_of("b")} == {0, 1}
    server.insert("R", (1,))
    assert server.count("a") == 1


# ---------------------------------------------------------------------------
# async subscription dispatch
# ---------------------------------------------------------------------------


def test_async_dispatch_replay_is_identical_and_polls_deterministically():
    with Server(shards=2, dispatch_workers=2) as server:
        server.view("v", "V(x, y) :- E(x, y), T(y)")
        subscription = server.subscribe("v")
        rng = random.Random(3)
        for value in range(5):
            server.insert("T", (value,))
        for _ in range(200):
            if rng.random() < 0.7:
                server.insert("E", (rng.randint(1, 40), rng.randrange(5)))
            else:
                server.delete("E", (rng.randint(1, 40), rng.randrange(5)))
        # drain barrier: a poll after the writes observes all of them —
        # no explicit drain() needed
        mirror = set()
        epochs = []
        for delta in server.poll(subscription):
            mirror |= set(delta.added)
            mirror -= set(delta.removed)
            epochs.append(delta.epoch)
        assert mirror == server.session["v"].result_set()
        assert epochs == sorted(epochs) and len(set(epochs)) == len(epochs)


def test_async_callbacks_run_off_the_writer_thread():
    with Server(dispatch_workers=1) as server:
        server.view("v", "V(x) :- R(x)")
        delivery_threads = []
        handle = server.subscribe(
            "v", callback=lambda d: delivery_threads.append(
                threading.get_ident()
            )
        )
        for i in range(5):
            server.insert("R", (i,))
        server.drain()
        assert len(server.poll(handle)) == 5
        assert delivery_threads and all(
            t != threading.get_ident() for t in delivery_threads
        )


def test_sync_dispatch_remains_in_writer_thread_by_default():
    server = Server()
    server.view("v", "V(x) :- R(x)")
    delivery_threads = []
    server.subscribe(
        "v", callback=lambda d: delivery_threads.append(threading.get_ident())
    )
    server.insert("R", (1,))
    assert delivery_threads == [threading.get_ident()]


def test_backpressure_bounds_the_backlog():
    session = Session()
    view = session.view("v", "V(x) :- R(x)")
    pool = DispatchPool(workers=1, max_queue=3)
    observed = []

    def slow_callback(delta):
        time.sleep(0.002)

    subscription = view.subscribe(callback=slow_callback, dispatcher=pool)
    for i in range(30):
        session.insert("R", (i,))
        observed.append(pool.pending)
    assert max(observed) <= 3  # submit blocked instead of queueing deeper
    pool.drain()
    assert len(subscription.poll()) == 30
    assert subscription.delivered == 30
    pool.close()


def test_closed_pool_degrades_to_inline_delivery():
    session = Session()
    view = session.view("v", "V(x) :- R(x)")
    pool = DispatchPool(workers=1)
    subscription = view.subscribe(dispatcher=pool)
    session.insert("R", (1,))
    pool.close()
    session.insert("R", (2,))  # delivered inline by the writer
    assert [d.added for d in subscription.poll()] == [(((1,),)), (((2,),))]
    pool.close()  # idempotent


def test_max_pending_drop_accounting_still_works_async():
    with Server(dispatch_workers=2) as server:
        server.view("v", "V(x) :- R(x)")
        handle = server.subscribe("v", max_pending=2)
        for i in range(6):
            server.insert("R", (i,))
        server.drain()
        subscription = server._subscriptions[handle]
        assert subscription.dropped == 4
        assert [d.added for d in server.poll(handle)] == [
            (((4,),)),
            (((5,),)),
        ]


def test_callback_may_poll_its_own_subscription_under_async_dispatch():
    # The notify-then-drain pattern: a callback that polls its own
    # subscription must not deadlock on the pool's drain barrier (the
    # delta being delivered is already in the outbox).
    done = threading.Event()
    polled: List[object] = []
    with Server(dispatch_workers=1) as server:
        server.view("v", "V(x) :- R(x)")
        handle_box: List[int] = []

        def callback(delta):
            polled.extend(server.poll(handle_box[0]))
            done.set()

        handle_box.append(server.subscribe("v", callback=callback))
        server.insert("R", (1,))
        assert done.wait(timeout=5), "callback self-poll deadlocked"
        server.drain()
    assert [d.added for d in polled] == [(((1,),))]


def test_backpressure_with_reentrant_callbacks_makes_progress():
    # Saturated queue + callbacks that read the server back: the
    # back-pressured writer must help deliver instead of deadlocking
    # against the worker that is blocked on the writer's shard lock.
    counts: List[int] = []
    with Server(dispatch_workers=1, dispatch_queue=1) as server:
        server.view("v", "V(x) :- R(x)")
        handle = server.subscribe(
            "v", callback=lambda d: counts.append(server.count("v"))
        )
        done = threading.Event()

        def writer():
            for i in range(25):
                server.insert("R", (i,))
            done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        assert done.wait(timeout=10), "writer wedged on back-pressure"
        thread.join()
        server.drain()
        assert len(server.poll(handle)) == 25
    assert len(counts) == 25


def test_stats_surface_shards_and_dispatch():
    with Server(shards=3, dispatch_workers=2) as server:
        server.view("v", "V(x) :- R(x)")
        server.subscribe("v")
        server.insert("R", (1,))
        server.drain()
        stats = server.stats()
        assert stats["shards"] == 3
        assert sum(stats["shard_writes"]) == stats["writes"] == 1
        assert stats["dispatch"]["workers"] == 2
        assert stats["dispatch"]["delivered"] == 1
        assert stats["dispatch"]["pending"] == 0


# ---------------------------------------------------------------------------
# chunked streams: apply_all under one lock acquisition
# ---------------------------------------------------------------------------


def test_apply_all_matches_per_command_apply():
    from repro.storage.updates import delete as delete_cmd

    chunked = Server(Session(), shards=2)
    oracle = Server(Session(), shards=2)
    for server in (chunked, oracle):
        server.view("a", "V(x) :- RA(x)")
        server.view("b", "V(x) :- RB(x)")
    rng = random.Random(3)
    commands = []
    for step in range(200):
        relation = rng.choice(["RA", "RB"])
        row = (rng.randrange(20),)
        commands.append(
            insert(relation, row)
            if rng.random() < 0.7
            else delete_cmd(relation, row)
        )
    flags = chunked.apply_all(commands)
    expected = [oracle.apply(command) for command in commands]
    assert flags == expected
    for name in ("a", "b"):
        assert (
            chunked.session[name].result_set()
            == oracle.session[name].result_set()
        )
    assert chunked.writes == len(commands)
    assert chunked.apply_all([]) == []


def test_apply_all_counts_each_command_on_its_own_primary_shard():
    def two_views():
        server = Server(shards=2)
        server.view("a", "V(x) :- A(x)")  # shard 0
        server.view("b", "V(x) :- B(x)")  # shard 1
        return server, [server.subscribe("a"), server.subscribe("b")]

    commands = [insert("A", (1,)), insert("A", (2,)), insert("B", (3,))]
    chunked, chunked_subs = two_views()
    oracle, oracle_subs = two_views()
    assert chunked.apply_all(commands) == [oracle.apply(c) for c in commands]
    assert chunked._shard_writes == oracle._shard_writes == [2, 1]
    for name, ours, theirs in zip("ab", chunked_subs, oracle_subs):
        assert chunked.result_set(name) == oracle.result_set(name)
        assert chunked.poll(ours) == oracle.poll(theirs)


def test_apply_all_delivers_deltas_and_choreographs_cursors():
    server = Server(Session())
    server.view("a", "V(x) :- RA(x)")
    handle = server.subscribe("a")
    server.apply_all([insert("RA", (value,)) for value in range(30)])
    deltas = server.poll(handle)
    assert [d.added for d in deltas] == [((v,),) for v in range(30)]
    cursor = server.open_cursor("a")
    emitted = server.fetch(cursor, 5)
    # a chunk deleting an emitted tuple invalidates, same as apply()
    from repro.errors import CursorInvalidatedError
    from repro.storage.updates import delete as delete_cmd

    server.apply_all([delete_cmd("RA", emitted[0])])
    with pytest.raises(CursorInvalidatedError):
        server.fetch(cursor, 5)


def test_apply_all_error_keeps_applied_prefix():
    from repro.errors import SchemaError

    server = Server(Session())
    server.view("a", "V(x) :- RA(x)")
    with pytest.raises(SchemaError):
        server.apply_all(
            [insert("RA", (1,)), insert("NOPE", (2,)), insert("RA", (3,))]
        )
    # stream semantics: the prefix before the failure is applied
    assert server.session["a"].result_set() == {(1,)}


# ---------------------------------------------------------------------------
# the reader–writer lock protocol, directly
# ---------------------------------------------------------------------------


def _started(target):
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def _joined(thread):
    thread.join(timeout=5)
    assert not thread.is_alive()


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def test_rwlock_readers_hold_together():
    lock = RWLock()
    both_inside = threading.Barrier(2, timeout=5)

    def reader():
        with lock.read_locked():
            both_inside.wait()  # breaks unless both hold the read side

    threads = [_started(reader) for _ in range(2)]
    for thread in threads:
        _joined(thread)
    assert not both_inside.broken and lock._readers == 0


def test_rwlock_waiting_writer_blocks_new_readers():
    lock = RWLock()
    order: List[str] = []
    late_reader_in = threading.Event()

    def writer():
        with lock.write_locked():
            order.append("writer")

    def late_reader():
        with lock.read_locked():
            order.append("reader")
            late_reader_in.set()

    with lock.read_locked():
        writing = _started(writer)
        _wait_until(lambda: lock._writers_waiting == 1)
        reading = _started(late_reader)
        # readers are admitted next to readers — unless a writer waits
        assert not late_reader_in.wait(timeout=0.05)
        assert order == []
    _joined(writing)
    _joined(reading)
    assert order == ["writer", "reader"]


def test_rwlock_writer_reenters_both_sides_until_depth_zero():
    lock = RWLock()
    other_in = threading.Event()

    def other_writer():
        with lock.write_locked():
            other_in.set()

    with lock.write_locked():
        with lock.write_locked():
            with lock.read_locked():
                assert lock._writer_depth == 2 and lock._readers == 0
            other = _started(other_writer)
            _wait_until(lambda: lock._writers_waiting == 1)
        # depth is back to 1, not 0: the other writer stays out
        assert not other_in.wait(timeout=0.05)
    assert other_in.wait(timeout=5)
    _joined(other)
    assert lock._writer_thread is None and lock._writer_depth == 0


def test_rwlock_reentrant_read_outliving_its_write_hold_balances():
    # Reentrancy is recorded per acquisition: a read taken under the
    # write hold releases as a no-op even once the write hold is gone.
    lock = RWLock()
    write_hold = lock.write_locked()
    write_hold.__enter__()
    read_hold = lock.read_locked()
    read_hold.__enter__()
    write_hold.__exit__(None, None, None)
    read_hold.__exit__(None, None, None)
    assert lock._readers == 0 and lock._writer_thread is None
    admitted = threading.Event()

    def writer():
        with lock.write_locked():
            admitted.set()

    _joined(_started(writer))
    assert admitted.is_set()


def test_rwlock_stress_loses_no_update_and_tears_no_read():
    # More threads than cores and a tiny switch interval: a writer's
    # two-step update is torn for any reader the lock wrongly admits,
    # and two writers admitted together lose an increment.
    import sys

    lock = RWLock()
    state = {"a": 0, "b": 0}
    torn: List[tuple] = []
    writers_done = threading.Event()
    rounds, n_writers = 300, 4

    def writer():
        for _ in range(rounds):
            with lock.write_locked():
                seen = state["a"]
                state["a"] = seen + 1
                with lock.read_locked():  # re-entry must not admit anyone
                    time.sleep(0)
                state["b"] = state["b"] + 1

    def reader():
        while not writers_done.is_set():
            with lock.read_locked():
                a = state["a"]
                time.sleep(0)  # dwell: let a wrongly admitted writer run
                b = state["b"]
                if a != b:
                    torn.append((a, b))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [_started(reader) for _ in range(4)]
        writers = [_started(writer) for _ in range(n_writers)]
        for thread in writers:
            thread.join(timeout=30)
        writers_done.set()
        for thread in writers + readers:
            _joined(thread)
    finally:
        sys.setswitchinterval(interval)
    assert state == {"a": rounds * n_writers, "b": rounds * n_writers}
    assert torn == []
    assert lock._readers == 0 and lock._writer_thread is None


def test_exclusive_held_across_two_calls_lets_batch_through():
    # The cluster's 2PC shape: prepare enters exclusive(), a later call
    # on the same thread commits through batch(), a third releases.
    from contextlib import ExitStack

    server = disjoint_server(shards=2)
    held = ExitStack()
    held.enter_context(server.exclusive())
    outsider_done = threading.Event()

    def outsider():
        server.insert("E1", (9, 9))
        outsider_done.set()

    thread = _started(outsider)
    stats = server.batch([insert("E0", (1, 1)), insert("T0", (1,))])
    assert stats["applied"] == 2 and server.count("v0") == 1
    assert not outsider_done.wait(timeout=0.05)
    held.close()
    assert outsider_done.wait(timeout=5)
    _joined(thread)


def test_view_registered_between_route_read_and_lock_is_revalidated():
    # The registration race, made deterministic: just before apply()
    # takes shard 0 for E, a view() widens E's shard set to (0, 1).
    # The write must notice, retry, and hold *both* shards while the
    # session fans it out.
    server = Server(shards=2)
    server.view("a", "A(x, y) :- E(x, y)")  # shard 0
    me = threading.get_ident()
    held_during_delivery: List[bool] = []

    def widen():
        server.view("b", "B(x) :- E(x, x)")  # shard 1, shares E
        server.subscribe(
            "b",
            callback=lambda delta: held_during_delivery.append(
                all(lock._writer_thread == me for lock in server._shards)
            ),
        )

    fired: List[bool] = []
    lock = server._shards[0]
    for entry in ("acquire_write", "write_locked"):
        original = getattr(lock, entry, None)
        if original is None:
            continue

        def once(*args, _original=original):
            if not fired:
                fired.append(True)
                widen()
            return _original(*args)

        setattr(lock, entry, once)

    assert server.insert("E", (3, 3))
    assert fired and held_during_delivery == [True]
    assert server.count("a") == 1 and server.count("b") == 1
    assert server.shard_of("b") == 1
