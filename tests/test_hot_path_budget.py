"""A served operation costs its engine call plus a bounded number of
Python frames.

Counts Python-level ``call`` events (``sys.setprofile``) around one
warmed, subscribed ``Server.apply`` and one ``Server.count`` — a count,
not a timer, so it repeats exactly and cannot flake on a shared box.
The cyclic collector is held off while counting: a generation-0 pass
lands wherever the process's allocation count happens to cross its
threshold, and its ``gc.callbacks`` hook adds frames that belong to the
process's history, not to the path.
The path measures 20 and 8 calls (the parent of the flattening: 52 and
24); the budgets leave a few frames of slack for interpreter
differences, and a context-manager generator (six calls), an
``ExitStack`` or a per-write helper creeping back onto the per-command
path overshoots them.

Reads have budgets too.  A page is one generator resume per tuple —
the generated Algorithm 1 walker — plus a constant for the server,
cursor and probe frames around it: ``Server.fetch(cursor, 64)``
measures 76 calls (the recursive-generator parent: 983) and
``Server.open_cursor`` 20 (37), so a per-level generator frame, a
genexpr per tuple or a per-value property call coming back trips the
page budget at once.

A batch has a budget as well: ``Session.apply_all`` over views nobody
watches is one generated-runner call per (command, plan of its
relation) plus a constant per call — the fold's own frames, one
``apply_net`` per view, the publish phase.  Frames the runners
themselves push (item construction, fit-list appends) are the update,
not the path, and are not counted.  300 dense commands measure their
740 runner calls + 55; an ``apply``/``insert``/``_deliver``/
``Database.insert`` frame per command coming back adds 300 or more, and
a stream that is its own undo makes no runner call at all.

The session's store is the only store: a ``Session.apply`` writes it
once — one ``storage/database.py`` frame whether one view or nine read
the relation — and the engines take the effective command without a
store write or a second set-semantics check of their own.

A cluster read has two budgets, one per side of the socket: the
calls a warmed, traced ``ClusterClient.count`` makes on the calling
thread (the RPC, its span and histogram, the multiplexed round trip,
the codec) and the calls the worker's threads make to serve it (read
the frame, answer the count on the thread that read it, reply, read
on).  They measure 21 and 26 calls (the parent of the lean read path:
46 and 48); a per-request lock, histogram lookup, dict copy or id
syscall helper coming back, or a count handed to a second receiver
thread, overshoots them.

A bound read buys no write: after ``view.cursor(x=5)`` on a view where
``x`` sits below an unbound q-tree ancestor, an update makes exactly
the calls it made before, at every |D|, and a batch still nets the
view.  The skewed ``E(i, 0), T(0)`` state makes one toggle of ``T(0)``
flip every output row, so any per-row state kept for the binding shows
as calls that grow with |D|.
"""

import gc
import os
import sys
import threading
import time

from repro import Session
from repro.cq import zoo
from repro.serve import Server
from repro.serve.cluster import ClusterClient, _WorkerHost
from repro.storage.updates import delete, insert

APPLY_BUDGET = 24
COUNT_BUDGET = 10
PAGE = 64
FETCH_BUDGET = PAGE + 16
OPEN_BUDGET = 24
BATCH_BUDGET = 64
CLUSTER_CLIENT_BUDGET = 26
CLUSTER_WORKER_BUDGET = 30


def profiled(profiler, operation, *args):
    """Run ``operation`` under ``profiler`` with the cyclic collector
    held off, so that no collector pass (and its callbacks) lands in
    the count."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        operation(*args)
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()


def python_calls(operation, *args, where=lambda code: True):
    """Python-level calls made by ``operation`` (those whose code object
    satisfies ``where``)."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and where(frame.f_code):
            calls += 1

    profiled(profiler, operation, *args)
    return calls


def test_subscribed_apply_and_count_stay_within_their_frame_budgets():
    server = Server(shards=2)
    server.view("v", zoo.E_T_QF)
    seen = []
    server.subscribe("v", callback=seen.append)
    server.insert("T", (1,))
    moves_one_tuple = insert("E", (7, 1))
    # Warm the path: lazy imports, item-trie nodes, method caches.
    server.apply(moves_one_tuple)
    server.apply(delete("E", (7, 1)))
    server.count("v")
    del seen[:]

    apply_calls = python_calls(server.apply, moves_one_tuple)
    assert [d.added for d in seen] == [((7, 1),)]
    count_calls = python_calls(server.count, "v")
    assert server.count("v") == 1

    assert apply_calls <= APPLY_BUDGET, apply_calls
    assert count_calls <= COUNT_BUDGET, count_calls


def test_a_page_is_one_resume_per_tuple_and_an_open_stays_in_budget():
    server = Server(shards=2)
    server.view("v", zoo.EXAMPLE_6_1)  # five free variables, depth three
    for x in range(3):
        for y in range(3):
            server.insert("E", (x, y))
            for z in range(3):
                server.insert("R", (x, y, z))
                server.insert("S", (x, y, z))
    assert server.count("v") > 3 * PAGE
    # Warm the path, as above.
    server.fetch(server.open_cursor("v"), PAGE)

    opened = []
    open_calls = python_calls(lambda: opened.append(server.open_cursor("v")))
    first_page_calls = python_calls(server.fetch, opened[0], PAGE)
    next_page_calls = python_calls(server.fetch, opened[0], PAGE)
    assert server.cursor_state(opened[0]).fetched == 2 * PAGE

    assert open_calls - 1 <= OPEN_BUDGET, open_calls  # minus the lambda
    assert first_page_calls <= FETCH_BUDGET, first_page_calls
    assert next_page_calls <= FETCH_BUDGET, next_page_calls


def test_a_cluster_count_stays_within_its_frame_budgets(tmp_path):
    # Worker threads start after this, so each inherits the profiler;
    # it counts only while armed, and only on the worker's threads.
    armed = False
    worker_calls = 0

    def on_worker(frame, event, arg):
        nonlocal worker_calls
        if (
            armed
            and event == "call"
            and threading.current_thread().name.startswith("repro-shard-")
        ):
            worker_calls += 1

    def count_and_settle(client):
        nonlocal armed
        armed = True
        assert client.count("v") == 1
        time.sleep(0.1)  # the worker reads on after its reply: let it block
        armed = False

    threading.setprofile(on_worker)
    host = _WorkerHost(0, str(tmp_path))
    try:
        threading.Thread(target=host.run, daemon=True).start()
        with ClusterClient(addresses=[host.address]) as client:
            client.view("v", "Q(x, y) :- E(x, y), T(y)")
            client.insert("T", (1,))
            client.insert("E", (7, 1))
            for _ in range(3):  # warm the path on both sides
                client.count("v")
            sides = []
            # A connection's receiver threads finish starting up in the
            # background; a late one adds its start-up calls to one
            # round, so the least of three rounds is the path's count.
            for _ in range(3):
                worker_calls = 0
                client_calls = python_calls(count_and_settle, client) - 1
                sides.append((client_calls, worker_calls))
            histograms = client.metrics()["merged"]["histograms"]
            assert histograms['repro_rpc_seconds{op="count"}']["count"] == 6
            assert histograms['repro_worker_op_seconds{op="count"}']["count"] == 6
    finally:
        threading.setprofile(None)
        host.stop()

    client_calls = min(calls for calls, _ in sides)
    worker_calls = min(calls for _, calls in sides)
    assert client_calls <= CLUSTER_CLIENT_BUDGET, sides
    assert worker_calls <= CLUSTER_WORKER_BUDGET, sides


def calls_around_runners(operation, *args):
    """(generated-runner calls, every other Python call made outside a
    runner) during ``operation``."""
    runners = others = inside = 0

    def profiler(frame, event, arg):
        nonlocal runners, others, inside
        if event == "call":
            if inside:
                inside += 1
            elif frame.f_code.co_name == "_runner":
                runners += 1
                inside = 1
            else:
                others += 1
        elif event == "return" and inside:
            inside -= 1

    profiled(profiler, operation, *args)
    return runners, others


def test_a_batch_is_its_runner_calls_plus_a_constant():
    session = Session()
    views = [
        session.view("et", zoo.E_T_QF),
        session.view("rre", zoo.HIERARCHICAL_RRE),  # R and E twice each
    ]
    width = {}
    for view in views:
        for relation, plans in view.explain().stats["dispatch_width"].items():
            width[relation] = width.get(relation, 0) + plans
    assert width == {"E": 3, "T": 1, "R": 2}
    # Warm the path: lazy imports, probe instruments, method caches.
    session.apply_all([insert("T", (0,)), insert("E", (0, 0)), insert("R", (0, 0, 0))])

    dense = (
        [insert("E", (x, x % 5)) for x in range(1, 151)]
        + [insert("R", (x, x % 5, 1)) for x in range(1, 141)]
        + [insert("T", (y,)) for y in range(1, 11)]
    )
    runners, others = calls_around_runners(session.apply_all, dense)
    assert runners == sum(width[command.relation] for command in dense) == 740
    assert others <= BATCH_BUDGET, others

    undone = [command.inverse() for command in reversed(dense)] + dense
    runners, others = calls_around_runners(session.apply_all, undone)
    assert (runners, session["et"].count()) == (0, 151)
    assert others <= BATCH_BUDGET, others
    assert session["et"].epoch == 2 + 3 * 160


def skewed_session(size):
    """``Q(x, y) :- E(x, y), T(y)`` over ``E(i, 0)`` for ``i < size``
    and ``T(0)``: toggling ``T(0)`` flips every output row."""
    session = Session()
    view = session.view("v", "Q(x, y) :- E(x, y), T(y)")
    session.apply_all(
        [insert("E", (i, 0)) for i in range(size)] + [insert("T", (0,))]
    )
    return session, view


def toggle_calls(session):
    """Calls of one unsubscribed ``delete T(0)``; T(0) is put back."""
    calls = python_calls(session.apply, delete("T", (0,)))
    session.apply(insert("T", (0,)))
    return calls


def test_a_bound_read_leaves_the_update_path_as_it_was():
    toggles = []
    for size in (100, 10_000):
        session, view = skewed_session(size)
        toggle_calls(session)  # warm the path, as above
        before = toggle_calls(session)
        # x sits below the unbound root y: the read is probed, not pinned
        assert view.cursor(x=5).fetch_all() == [(5, 0)]
        assert [p.mode for p in view.access_patterns] == ["probed"]
        after = toggle_calls(session)
        assert after == before, (size, before, after)
        toggles.append(before)

        # ... and the view is still netted: a batch over it is its
        # runner calls plus a constant, not one delivery per command.
        batch = [delete("T", (0,)), insert("E", (size, 0)), insert("T", (0,))]
        runners, others = calls_around_runners(session.apply_all, batch)
        assert runners == 1  # T(0) nets away; per command it would be 3
        assert others <= BATCH_BUDGET, others
        assert view.count() == size + 1
    assert toggles[0] == toggles[1], toggles


STORE_FILE = os.path.join("storage", "database.py")

#: One relation E read by a q-hierarchical, a delta-IVM and a union view.
E_VIEWS = (
    "Q(x, y) :- E(x, y), T(y)",
    "Q(x, y) :- S(x), E(x, y), T(y)",
    "Q(x, y) :- E(x, y), T(y); Q(x, y) :- E(x, y), U(y)",
)


def test_one_store_write_per_command_for_any_number_of_views():
    for k in (1, 3, 9):
        session = Session()
        views = [
            session.view(f"v{i}", E_VIEWS[i % len(E_VIEWS)]) for i in range(k)
        ]
        seen = []
        views[0].subscribe(callback=seen.append)
        seeds = {"T": (2,), "U": (2,), "S": (1,)}
        session.apply_all(
            insert(relation, seeds[relation])
            for relation in session.relations
            if relation in seeds
        )
        command = insert("E", (1, 2))
        session.apply(command)  # warm the path
        session.apply(command.inverse())

        writes = python_calls(
            session.apply,
            command,
            where=lambda code: code.co_filename.endswith(STORE_FILE),
        )
        assert writes == 1, (k, writes)
        assert all(view.result_set() == {(1, 2)} for view in views), k
        assert seen[-1].added == ((1, 2),)


def test_every_engine_of_a_session_reads_its_one_store():
    session = Session()
    plain = session.view("plain", E_VIEWS[0])
    hard = session.view("hard", E_VIEWS[1])
    union = session.view("union", E_VIEWS[2])
    store = session._db
    sub_engines = list(union.engine._engines) + list(
        union.engine._intersections.values()
    )
    assert len(sub_engines) == 3  # two disjuncts, one intersection
    for engine in [plain.engine, hard.engine, union.engine] + sub_engines:
        assert engine.database is store
