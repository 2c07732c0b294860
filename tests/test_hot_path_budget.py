"""A served operation costs its engine call plus a bounded number of
Python frames.

Counts Python-level ``call`` events (``sys.setprofile``) around one
warmed, subscribed ``Server.apply`` and one ``Server.count`` — a count,
not a timer, so it repeats exactly and cannot flake on a shared box.
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

A bound read buys no write: after ``view.cursor(x=5)`` on a view where
``x`` sits below an unbound q-tree ancestor, an update makes exactly
the calls it made before, at every |D|, and a batch still nets the
view.  The skewed ``E(i, 0), T(0)`` state makes one toggle of ``T(0)``
flip every output row, so any per-row state kept for the binding shows
as calls that grow with |D|.
"""

import sys

from repro import Session
from repro.cq import zoo
from repro.serve import Server
from repro.storage.updates import delete, insert

APPLY_BUDGET = 24
COUNT_BUDGET = 10
PAGE = 64
FETCH_BUDGET = PAGE + 16
OPEN_BUDGET = 24
BATCH_BUDGET = 64


def python_calls(operation, *args):
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        operation(*args)
    finally:
        sys.setprofile(None)
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

    sys.setprofile(profiler)
    try:
        operation(*args)
    finally:
        sys.setprofile(None)
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
