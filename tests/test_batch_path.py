"""``Session.apply_all`` against per-command ``apply``, differentially.

One batch path serves ``Session.apply_all``, ``Server.apply_all``,
``Batch._commit`` and ``Session.ingest``: effectiveness is decided once
against the session store, watched views (a subscriber, a bound
subscriber, an open cursor, a binding index) get every effective
command in stream order, and every other view takes the stream's net
effect in one ``apply_net`` when the call ends.  The properties below
hold that path to the per-command one on everything a caller can
observe — results, counts, epochs, active domains, the store, the
update counters, the ``Delta`` sequences and the cursor verdicts — over
random streams dense in duplicates, no-ops and insert/delete/insert
chains on one row, and to ``eval_static.naive`` on the state itself.
"""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import Server, Session
from repro.errors import (
    CursorInvalidatedError,
    EngineStateError,
    SchemaError,
    UpdateError,
)
from repro.eval_static.naive import evaluate as evaluate_naive
from repro.storage.updates import UpdateCommand, delete, insert

#: Four engines' worth of views over three shared relations.
VIEWS = {
    "qh": ("Q(x, y) :- E(x, y), T(y)", "qhierarchical"),
    "prod": ("P(x, z) :- S(x), T(z)", "qhierarchical"),  # two components
    "ivm": ("H(x, y) :- S(x), E(x, y), T(y)", "delta_ivm"),
    "ucq": ("U(x) :- S(x); U(x) :- T(x)", "ucq_union"),
}
ARITY = {"E": 2, "S": 1, "T": 1}

# A domain of three values per position: most commands repeat a row some
# earlier command touched, so streams are full of no-ops and chains.
values = st.integers(min_value=1, max_value=3)
commands = st.builds(
    lambda is_insert, relation, a, b: (insert if is_insert else delete)(
        relation, (a, b)[: ARITY[relation]]
    ),
    st.booleans(),
    st.sampled_from(sorted(ARITY)),
    values,
    values,
)
streams = st.lists(commands, max_size=60)


def build(front=Session):
    door = front()
    for name, (text, engine) in VIEWS.items():
        door.view(name, text)
    session = door.session if front is Server else door
    for name, (_text, engine) in VIEWS.items():
        assert session[name].engine_name == engine
    return door


def oracle(view, database):
    disjuncts = getattr(view.query, "disjuncts", None) or [view.query]
    rows = set()
    for query in disjuncts:
        rows |= evaluate_naive(query, database)
    return rows


def observable(session):
    """Everything the two paths must agree on."""
    views = {
        view.name: (
            view.result_set(),
            view.count(),
            view.answer(),
            view.epoch,
            view.engine.active_domain_size,
            view.result_digest(),
        )
        for view in session.views
    }
    store = {relation: session.rows(relation) for relation in session.relations}
    counters = {
        key: value
        for key, value in session.metrics.snapshot()["counters"].items()
        if key.startswith("repro_engine_updates_total")
    }
    return views, store, counters


def assert_matches_oracle(session):
    database = session.database
    for view in session.views:
        assert view.result_set() == oracle(view, database), view.name


def slices(stream, cuts):
    bounds = sorted({min(cut, len(stream)) for cut in cuts} | {0, len(stream)})
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=60, deadline=None)
@given(stream=streams, cuts=st.lists(st.integers(0, 60), max_size=5))
def test_one_call_slices_and_single_applies_agree(stream, cuts):
    single, whole, sliced = build(), build(), build()
    flags = [single.apply(command) for command in stream]
    assert whole.apply_all(stream) == sum(flags)
    assert sum(sliced.apply_all(part) for part in slices(stream, cuts)) == sum(flags)
    expected = observable(single)
    assert observable(whole) == expected
    assert observable(sliced) == expected
    assert_matches_oracle(whole)


@settings(max_examples=30, deadline=None)
@given(stream=streams, extra=streams)
def test_a_stream_and_its_undo_move_epochs_and_counters_but_no_row(stream, extra):
    single, batched, scout = build(), build(), build()
    for session in (single, batched, scout):
        session.apply_all(stream)
    flags = []
    scout.apply_all(extra, flags)
    forward = [command for command, changed in zip(extra, flags) if changed]
    round_trip = forward + [command.inverse() for command in reversed(forward)]
    rows_before = observable(batched)[1]
    epochs_before = {view.name: view.epoch for view in batched.views}
    for command in round_trip:
        assert single.apply(command)
    assert batched.apply_all(round_trip) == len(round_trip)
    assert observable(batched) == observable(single)
    assert observable(batched)[1] == rows_before
    for view in batched.views:
        touching = sum(c.relation in view.query.relations for c in round_trip)
        assert view.epoch == epochs_before[view.name] + touching


class Watcher:
    """A watched view's consumers: a callback subscriber, a bound
    subscriber, a plain cursor and a snapshot cursor (two rows fetched
    from each before the stream)."""

    def __init__(self, session, name, bound):
        view = session[name]
        self.deltas, self.bound_deltas = [], []
        view.subscribe(callback=self.deltas.append)
        view.subscribe(callback=self.bound_deltas.append, binding=bound)
        self.plain = view.cursor()
        self.pinned = view.cursor(snapshot=True)
        self.before = view.result_set()
        self.head = (self.plain.fetch(2), self.pinned.fetch(2))

    def verdict(self):
        """What the cursors say after the stream."""
        try:
            plain = ("rows", sorted(self.plain.fetch_all()), self.plain.revalidations)
        except CursorInvalidatedError as error:
            report = error.invalidation
            plain = ("invalid", report.command, report.invalidated_epoch, report.fetched)
        return (
            self.head,
            plain,
            sorted(self.pinned.fetch_all()),
            [_delta_key(delta) for delta in self.deltas],
            [_delta_key(delta) for delta in self.bound_deltas],
        )


def _delta_key(delta):
    return (
        delta.view,
        delta.epoch,
        delta.command,
        delta.added,
        delta.removed,
        tuple(sorted((delta.binding or {}).items())),
    )


SEED_ROWS = [
    insert("T", (1,)),
    insert("T", (2,)),
    insert("S", (1,)),
    insert("E", (1, 1)),
    insert("E", (2, 1)),
    insert("E", (3, 2)),
    insert("E", (1, 2)),
]


@settings(max_examples=60, deadline=None)
@given(stream=streams, watched=st.sampled_from(sorted(VIEWS)))
def test_a_watched_view_sees_every_delta_while_the_others_net(stream, watched):
    bound = {"qh": {"y": 1}, "prod": {"z": 1}, "ivm": {"y": 1}, "ucq": {"x": 1}}[watched]
    single, batched = build(), build()
    watchers = []
    for session in (single, batched):
        session.apply_all(SEED_ROWS)
        watchers.append(Watcher(session, watched, bound))
    for command in stream:
        single.apply(command)
    batched.apply_all(stream)
    verdict = watchers[1].verdict()  # drains the cursors: read once
    assert verdict == watchers[0].verdict()
    # The snapshot cursor pinned the pre-stream result on both.
    assert set(watchers[1].head[1]) | set(verdict[2]) == watchers[1].before
    assert observable(batched) == observable(single)
    assert_matches_oracle(batched)
    # Replaying the unbound deltas reproduces the result.
    replica = set(watchers[1].before)
    for delta in watchers[1].deltas:
        replica |= set(delta.added)
        replica -= set(delta.removed)
    assert replica == batched[watched].result_set()


BAD = {
    "arity": (insert("E", (1,)), UpdateError),
    "relation": (UpdateCommand("insert", "Nope", (1,)), SchemaError),
}


@settings(max_examples=40, deadline=None)
@given(
    stream=streams,
    position=st.integers(0, 60),
    kind=st.sampled_from(sorted(BAD)),
    front=st.sampled_from([Session, Server]),
)
def test_a_bad_command_leaves_exactly_the_applied_prefix(stream, position, kind, front):
    position = min(position, len(stream))
    bad, error = BAD[kind]
    poisoned = stream[:position] + [bad] + stream[position:]
    reference = build()
    for command in stream[:position]:
        reference.apply(command)
    with pytest.raises(error):
        reference.apply(bad)
    door = build(front)
    with pytest.raises(error):
        door.apply_all(poisoned)
    session = door.session if front is Server else door
    assert observable(session) == observable(reference)
    assert_matches_oracle(session)
    if front is Server:
        assert door.writes == position + 1


@settings(max_examples=40, deadline=None)
@given(stream=streams, cuts=st.lists(st.integers(0, 60), max_size=3))
def test_server_apply_all_flags_and_batch_agree_with_single_applies(stream, cuts):
    single, chunked, batched = build(Server), build(Server), build(Server)
    seen = {door: [] for door in (single, chunked)}
    for door, log in seen.items():
        door.subscribe("qh", callback=log.append)  # qh watched, the rest net
    flags = [single.apply(command) for command in stream]
    got = []
    for part in slices(stream, cuts):
        got.extend(chunked.apply_all(part))
    assert got == flags
    assert chunked.writes == single.writes == len(stream)
    assert observable(chunked.session) == observable(single.session)
    assert [_delta_key(d) for d in seen[chunked]] == [
        _delta_key(d) for d in seen[single]
    ]
    # A transactional batch nets first: same rows, same results, its
    # epochs move by the net only.
    stats = batched.batch(stream)
    assert stats["buffered"] == len(stream)
    assert stats["net"] == stats["applied"] <= sum(flags)
    assert observable(batched.session)[1] == observable(single.session)[1]
    for view in batched.session.views:
        assert view.result_set() == single.session[view.name].result_set()
    assert_matches_oracle(batched.session)


def test_batch_stats_and_ingest_ride_the_same_path():
    session = build()
    session.apply_all([insert("T", (1,)), insert("E", (5, 1))])
    with session.batch() as batch:
        batch.insert("E", (1, 1)).insert("E", (2, 1)).delete("E", (2, 1))
        batch.insert("T", (1,)).delete("E", (5, 1))
    assert batch.stats == {"buffered": 5, "net": 2, "applied": 2}
    assert session["qh"].result_set() == {(1, 1)}
    assert session["qh"].epoch == 4

    other = build()
    assert other.ingest(session.database) == session.cardinality
    assert observable(other)[1] == observable(session)[1]
    assert_matches_oracle(other)


def test_apply_all_inside_an_open_batch_raises_before_touching_anything():
    session = build()
    with session.batch():
        with pytest.raises(EngineStateError):
            session.apply_all([insert("T", (1,))])
    assert session.cardinality == 0
    assert session["qh"].epoch == 0


def test_an_empty_stream_returns_zero_and_bumps_no_epoch():
    session = build()
    assert session.apply_all([]) == 0
    assert session.apply_all(iter(())) == 0
    assert {view.epoch for view in session.views} == {0}
    assert build(Server).apply_all([]) == []


def test_a_cursor_or_subscription_opened_mid_call_is_settled_at_fan_out():
    """qh is watched; prod is not.  qh's callback opens a plain cursor, a
    snapshot cursor and a subscription on prod while prod still lags the
    store: none may be left walking a structure that moves under it."""
    session = build()
    session.apply_all([insert("S", (1,)), insert("T", (1,)), insert("T", (2,))])
    prod = session["prod"]
    opened = {}

    def on_delta(delta):
        if not opened:
            opened["plain"] = prod.cursor()
            opened["pinned"] = prod.cursor(snapshot=True)
            opened["rows"] = opened["plain"].fetch(1) + opened["pinned"].fetch(1)
            opened["deltas"] = []
            prod.subscribe(callback=opened["deltas"].append)

    session["qh"].subscribe(callback=on_delta)
    # S comes first: prod is classed (unwatched) before the callback runs.
    stream = [insert("S", (2,)), insert("E", (7, 1)), delete("T", (2,))]
    session.apply_all(stream)

    # Opened mid-call over the pre-call state of the lagging view.
    assert set(opened["rows"]) <= {(1, 1), (1, 2)}
    assert prod.result_set() == {(1, 1), (2, 1)}
    with pytest.raises(CursorInvalidatedError) as caught:
        opened["plain"].fetch(1)
    assert caught.value.invalidation.command == stream[-1]
    assert caught.value.invalidation.invalidated_epoch == prod.epoch
    pinned = opened["rows"][1:] + opened["pinned"].fetch_all()
    assert sorted(pinned) == [(1, 1), (1, 2)]
    # The subscription starts from the post-call state.
    assert opened["deltas"] == []
    session.apply(insert("S", (3,)))
    assert [d.added for d in opened["deltas"]] == [((3, 1),)]
    assert_matches_oracle(session)


def test_a_mid_call_cursor_is_invalidated_by_the_last_applied_command():
    """The stream ends in a no-op and a command that raises: neither was
    applied, so neither may be named as what invalidated the cursor."""
    session = build()
    session.apply_all([insert("S", (1,)), insert("T", (1,))])
    prod = session["prod"]
    opened = []
    session["qh"].subscribe(
        callback=lambda delta: opened or opened.append(prod.cursor())
    )
    applied = [insert("S", (2,)), insert("E", (7, 1)), insert("T", (2,))]
    with pytest.raises(UpdateError):
        session.apply_all(applied + [insert("T", (2,)), insert("T", (1, 2))])
    assert prod.result_set() == {(1, 1), (1, 2), (2, 1), (2, 2)}
    with pytest.raises(CursorInvalidatedError) as caught:
        opened[0].fetch(1)
    assert caught.value.invalidation.command == applied[-1]


def test_a_callback_cannot_write_or_change_the_views_mid_call():
    session = build()
    errors = []

    def on_delta(delta):
        for attempt in (
            lambda: session.apply(insert("S", (9,))),
            lambda: session.apply_all([insert("S", (9,))]),
            lambda: session.view("late", "L(x) :- S(x)"),
            lambda: session.drop_view("prod"),
        ):
            with pytest.raises(EngineStateError) as caught:
                attempt()
            errors.append(str(caught.value))

    session["qh"].subscribe(callback=on_delta)
    assert session.apply_all([insert("T", (1,)), insert("E", (1, 1))]) == 2
    assert len(errors) == 4 and all("apply_all is running" in e for e in errors)
    assert "prod" in session
    assert session.rows("S") == set()
    # The guard is released afterwards, also when the stream raised.
    with pytest.raises(SchemaError):
        session.apply_all([UpdateCommand("insert", "Nope", (1,))])
    assert session.apply(insert("S", (9,)))


def test_streams_on_disjoint_shards_of_one_session_do_not_turn_each_other_away():
    """A sharded server runs writers over disjoint relations in parallel
    on one session; the callback guard is per thread.  The left stream
    is parked mid-call (inside a subscriber callback) while the right
    side applies single commands and a whole stream, then the roles
    swap — every call must succeed and every view match the oracle."""
    server = Server(shards=2)
    for side in ("l", "r"):
        server.view(f"{side}_seen", f"Q(x, y) :- E{side}(x, y), T{side}(y)")
    for side in ("l", "r"):
        server.view(f"{side}_quiet", f"P(x) :- E{side}(x, y), T{side}(y)")
    shards = {side: server.shard_of(f"{side}_seen") for side in "lr"}
    assert shards["l"] != shards["r"]
    assert all(server.shard_of(f"{s}_quiet") == shards[s] for s in "lr")

    def stream(side, base):
        return [insert(f"T{side}", (0,))] + [
            insert(f"E{side}", (base + i, 0)) for i in range(8)
        ]

    parked = {side: threading.Event() for side in "lr"}
    release = {side: threading.Event() for side in "lr"}
    errors = []

    def park(side):
        def on_delta(delta):
            if not parked[side].is_set():
                parked[side].set()
                assert release[side].wait(10)
        return on_delta

    def parked_stream(side):
        try:
            assert all(server.apply_all(stream(side, 0)))
        except BaseException as error:  # surfaced on the main thread
            errors.append(error)
            release[side].set()

    for side, other in (("l", "r"), ("r", "l")):
        server.subscribe(f"{side}_seen", callback=park(side))
        thread = threading.Thread(target=parked_stream, args=(side,))
        thread.start()
        assert parked[side].wait(10)
        try:
            rows = stream(other, 100)[1:]
            assert server.apply(insert(f"E{other}", (99, 0)))
            assert server.apply_all(rows * 2) == [True] * 8 + [False] * 8
            assert server.apply(delete(f"E{other}", (99, 0)))
        finally:
            release[side].set()
            thread.join(10)
        assert not thread.is_alive() and not errors
    session = server.session
    assert_matches_oracle(session)
    assert session["l_quiet"].count() == session["r_quiet"].count() == 16


def test_a_binding_index_keeps_a_view_on_the_per_command_path():
    session = build()
    # x sits below y in the q-tree: binding it needs a maintained index.
    session.view("idx", "I(x, y) :- E(x, y), T(y)", access={"x"})
    assert session["idx"].engine.access_patterns == (("x",),)
    assert session["idx"]._watched() and not session["qh"]._watched()
    session.apply_all(
        [insert("T", (1,)), insert("E", (1, 1)), insert("E", (2, 1)), delete("E", (1, 1))]
    )
    assert list(session["idx"].enumerate_bound(x=2)) == [(2, 1)]
    assert list(session["idx"].enumerate_bound(x=1)) == []
    assert session["idx"].epoch == session["qh"].epoch == 4


def test_a_binding_index_registered_mid_call_is_maintained_by_the_fan_out():
    session = Session()
    session.view("w", "W(x) :- S(x)")
    idx = session.view("idx", "I(x, y) :- E(x, y), T(y)")
    session.apply_all([insert("T", (1,)), insert("E", (1, 1))])
    probed = []
    session["w"].subscribe(
        callback=lambda delta: probed.append(list(idx.enumerate_bound(x=2)))
    )
    # idx is classed unwatched at T(2); the callback then builds its
    # binding index over the lagging state, with E(2, 1) still pending.
    session.apply_all(
        [insert("T", (2,)), insert("E", (2, 1)), insert("S", (1,)), delete("E", (1, 1))]
    )
    assert probed == [[]]
    assert idx.engine.access_patterns == (("x",),)
    assert list(idx.enumerate_bound(x=2)) == [(2, 1)]
    assert list(idx.enumerate_bound(x=1)) == []
    assert idx.epoch == 5  # S(1) does not touch it
    assert_matches_oracle(session)


def _per_command(engine, commands):
    return sum(engine.apply(c) for c in commands)


def _engine_batch(engine, commands):
    return engine.apply_all(commands)


# Which engine surface takes the later batch: "python" runs the
# per-tuple runners one engine.apply at a time; "auto" hands the batch
# to engine.apply_all, which nets it unless a binding index forces the
# per-command path.
@pytest.mark.parametrize("later", [_per_command, _engine_batch], ids=["python", "auto"])
def test_netted_views_agree_across_backends_and_with_later_engine_batches(later):
    session, single = Session(), Session()
    for door in (session, single):
        door.view("star", "V(x, a, b) :- S(x), E1(x, a), E2(x, b)")
    stream = (
        [insert("S", (i,)) for i in range(8)]
        + [insert("E1", (i % 8, i)) for i in range(200)]
        + [insert("E2", (i % 8, i)) for i in range(40)]
        + [delete("E1", (i % 8, i)) for i in range(0, 200, 3)]
    )
    assert session.apply_all(stream) == sum(single.apply(c) for c in stream)
    assert observable(session) == observable(single)
    # The engine's own batch surface keeps working on the netted state.
    more = [insert("E1", (i % 8, 1000 + i)) for i in range(100)]
    assert later(session["star"].engine, more) == 100
    assert later(single["star"].engine, more) == 100
    assert session["star"].result_set() == single["star"].result_set()
    assert session["star"].count() == single["star"].count()
