"""The serving layer: cursors, delta subscriptions, dispatcher.

Three invariant families, all differential:

* **delta correctness** — for every engine kind,
  ``apply_with_delta`` must report exactly
  ``result_set(after) − result_set(before)`` / the reverse, on
  randomized effective streams (the O(δ) touched-path derivation of the
  q-hierarchical engine versus the brute-force diff oracle);
* **cursor semantics** — interleaving fetch/update/fetch yields either
  a safe resume (update elsewhere), a precise
  :class:`CursorInvalidatedError` (plain cursor), or the pinned
  pre-update result (snapshot cursor) — never silent garbage;
* **bound enumeration** — pinned q-tree prefixes and filtered bindings
  agree with brute-force filtering of the full result, and the
  pointer-walking Algorithm 1 agrees with the generator rendering.

Plus the bulk-preprocessing satellites: the one generated bulk loader
and the union / delta-IVM bulk preloads must be state-identical to
their replay baselines.
"""

import itertools
import random
import threading

import pytest

from conftest import random_stream
from reference_engine import ReferenceEngine
from repro.api import Session
from repro.core.engine import QHierarchicalEngine
from repro.core.enumeration import algorithm1
from repro.core.plans import compile_relation_loader
from repro.cq import zoo
from repro.cq.parser import parse_query
from repro.errors import (
    CursorInvalidatedError,
    EngineStateError,
    QueryStructureError,
)
from repro.extensions.ucq import UnionEngine, parse_union
from repro.ivm.delta import DeltaIVMEngine
from repro.ivm.recompute import RecomputeEngine
from repro.serve import Server
from repro.storage.database import Database
from repro.storage.updates import delete, insert
from repro.workloads.distributions import UniformDomain
from repro.workloads.streams import insert_only_stream

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

UNION_TEXT = "A(x, y) :- R(x, y), S(x)\nA(x, y) :- T(x, y)"


def union_stream(union, rng, rounds=200, domain=6):
    relations = [(r, union.arity_of(r)) for r in union.relations]
    live = set()
    commands = []
    for _ in range(rounds):
        name, arity = rng.choice(relations)
        candidates = sorted(t for t in live if t[0] == name)
        if candidates and rng.random() < 0.35:
            chosen = rng.choice(candidates)
            live.discard(chosen)
            commands.append(delete(name, chosen[1]))
        else:
            row = tuple(rng.randint(1, domain) for _ in range(arity))
            live.add((name, row))
            commands.append(insert(name, row))
    return commands


# ---------------------------------------------------------------------------
# apply_with_delta ≡ result_set diff (every engine kind)
# ---------------------------------------------------------------------------

DELTA_QUERIES = [
    "E_T_QF",
    "E_T_BOOLEAN",
    "E_T_Y_QUANTIFIED",
    "EXAMPLE_6_1",
    "HIERARCHICAL_RRE",
    "FIGURE_1",
]


@pytest.mark.parametrize("name", DELTA_QUERIES)
@pytest.mark.parametrize("compiled", [True, False])
def test_qhierarchical_delta_matches_result_diff(name, compiled):
    # compiled=False: the delta read off the reference oracle's loop.
    query = zoo.PAPER_QUERIES[name]
    engine = (QHierarchicalEngine if compiled else ReferenceEngine)(query)
    oracle = QHierarchicalEngine(query)
    rng = random.Random(hash(name) % 1000 + compiled)
    for command in random_stream(query, rng, rounds=200, domain=6):
        before = oracle.result_set()
        oracle.apply(command)
        after = oracle.result_set()
        added, removed = engine.apply_with_delta(command)
        assert set(added) == after - before
        assert set(removed) == before - after
        assert len(set(added)) == len(added)  # duplicate-free
        assert len(set(removed)) == len(removed)
        assert not (added and removed)  # single-tuple commands are monotone


def test_disconnected_query_delta_crosses_components():
    query = parse_query("Q(x, z) :- R(x), S(z), T(w)")
    engine = QHierarchicalEngine(query)
    oracle = RecomputeEngine(query)
    rng = random.Random(3)
    for command in random_stream(query, rng, rounds=250, domain=5):
        before = oracle.result_set()
        oracle.apply(command)
        after = oracle.result_set()
        added, removed = engine.apply_with_delta(command)
        assert set(added) == after - before
        assert set(removed) == before - after


@pytest.mark.parametrize("seed", range(3))
def test_union_delta_matches_result_diff(seed):
    union = parse_union(UNION_TEXT)
    engine = UnionEngine(union)
    oracle = UnionEngine(union)
    rng = random.Random(seed)
    for command in union_stream(union, rng, rounds=250):
        before = oracle.result_set()
        oracle.apply(command)
        after = oracle.result_set()
        added, removed = engine.apply_with_delta(command)
        assert set(added) == after - before
        assert set(removed) == before - after


@pytest.mark.parametrize("engine_cls", [DeltaIVMEngine, RecomputeEngine])
def test_fallback_engine_delta_matches_result_diff(engine_cls):
    query = zoo.S_E_T  # not q-hierarchical: the fallback regime
    engine = engine_cls(query)
    oracle = RecomputeEngine(query)
    rng = random.Random(7)
    for command in random_stream(query, rng, rounds=200, domain=5):
        before = oracle.result_set()
        oracle.apply(command)
        after = oracle.result_set()
        added, removed = engine.apply_with_delta(command)
        assert set(added) == after - before
        assert set(removed) == before - after


def test_delta_noop_commands_report_empty():
    engine = QHierarchicalEngine(zoo.E_T_QF)
    assert engine.apply_with_delta(insert("T", (2,))) == ((), ())
    assert engine.apply_with_delta(insert("E", (1, 2))) == (((1, 2),), ())
    assert engine.apply_with_delta(insert("E", (1, 2))) == ((), ())  # dup
    assert engine.apply_with_delta(delete("E", (9, 9))) == ((), ())  # absent
    epoch = engine.epoch
    assert engine.apply_with_delta(insert("E", (1, 2))) == ((), ())
    assert engine.epoch == epoch  # no-ops do not bump the epoch


# ---------------------------------------------------------------------------
# subscriptions through the session (replay ≡ result_set)
# ---------------------------------------------------------------------------

SUBSCRIPTION_VIEWS = [
    ("qh", "V(x, y) :- E(x, y), T(y)", "auto"),  # q-hierarchical
    ("union", "V(x, y) :- R(x, y), S(x); V(x, y) :- T(x, y)", "auto"),
    ("ivm", "V(x, y) :- S(x), E(x, y), T(y)", "auto"),  # delta-IVM fallback
    # Appendix ϕ2: a result diff, not a structural delta
    ("phi2", "V(x, y, z, w) :- E(x, x), E(x, y), E(y, y), E(z, w)", "phi2_appendix"),
]


@pytest.mark.parametrize("name,text,engine", SUBSCRIPTION_VIEWS)
@pytest.mark.parametrize("seed", range(3))
def test_subscription_deltas_reconstruct_result_set(name, text, engine, seed):
    session = Session()
    view = session.view(name, text, engine=engine)
    subscription = view.subscribe()
    query = view.query
    rng = random.Random(seed)
    mirror = set(view.result_set())
    assert mirror == set()

    relations = [(r, query.arity_of(r)) for r in query.relations]
    for _ in range(150):
        relation, arity = rng.choice(relations)
        row = tuple(rng.randint(1, 5) for _ in range(arity))
        if rng.random() < 0.6:
            session.insert(relation, row)
        else:
            session.delete(relation, row)
        for d in subscription.poll():
            overlap = set(d.added) & mirror
            assert not overlap  # added tuples were absent
            assert set(d.removed) <= mirror  # removed ones were present
            mirror |= set(d.added)
            mirror -= set(d.removed)
        assert mirror == view.result_set()


def test_subscription_callback_and_epochs_increase():
    session = Session()
    view = session.view("v", "V(x) :- R(x)")
    seen = []
    view.subscribe(callback=seen.append)
    session.insert("R", (1,))
    session.insert("R", (1,))  # no-op: no delta
    session.insert("R", (2,))
    session.delete("R", (1,))
    assert [(d.added, d.removed) for d in seen] == [
        (((1,),), ()),
        (((2,),), ()),
        ((), ((1,),)),
    ]
    epochs = [d.epoch for d in seen]
    assert epochs == sorted(epochs) and len(set(epochs)) == len(epochs)


def test_subscription_through_batch_sees_net_effect():
    session = Session()
    view = session.view("v", "V(x, y) :- E(x, y), T(y)")
    subscription = view.subscribe()
    with session.batch() as batch:
        batch.insert("E", (1, 2)).insert("T", (2,))
        batch.insert("E", (3, 2)).delete("E", (3, 2))  # cancels
    mirror = set()
    for d in subscription.poll():
        mirror |= set(d.added)
        mirror -= set(d.removed)
    assert mirror == view.result_set() == {(1, 2)}


def test_subscription_max_pending_drops_oldest():
    session = Session()
    view = session.view("v", "V(x) :- R(x)")
    subscription = view.subscribe(max_pending=2)
    for i in range(5):
        session.insert("R", (i,))
    assert subscription.dropped == 3
    polled = subscription.poll()
    assert [d.added for d in polled] == [(((3,),)), (((4,),))]


def test_subscription_close_stops_delivery():
    session = Session()
    view = session.view("v", "V(x) :- R(x)")
    subscription = view.subscribe()
    session.insert("R", (1,))
    subscription.close()
    session.insert("R", (2,))
    assert [d.added for d in subscription.poll()] == [(((1,),))]


def _replayed(deltas, onto=()):
    mirror = set(onto)
    for d in deltas:
        mirror |= set(d.added)
        mirror -= set(d.removed)
    return mirror


def test_subscriber_set_mutated_from_inside_a_callback():
    # Delivery iterates the subscriber set while callbacks may change
    # it: a callback closing its own subscription still gets the
    # triggering delta (and nothing after); closing a *later* sibling
    # stops that sibling from receiving the triggering delta; a
    # subscription registered mid-delivery first sees the next write.
    session = Session()
    view = session.view("v", "V(x) :- R(x)")
    subs = {}
    late = []

    def first_callback(delta):
        if delta.added == ((2,),):
            subs["first"].close()
            subs["victim"].close()
            late.append(view.subscribe())
            late.append(view.result_set())  # what the newcomer starts from

    subs["first"] = view.subscribe(callback=first_callback)
    subs["victim"] = view.subscribe()
    subs["bystander"] = view.subscribe()
    for value in (1, 2, 3):
        session.insert("R", (value,))
    session.delete("R", (1,))

    assert [d.added for d in subs["first"].poll()] == [((1,),), ((2,),)]
    assert [d.added for d in subs["victim"].poll()] == [((1,),)]
    late_log = late[0].poll()
    assert [(d.added, d.removed) for d in late_log] == [
        (((3,),), ()),
        ((), ((1,),)),
    ]
    assert view.result_set() == {(2,), (3,)}
    assert _replayed(subs["bystander"].poll()) == view.result_set()
    assert _replayed(late_log, onto=late[1]) == view.result_set()
    assert view.subscriptions == (subs["bystander"], late[0])


# ---------------------------------------------------------------------------
# cursors
# ---------------------------------------------------------------------------


def make_feed_session():
    session = Session()
    view = session.view("feed", "F(x, y) :- E(x, y), T(y)")
    other = session.view("other", "O(d) :- Flagged(d)")
    for i in range(6):
        session.insert("E", (i, i % 3))
        session.insert("T", (i % 3,))
    return session, view, other


def test_cursor_pages_without_restart_and_exhausts():
    session, view, _ = make_feed_session()
    full = list(view.enumerate())
    cursor = view.cursor()
    pages = []
    while True:
        page = cursor.fetch(2)
        if not page:
            break
        pages.append(page)
    assert [row for page in pages for row in page] == full
    assert cursor.exhausted and cursor.fetch(5) == []
    assert cursor.fetched == len(full)
    assert cursor not in view.open_cursors  # deregistered when drained


def test_cursor_survives_updates_to_other_views():
    session, view, _ = make_feed_session()
    cursor = view.cursor()
    first = cursor.fetch(1)
    session.insert("Flagged", ("x",))  # other view's relation
    rest = cursor.fetch_all()
    assert first + rest == list(view.enumerate())
    assert cursor.valid


def test_cursor_invalidation_is_precise():
    # Genuinely invalidating: the write removes a tuple the cursor has
    # already handed out, so no consistent resume exists.
    session, view, _ = make_feed_session()
    opened = view.epoch
    cursor = view.cursor()
    first = cursor.fetch(1)[0]
    command = delete("E", first)  # F(x, y) :- E(x, y), T(y): direct hit
    session.apply(command)
    with pytest.raises(CursorInvalidatedError) as excinfo:
        cursor.fetch(1)
    report = excinfo.value.invalidation
    assert report.view == "feed"
    assert report.opened_epoch == opened
    assert report.invalidated_epoch == view.epoch
    assert report.command == command
    assert report.fetched == 1
    assert not cursor.valid
    # invalidation sticks
    with pytest.raises(CursorInvalidatedError):
        cursor.fetch(1)


def test_cursor_revalidates_on_empty_delta_and_after_frontier_writes():
    # A touching write with an empty delta (the result did not move)
    # re-anchors the walk instead of killing the cursor; so does a
    # write whose delta lands entirely beyond what was fetched.
    session, view, _ = make_feed_session()
    cursor = view.cursor()
    got = cursor.fetch(1)
    session.insert("E", (50, 9))  # T(9) absent: touching, delta empty
    assert cursor.valid and cursor.revalidations == 1
    session.insert("E", (77, 2))  # T(2) present: delta adds (77, 2)
    assert cursor.valid and cursor.revalidations == 2
    got += cursor.fetch_all()  # the rebuilt walk serves the remainder
    assert sorted(got) == sorted(view.result_set())
    assert len(got) == len(set(got))


def test_snapshot_cursor_pins_pre_update_result():
    session, view, _ = make_feed_session()
    pre = set(view.result_set())
    cursor = view.cursor(snapshot=True)
    got = [cursor.fetch(1)[0]]
    session.insert("E", (99, 0))
    session.delete("T", (1,))
    got += cursor.fetch_all()
    assert set(got) == pre
    assert set(view.result_set()) != pre  # the live view moved on


def test_plain_and_snapshot_cursor_interleaving_property():
    for seed in range(5):
        rng = random.Random(seed)
        session = Session()
        view = session.view("v", "V(x, y) :- E(x, y), T(y)")
        for command in random_stream(view.query, rng, rounds=60, domain=5):
            session.apply(command)
        pre = list(view.enumerate())
        snapshot = rng.random() < 0.5
        cursor = view.cursor(snapshot=snapshot)
        got = []
        invalidated = False
        for step in range(30):
            if rng.random() < 0.4:
                relation = rng.choice(["E", "T"])
                arity = 2 if relation == "E" else 1
                row = tuple(rng.randint(1, 5) for _ in range(arity))
                (session.insert if rng.random() < 0.6 else session.delete)(
                    relation, row
                )
            else:
                try:
                    got.extend(cursor.fetch(rng.randint(1, 4)))
                except CursorInvalidatedError:
                    invalidated = True
                    break
                if cursor.exhausted:
                    break
        if snapshot:
            assert not invalidated
            remaining = cursor.fetch_all() if not cursor.exhausted else []
            assert got + remaining == pre  # the pinned pre-update result
        elif not invalidated:
            # survived every touching write: the revalidated cursor
            # enumerates exactly the FINAL result, duplicate-free (the
            # emitted prefix stayed live, the rebuilt walk served the
            # rest)
            total = got + (cursor.fetch_all() if not cursor.exhausted else [])
            assert len(total) == len(set(total))
            assert set(total) == view.result_set()
        else:
            # invalidated: the precise report matches what was consumed
            report = cursor.invalidation
            assert report is not None and report.fetched == len(got)
            assert report.command is not None and not report.command.is_insert


def test_bound_cursor_prefix_and_filter():
    session = Session()
    view = session.view("v", "V(x, y, z) :- R(x, y), W(x, z)")
    rng = random.Random(9)
    for _ in range(150):
        session.insert("R", (rng.randint(1, 4), rng.randint(1, 4)))
        session.insert("W", (rng.randint(1, 4), rng.randint(1, 4)))
    full = set(view.result_set())
    # ancestor-closed binding (root x): pinned fast path
    got = set(view.cursor(x=2).fetch_all())
    assert got == {t for t in full if t[0] == 2}
    # non-prefix binding (leaf without root): filter fallback
    got = set(view.cursor(z=3).fetch_all())
    assert got == {t for t in full if t[2] == 3}
    # full binding
    got = set(view.cursor(x=2, y=1, z=3).fetch_all())
    assert got == {t for t in full if t == (2, 1, 3)}
    with pytest.raises(QueryStructureError):
        view.cursor(nope=1)


def test_bound_cursor_on_union_and_fallback_views():
    session = Session()
    union = session.view("u", UNION_TEXT.replace("\n", ";"))
    fallback = session.view("f", "F(x, y) :- S(x), E(x, y), Last(y)")
    rng = random.Random(4)
    for _ in range(120):
        session.insert("R", (rng.randint(1, 4), rng.randint(1, 4)))
        session.insert("T", (rng.randint(1, 4), rng.randint(1, 4)))
        session.insert("S", (rng.randint(1, 4),))
        session.insert("E", (rng.randint(1, 4), rng.randint(1, 4)))
        session.insert("Last", (rng.randint(1, 4),))
    for view, var in ((union, "x"), (fallback, "y")):
        full = set(view.result_set())
        position = list(view.query.free).index(var)
        rows = view.cursor(**{var: 2}).fetch_all()
        assert len(rows) == len(set(rows))
        assert set(rows) == {t for t in full if t[position] == 2}


def test_cursor_close_and_errors():
    session, view, _ = make_feed_session()
    cursor = view.cursor()
    cursor.close()
    with pytest.raises(EngineStateError):
        cursor.fetch(1)
    cursor.close()  # idempotent
    fresh = view.cursor()
    with pytest.raises(EngineStateError):
        fresh.fetch(-1)
    session.drop_view("feed")
    assert not fresh.valid or fresh.exhausted  # serving state released


# ---------------------------------------------------------------------------
# bound enumeration ≡ brute force; Algorithm 1 with pinning
# ---------------------------------------------------------------------------

BINDING_QUERIES = ["E_T_QF", "EXAMPLE_6_1", "FIGURE_1"]


@pytest.mark.parametrize("name", BINDING_QUERIES)
def test_enumerate_bound_matches_brute_force(name):
    query = zoo.PAPER_QUERIES[name]
    engine = QHierarchicalEngine(query)
    rng = random.Random(5)
    for command in random_stream(query, rng, rounds=250, domain=5):
        engine.apply(command)
    full = engine.result_set()
    free = query.free
    for size in (1, 2):
        for variables in itertools.combinations(free, size):
            for value in (1, 3):
                binding = {v: value for v in variables}
                rows = list(engine.enumerate_bound(binding))
                assert len(rows) == len(set(rows))
                assert set(rows) == {
                    t
                    for t in full
                    if all(t[free.index(v)] == value for v in variables)
                }


@pytest.mark.parametrize("name", BINDING_QUERIES)
def test_algorithm1_pinned_agrees_with_generator(name):
    query = zoo.PAPER_QUERIES[name]
    engine = QHierarchicalEngine(query)
    rng = random.Random(6)
    for command in random_stream(query, rng, rounds=250, domain=5):
        engine.apply(command)
    for structure in engine.structures:
        order = structure.free_order
        for k in range(1, len(order) + 1):
            prefix = order[:k]
            parent_of = structure.qtree.parent
            closed = all(
                parent_of[v] is None or parent_of[v] in prefix
                for v in prefix
            )
            if not closed:
                continue
            for value in (1, 4):
                pinned = {v: value for v in prefix}
                assert list(algorithm1(structure, pinned)) == list(
                    structure.enumerate_bound(pinned)
                )


def test_algorithm1_rejects_non_ancestor_closed_pinning():
    query = zoo.EXAMPLE_6_1
    engine = QHierarchicalEngine(query)
    engine.insert("E", (1, 2))
    structure = engine.structures[0]
    order = structure.free_order
    deepest = order[-1]
    assert structure.qtree.parent[deepest] is not None
    with pytest.raises(QueryStructureError):
        list(algorithm1(structure, {deepest: 1}))


# ---------------------------------------------------------------------------
# bulk preprocessing satellites
# ---------------------------------------------------------------------------

SELFJOIN_QUERIES = [
    ("HIERARCHICAL_RRE", zoo.HIERARCHICAL_RRE),
    ("EXAMPLE_6_1", zoo.EXAMPLE_6_1),
    ("FIGURE_1", zoo.FIGURE_1),
    ("LOOP_CORE", zoo.LOOP_CORE),
    ("selfstar3", zoo.selfjoin_star_query(3)),
    ("selfstar4_partial", zoo.selfjoin_star_query(4, free_leaves=2)),
]

#: Shapes the one bulk loader must cover beyond self-joins: one plan
#: per relation, an eq-filtered plan next to an unfiltered one, a
#: depth-1 path, a Boolean query.
LOADER_QUERIES = SELFJOIN_QUERIES + [
    ("star3", zoo.star_query(3, free_leaves=3)),
    ("eq_filtered", parse_query("Q(x, y) :- E(x, y), E(x, x)")),
    ("depth1", parse_query("Q(x) :- T(x)")),
    ("boolean", parse_query("Q() :- E(x, x)")),
]


def per_atom_loader(plans):
    """The per-atom layout the merged generator replaces: the same
    generator fed one plan at a time, one pass over the rows each."""
    loaders = [compile_relation_loader([plan]) for plan in plans]

    def load(rows):
        for loader in loaders:
            loader(rows)

    return load


@pytest.mark.parametrize("name,query", LOADER_QUERIES)
def test_merged_loaders_state_identical_to_per_atom_and_replay(
    name, query, monkeypatch
):
    """Bulk load ≡ the oracle's insert-by-insert replay:
    same ``snapshot()`` per structure, same ``count()``, and the loaded
    engine keeps tracking the oracle under further updates.  Merging
    the plans of a relation into one pass is state-neutral too."""
    rng = random.Random(len(name))
    database = Database.empty_like(query)
    for command in insert_only_stream(
        rng, query, 1500, domain=UniformDomain(12)
    ):
        database.insert(command.relation, command.row)
    merged = QHierarchicalEngine(query, database)
    replay = ReferenceEngine(query, database.copy())
    with monkeypatch.context() as patch:
        patch.setattr(
            "repro.core.structure.compile_relation_loader", per_atom_loader
        )
        per_atom = QHierarchicalEngine(query, database.copy())
    assert merged.count() == per_atom.count() == replay.count()
    for sm, sp, sr in zip(
        merged.structures, per_atom.structures, replay.structures
    ):
        assert sm.snapshot() == sp.snapshot() == sr.snapshot()
    # the bulk-loaded engine keeps updating correctly
    for command in random_stream(query, rng, rounds=100, domain=8):
        assert merged.apply(command) == replay.apply(command)
    assert merged.count() == replay.count()
    for sm, sr in zip(merged.structures, replay.structures):
        assert sm.snapshot() == sr.snapshot()


def test_union_bulk_preload_matches_replay():
    union = parse_union(UNION_TEXT)
    rng = random.Random(8)
    database = Database.from_dict(
        {
            "R": [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(40)],
            "S": [(i,) for i in range(1, 5)],
            "T": [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(30)],
        }
    )
    bulk = UnionEngine(union, database)
    replayed = UnionEngine(union)
    for relation in database.relations():
        for row in relation.rows:
            replayed.insert(relation.name, row)
    assert bulk.count() == replayed.count()
    assert bulk.result_set() == replayed.result_set()
    # and the loaded engine keeps maintaining correctly
    for command in union_stream(union, rng, rounds=120):
        bulk.apply(command)
        replayed.apply(command)
    assert bulk.result_set() == replayed.result_set()
    assert bulk.count() == replayed.count()


def test_delta_ivm_bulk_preload_matches_replay():
    query = zoo.S_E_T
    rng = random.Random(12)
    database = Database.from_dict(
        {
            "S": [(i,) for i in range(6)],
            "E": [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(40)],
            "T": [(i,) for i in range(4)],
        }
    )
    bulk = DeltaIVMEngine(query, database)
    replayed = DeltaIVMEngine(query)
    for relation in database.relations():
        for row in relation.rows:
            replayed.insert(relation.name, row)
    assert bulk._counts == replayed._counts
    assert bulk.count() == replayed.count()
    for command in random_stream(query, rng, rounds=120, domain=6):
        bulk.apply(command)
        replayed.apply(command)
    assert bulk._counts == replayed._counts


# ---------------------------------------------------------------------------
# the dispatcher
# ---------------------------------------------------------------------------


def test_server_request_loop_roundtrip():
    server = Server()
    replies = list(
        server.serve(
            [
                {"op": "view", "name": "v", "query": "V(x) :- R(x), S(x)"},
                {"op": "insert", "relation": "R", "row": (1,)},
                {"op": "insert", "relation": "S", "row": (1,)},
                {"op": "count", "view": "v"},
                {"op": "open_cursor", "view": "v"},
                {"op": "subscribe", "view": "v"},
                {"op": "insert", "relation": "R", "row": (2,)},
                {"op": "insert", "relation": "S", "row": (2,)},
                {"op": "epochs"},
                {"op": "nonsense"},
            ]
        )
    )
    assert replies[0]["ok"] is True
    assert replies[0]["view"] == "v"
    assert replies[0]["engine"] == "qhierarchical"
    assert replies[3] == {"ok": True, "count": 1}
    cursor = replies[4]["cursor"]
    subscription = replies[5]["subscription"]
    assert replies[8]["epochs"]["v"] == 4
    assert replies[9]["ok"] is False

    # the two later inserts only added beyond the cursor's (empty)
    # frontier, so it revalidated and serves the updated result
    reply = server.handle({"op": "fetch", "cursor": cursor, "n": 1})
    assert reply["ok"] is True and len(reply["rows"]) == 1
    emitted = reply["rows"][0]

    # deleting the emitted row is genuinely invalidating — precisely
    server.handle({"op": "delete", "relation": "R", "row": emitted})
    reply = server.handle({"op": "fetch", "cursor": cursor, "n": 10})
    assert reply["ok"] is False
    assert reply["error"] == "CursorInvalidatedError"
    assert reply["invalidation"]["view"] == "v"
    assert reply["invalidation"]["fetched"] == 1

    polled = server.handle({"op": "poll", "subscription": subscription})
    assert [d["added"] for d in polled["deltas"]] == [[(2,)], []]
    assert [d["removed"] for d in polled["deltas"]] == [[], [emitted]]

    # restore the deleted row; a fresh cursor pages fine through the loop
    server.handle({"op": "insert", "relation": "R", "row": emitted})
    cursor = server.handle({"op": "open_cursor", "view": "v"})["cursor"]
    rows = server.handle({"op": "fetch", "cursor": cursor, "n": 10})
    assert sorted(rows["rows"]) == [(1,), (2,)] and rows["exhausted"]

    batch = server.handle(
        {
            "op": "batch",
            "commands": [
                ("insert", "R", (3,)),
                ("insert", "S", (3,)),
                ("delete", "R", (3,)),
            ],
        }
    )
    assert batch["stats"]["net"] < batch["stats"]["buffered"]
    assert server.handle({"op": "count", "view": "v"})["count"] == 2


def test_unknown_wire_command_kind_is_an_update_error():
    # The decoder used to spell "insert if kind == 'insert' else
    # delete", so any typo deleted the row and answered ok: True.
    server = Server()
    server.view("v", "V(x, y) :- E(x, y)")
    server.insert("E", (1, 2))
    reply = server.handle(
        {"op": "batch", "commands": [["upsert", "E", [1, 2]]]}
    )
    assert reply["ok"] is False and reply["error"] == "UpdateError"
    assert "upsert" in reply["message"]
    assert server.result_set("v") == {(1, 2)}


def test_server_multithreaded_readers_and_writers():
    server = Server()
    server.view("v", "V(x, y) :- E(x, y), T(y)")
    subscription = server.subscribe("v")
    stop = threading.Event()
    failures = []

    def writer(seed):
        rng = random.Random(seed)
        for _ in range(150):
            relation = rng.choice(["E", "T"])
            arity = 2 if relation == "E" else 1
            row = tuple(rng.randint(1, 6) for _ in range(arity))
            try:
                if rng.random() < 0.7:
                    server.insert(relation, row)
                else:
                    server.delete(relation, row)
            except Exception as error:  # pragma: no cover
                failures.append(error)

    def reader(seed):
        rng = random.Random(seed)
        while not stop.is_set():
            try:
                cursor = server.open_cursor("v", snapshot=rng.random() < 0.5)
                while True:
                    try:
                        if not server.fetch(cursor, 8):
                            break
                    except CursorInvalidatedError:
                        break
                server.close_cursor(cursor)
                server.count("v")
            except Exception as error:  # pragma: no cover
                failures.append(error)

    readers = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
    writers = [
        threading.Thread(target=writer, args=(100 + i,)) for i in range(2)
    ]
    for thread in readers + writers:
        thread.start()
    for thread in writers:
        thread.join()
    stop.set()
    for thread in readers:
        thread.join()
    assert not failures

    # the subscription log replays to the final state
    mirror = set()
    for d in server.poll(subscription):
        mirror |= set(d.added)
        mirror -= set(d.removed)
    assert mirror == server.session["v"].result_set()

    # and the final state equals a sequential replay oracle
    oracle = RecomputeEngine(server.session["v"].query)
    for relation in ("E", "T"):
        for row in server.session.rows(relation):
            oracle.insert(relation, row)
    assert mirror == oracle.result_set()


def test_subscription_callback_may_reenter_the_server():
    # The callback runs inside the write path; the RW lock is
    # writer-reentrant so reading the server back must not deadlock.
    server = Server()
    server.view("v", "V(x, y) :- E(x, y)")
    seen = []
    server.subscribe("v", callback=lambda d: seen.append(server.count("v")))
    done = []
    thread = threading.Thread(
        target=lambda: done.append(server.insert("E", (1, 2)))
    )
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive(), "writer deadlocked on its own lock"
    assert done == [True] and seen == [1]


def test_binding_to_none_constant_filters_correctly():
    # None is a legal stored constant; binding to it must filter, not
    # silently disable the filter.
    query = parse_query("Q(x, y) :- E(x, y)")
    engine = QHierarchicalEngine(query)
    for row in [(1, None), (1, 2), (3, None)]:
        engine.insert("E", row)
    assert set(engine.enumerate_bound({"y": None})) == {(1, None), (3, None)}
    assert set(engine.enumerate_bound({"x": 1, "y": None})) == {(1, None)}


def test_server_drop_view_releases_handles():
    server = Server()
    server.view("v", "V(x) :- R(x)")
    cursor = server.open_cursor("v")
    subscription = server.subscribe("v")
    server.drop_view("v")
    with pytest.raises(EngineStateError):
        server.fetch(cursor, 1)
    with pytest.raises(EngineStateError):
        server.poll(subscription)
