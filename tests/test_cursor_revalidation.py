"""Delta-aware cursor revalidation: randomized differential coverage.

The contract under test (:mod:`repro.serve.cursors`): a plain cursor on
a view whose engine derives O(δ) deltas survives

* **touching-but-empty-delta writes** — the update hits a relation the
  view mentions but moves no result tuple, and
* **after-frontier writes** — every tuple the update adds or removes
  sits beyond what the cursor has emitted,

and is invalidated by exactly the **genuinely invalidating** writes:
those removing an already-emitted tuple (plus any touching write on a
no-delta path, where the cursor must assume the worst).  A surviving
cursor, drained to the end, enumerates exactly the *final* result with
no duplicates — checked against fresh enumeration on randomized
interleavings for every engine kind.
"""

import random

import pytest

from repro.api import Session
from repro.errors import CursorInvalidatedError
from repro.storage.updates import delete, insert

VIEW_TEXT = "V(x, y) :- E(x, y), T(y)"


def populated_session(rng, rows=40, domain=6, engine="auto"):
    session = Session()
    view = session.view("v", VIEW_TEXT, engine=engine)
    for value in range(domain):
        session.insert("T", (value,))
    for _ in range(rows):
        session.insert("E", (rng.randrange(domain * 3), rng.randrange(domain)))
    return session, view


# ---------------------------------------------------------------------------
# the three write classes, checked exactly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_randomized_interleaving_survives_exactly_the_right_writes(seed):
    rng = random.Random(seed)
    session, view = populated_session(rng)
    cursor = view.cursor()
    emitted = list(cursor.fetch(rng.randint(1, 10)))
    revalidations = 0
    fresh_key = 1000

    for _ in range(40):
        if cursor.exhausted or not cursor.valid:
            break
        kind = rng.choice(["empty", "after", "invalidate", "fetch"])
        if kind == "fetch":
            emitted.extend(cursor.fetch(rng.randint(1, 4)))
        elif kind == "empty":
            # E row whose y has no T partner: touching, zero delta
            fresh_key += 1
            session.insert("E", (fresh_key, 99))
            revalidations += 1
            assert cursor.valid
        elif kind == "after":
            # brand-new joining row: the delta adds a tuple the cursor
            # cannot have emitted yet
            fresh_key += 1
            session.insert("E", (fresh_key, rng.randrange(6)))
            revalidations += 1
            assert cursor.valid
        elif kind == "invalidate" and emitted:
            victim = rng.choice(emitted)
            session.delete("E", victim)  # removes an emitted tuple
            assert not cursor.valid
            with pytest.raises(CursorInvalidatedError) as excinfo:
                cursor.fetch(1)
            report = excinfo.value.invalidation
            assert report.fetched == len(emitted)
            assert report.command == delete("E", victim)
            break

    if cursor.valid and not cursor.exhausted:
        assert cursor.revalidations == revalidations
        emitted.extend(cursor.fetch_all())
    if cursor.valid:
        # duplicate-free and exactly the final result
        assert len(emitted) == len(set(emitted))
        assert set(emitted) == view.result_set()


@pytest.mark.parametrize("seed", range(5))
def test_surviving_cursor_equals_final_result_under_heavy_churn(seed):
    # Differential drain: interleave only survivable writes (empty-delta
    # and after-frontier, including beyond-frontier deletes) and check
    # the drained cursor against fresh enumeration of the final state.
    rng = random.Random(100 + seed)
    session, view = populated_session(rng, rows=60)
    cursor = view.cursor()
    got = list(cursor.fetch(5))
    seen = set(got)
    for step in range(60):
        roll = rng.random()
        if roll < 0.3:
            session.insert("E", (2000 + step, rng.randrange(6)))
        elif roll < 0.5:
            session.insert("E", (3000 + step, 77))  # empty delta
        elif roll < 0.7:
            # delete a live result row the cursor has NOT emitted
            candidates = [t for t in view.result_set() if t not in seen]
            if candidates:
                session.delete("E", rng.choice(candidates))
        else:
            page = cursor.fetch(rng.randint(1, 6))
            got.extend(page)
            seen.update(page)
            if cursor.exhausted:
                break  # an exhausted cursor is done; later writes are
                # a fresh cursor's business
        assert cursor.valid
    got.extend(cursor.fetch_all() if not cursor.exhausted else [])
    assert len(got) == len(set(got))
    assert set(got) == view.result_set()


def test_delete_beyond_frontier_survives_and_skips_the_row():
    rng = random.Random(42)
    session, view = populated_session(rng)
    cursor = view.cursor()
    first = cursor.fetch(1)
    unseen = next(t for t in view.enumerate() if t not in first)
    session.delete("E", unseen)
    assert cursor.valid and cursor.revalidations == 1
    rest = cursor.fetch_all()
    assert unseen not in rest
    assert set(first + rest) == view.result_set()


def test_bound_cursor_revalidates_within_its_binding():
    session = Session()
    view = session.view("v", VIEW_TEXT)
    for y in range(4):
        session.insert("T", (y,))
    for x in range(8):
        session.insert("E", (x, x % 4))
    cursor = view.cursor(y=1)
    first = cursor.fetch(1)
    # writes entirely outside the binding: survivable, invisible
    session.insert("E", (50, 2))
    session.delete("E", (0, 0))
    # and one inside the binding, beyond the frontier
    session.insert("E", (60, 1))
    assert cursor.valid and cursor.revalidations == 3
    rows = first + cursor.fetch_all()
    assert len(rows) == len(set(rows))
    assert set(rows) == {t for t in view.result_set() if t[1] == 1}


# ---------------------------------------------------------------------------
# engine coverage: every cheap-delta engine revalidates; others do not
# ---------------------------------------------------------------------------

ENGINE_VIEWS = [
    ("qh", "V(x, y) :- E(x, y), T(y)", "auto"),
    ("union", "V(x, y) :- R(x, y), S(x); V(x, y) :- T2(x, y)", "auto"),
    ("ivm", "V(x, y) :- S(x), E(x, y), T(y)", "auto"),  # delta-IVM fallback
]


@pytest.mark.parametrize("name,text,engine", ENGINE_VIEWS)
def test_every_cheap_delta_engine_revalidates(name, text, engine):
    session = Session()
    view = session.view(name, text, engine=engine)
    assert view.engine.supports_cheap_delta
    rng = random.Random(len(name))
    relations = [(r, view.query.arity_of(r)) for r in view.query.relations]
    for _ in range(120):
        relation, arity = rng.choice(relations)
        session.insert(
            relation, tuple(rng.randint(1, 5) for _ in range(arity))
        )
    cursor = view.cursor()
    got = list(cursor.fetch(2))
    # fresh values: any resulting delta lies beyond the frontier
    for relation, arity in relations:
        session.insert(relation, tuple(900 for _ in range(arity)))
    assert cursor.valid and cursor.revalidations == len(relations)
    got.extend(cursor.fetch_all())
    assert len(got) == len(set(got))
    assert set(got) == view.result_set()


PHI2_TEXT = "V(x, y, z, w) :- E(x, x), E(x, y), E(y, y), E(z, w)"


def phi2_session():
    session = Session()
    return session, session.view("v", PHI2_TEXT, engine="phi2_appendix")


def test_no_delta_engine_still_invalidates_eagerly():
    # Appendix ϕ2 derives no cheap delta; without a subscriber the
    # session applies plainly and the cursor must assume the worst.
    session, view = phi2_session()
    assert not view.engine.supports_cheap_delta
    session.insert("E", (1, 2))
    cursor = view.cursor()
    session.insert("E", (5, 99))  # no loop, no result: an empty delta
    assert not cursor.valid
    with pytest.raises(CursorInvalidatedError):
        cursor.fetch(1)


def test_no_delta_engine_revalidates_when_a_subscriber_pays_for_the_diff():
    # With a subscriber the diff-based delta exists anyway, so the
    # cursor revalidates opportunistically even on the ϕ2 engine.
    session, view = phi2_session()
    subscription = view.subscribe()
    session.insert("E", (1, 1))
    cursor = view.cursor()
    assert cursor.fetch(1) == [(1, 1, 1, 1)]
    session.insert("E", (5, 99))  # adds (1, 1, 5, 99), past the frontier
    assert cursor.valid and cursor.revalidations == 1
    assert cursor.fetch_all() == [(1, 1, 5, 99)]
    assert [d.size for d in subscription.poll()] == [1, 1]


def test_no_delta_engine_diffs_against_the_result_before_the_command():
    # The session writes its store before the view's engine runs; the
    # diff's "before" side is the engine's result, not the moved store.
    session, view = phi2_session()
    session.insert("E", (1, 2))  # unwatched, and no loop yet
    subscription = view.subscribe()
    session.insert("E", (1, 1))
    both = {(1, 1, 1, 1), (1, 1, 1, 2)}
    assert [(set(d.added), d.removed) for d in subscription.poll()] == [(both, ())]
    session.delete("E", (1, 1))
    session.insert("E", (1, 1))
    assert [(set(d.added), set(d.removed)) for d in subscription.poll()] == [
        (set(), both),
        (both, set()),
    ]


def test_a_view_registered_by_a_callback_mid_fan_out_takes_the_command_once():
    # The new view preloads the store, which already holds the command.
    session = Session()
    first = session.view("first", VIEW_TEXT)
    session.insert("T", (1,))

    def register(delta):
        if "late" not in session:
            session.view("late", VIEW_TEXT)

    first.subscribe(callback=register)
    session.insert("E", (1, 1))
    session.delete("E", (1, 1))
    assert session["late"].result_set() == first.result_set() == set()


def test_snapshot_cursor_still_pins_across_survivable_writes():
    rng = random.Random(7)
    session, view = populated_session(rng)
    pre = list(view.enumerate())
    cursor = view.cursor(snapshot=True)
    session.insert("E", (999, 0))  # after-frontier for a plain cursor
    session.insert("E", (998, 77))  # empty delta
    assert cursor.fetch_all() == pre  # pinned regardless
    assert cursor.revalidations == 0


def test_exhausted_cursor_is_indifferent_to_later_writes():
    session = Session()
    view = session.view("v", VIEW_TEXT)
    session.insert("T", (1,))
    session.insert("E", (1, 1))
    cursor = view.cursor()
    assert cursor.fetch_all() == [(1, 1)]
    assert cursor.exhausted
    session.insert("E", (2, 1))
    assert cursor.exhausted and cursor.fetch(10) == []
    assert cursor.revalidations == 0
