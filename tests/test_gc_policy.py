"""When the cyclic collector runs — counted, not timed.

A build (an engine's preprocessing, a binding-index build) allocates
its whole structure as long-lived tracked objects.  With the collector
on, that growth alone triggers a geometric series of whole-heap passes
inside one linear-time phase; the policy in :mod:`repro.interface`
holds the collector off for the build and pays one generation-0 pass at
its end.  These tests count collections with a ``gc.callbacks`` hook,
so they repeat exactly.

Pausing is only safe because steady-state updates create no cyclic
garbage on any engine: only dropping a session does.  The churn tests
below hold that property for every zoo query, so an engine that starts
leaking cycles fails here and not in a process's resident size.
"""

import gc
import random
import threading
import weakref
from contextlib import contextmanager

import pytest

from conftest import random_stream
from repro import Server, Session
from repro.cq import zoo
from repro.errors import SchemaError
from repro.interface import (
    ENGINE_REGISTRY,
    DynamicEngine,
    _collector_paused,
    make_engine,
)
from repro.obs import GC_PAUSE_METRIC
from repro.storage.database import Database
from repro.storage.updates import insert

STAR_3 = zoo.star_query(3, free_leaves=3)


@contextmanager
def collections():
    """The generations of every collection that starts inside the block."""
    seen = []

    def hook(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.collect()
    gc.callbacks.append(hook)
    try:
        yield seen
    finally:
        gc.callbacks.remove(hook)


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Every test starts and must end with the collector on."""
    gc.enable()
    yield
    assert gc.isenabled()


def loaded_session(query, size, seed=0):
    """A session holding about ``size`` rows over ``query``'s relations."""
    session = Session()
    session.view("seed", query)
    rng = random.Random(seed)
    atoms = [(atom.relation, atom.arity) for atom in query.atoms]
    domain = max(2, size // 10)
    session.apply_all(
        insert(relation, tuple(rng.randrange(domain) for _ in range(arity)))
        for relation, arity in (atoms[i % len(atoms)] for i in range(size))
    )
    return session


# ---------------------------------------------------------------------------
# preprocessing pays one generation-0 pass, at every size
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("size", [5_000, 20_000])
def test_registering_a_view_runs_at_most_one_young_collection(size):
    session = loaded_session(STAR_3, size)
    with collections() as seen:
        view = session.view("star", STAR_3)
    assert view.count() == session["seed"].count() > 0
    assert len(seen) <= 1 and set(seen) <= {0}, seen


@pytest.mark.parametrize("size", [5_000, 20_000])
def test_a_declared_binding_index_is_built_inside_the_same_pause(size):
    session = loaded_session(STAR_3, size)
    bound = STAR_3.free[1]
    with collections() as seen:
        view = session.view("star", STAR_3, engine="delta_ivm", access={bound})
    assert view.engine.binding_index_size() > 0
    assert len(seen) <= 1 and set(seen) <= {0}, seen


# ---------------------------------------------------------------------------
# the collector state is always restored
# ---------------------------------------------------------------------------


def test_nested_scopes_restore_the_collector_only_at_the_outermost_exit():
    with _collector_paused():
        assert not gc.isenabled()
        with _collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


class _FailingEngine(DynamicEngine):
    """An engine whose preprocessing raises halfway through."""

    name = "failing-preload"
    built = None

    def _preload(self):
        type(self).built = weakref.ref(self)
        # a cycle through the half-built engine, as a real structure has
        self._self_loop = [self]
        raise RuntimeError("preload failed")

    def _on_insert(self, relation, row):
        pass

    def _on_delete(self, relation, row):
        pass

    def count(self):
        return 0

    def answer(self):
        return False

    def contains(self, row):
        return False

    def enumerate(self):
        return iter(())


def _build_failing_engine():
    database = Database.empty_like(zoo.E_T)
    database.insert("E", (1, 2))
    try:
        _FailingEngine(zoo.E_T, database)
    except RuntimeError:
        return True
    return False


def test_a_failing_registration_gives_back_the_relations_it_added(monkeypatch):
    monkeypatch.setitem(ENGINE_REGISTRY, _FailingEngine.name, _FailingEngine)
    session = Session()
    session.view("e", "Q(x) :- E(x, y)")
    session.insert("E", (1, 2))
    with pytest.raises(RuntimeError):
        session.view("broken", zoo.E_T, engine=_FailingEngine.name)
    assert session.relations == ("E",)
    assert session.rows("E") == {(1, 2)}
    with pytest.raises(SchemaError, match="no registered view uses relation"):
        session.insert("T", (2,))


def test_a_failing_preload_leaves_the_collector_on_and_its_engine_collectable():
    assert _build_failing_engine()
    assert gc.isenabled()
    gc.collect()
    assert _FailingEngine.built is not None and _FailingEngine.built() is None


def test_an_application_that_disabled_the_collector_keeps_it_disabled():
    session = loaded_session(STAR_3, 2_000)
    gc.disable()
    try:
        session.view("star", STAR_3, access={STAR_3.free[1]})
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_two_threads_registering_on_a_sharded_server_leave_the_collector_on():
    server = Server(Session(), shards=2)
    barrier = threading.Barrier(2)
    errors = []

    def register(suffix):
        try:
            barrier.wait()
            for index in range(5):
                server.view(f"star_{suffix}_{index}", STAR_3)
        except BaseException as error:  # pragma: no cover - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=register, args=(s,)) for s in "ab"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(server._session.views) == 10
    assert gc.isenabled()


def test_engine_builds_overlapping_on_two_threads_leave_the_collector_on():
    database = loaded_session(STAR_3, 5_000).database
    barrier = threading.Barrier(2)
    counts, errors = [], []

    def build():
        try:
            barrier.wait()
            for _ in range(4):
                counts.append(make_engine("qhierarchical", STAR_3, database).count())
        except BaseException as error:  # pragma: no cover - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=build) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(counts) == 8 and len(set(counts)) == 1
    assert gc.isenabled()


# ---------------------------------------------------------------------------
# churn makes no cyclic garbage — the property that makes pausing safe
# ---------------------------------------------------------------------------


def _churn(query, seed, rounds=120):
    return random_stream(query, random.Random(seed), rounds=rounds, domain=5)


@pytest.mark.parametrize("name", sorted(zoo.PAPER_QUERIES))
def test_churn_leaves_no_cyclic_garbage(name):
    query = zoo.PAPER_QUERIES[name]
    session = Session()
    plain = session.view("plain", query)
    subscribed = session.view("subscribed", query)
    cursored = session.view("cursored", query)
    deltas = []
    subscribed.subscribe(deltas.append)

    def by_apply(commands):
        for command in commands:
            session.apply(command)

    def churn_under_a_cursor(seed):
        cursor = cursored.cursor()
        cursor.fetch(1)
        by_apply(_churn(query, seed))
        session.apply_all(_churn(query, seed + 100))
        cursor.close()

    # Warm-up: the first pass compiles plans, fills caches and interns
    # whatever the engines keep for good; it may leave garbage behind.
    by_apply(_churn(query, 1))
    session.apply_all(_churn(query, 2))
    churn_under_a_cursor(3)
    gc.collect()
    gc.disable()
    try:
        for seed in range(4, 7):
            by_apply(_churn(query, seed))
            assert gc.collect() == 0
            session.apply_all(_churn(query, seed + 10))
            assert gc.collect() == 0
            churn_under_a_cursor(seed + 20)
            assert gc.collect() == 0
    finally:
        gc.enable()
    assert deltas
    assert plain.result_set() == subscribed.result_set() == cursored.result_set()


# ---------------------------------------------------------------------------
# the collector as a metric
# ---------------------------------------------------------------------------


def _pauses(session, generation):
    key = f'{GC_PAUSE_METRIC}{{generation="{generation}"}}'
    return session.metrics.snapshot()["histograms"][key]["count"]


def test_a_forced_collection_is_one_generation_two_observation():
    session = Session()
    gc.collect()
    before = [_pauses(session, g) for g in range(3)]
    gc.collect()
    after = [_pauses(session, g) for g in range(3)]
    assert after == [before[0], before[1], before[2] + 1]


def test_an_unobserved_session_registers_no_collector_series():
    session = Session(observe=False)
    gc.collect()
    assert session.metrics.snapshot() == {
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    assert not hasattr(session, "_gc_pauses")


def test_a_dropped_session_stops_receiving_observations():
    session = Session()
    session.view("star", STAR_3)
    registry = session.metrics
    key = f'{GC_PAUSE_METRIC}{{generation="2"}}'
    del session
    gc.collect()  # frees the session/view cycle
    settled = registry.snapshot()["histograms"][key]["count"]
    gc.collect()
    assert registry.snapshot()["histograms"][key]["count"] == settled
