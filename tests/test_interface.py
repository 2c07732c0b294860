"""Tests for the engine interface and registry."""

import itertools
import random

import pytest

from repro import Session
from repro.cq import zoo
from repro.errors import EngineStateError
from repro.interface import ENGINE_REGISTRY, make_engine
from repro.storage.updates import delete, insert
from tests.conftest import example_6_1_database


class TestRegistry:
    def test_all_engines_registered(self):
        # The served engines are the ones the dichotomy names; the
        # recompute baseline is constructed directly, never served.
        assert sorted(ENGINE_REGISTRY) == [
            "delta_ivm",
            "phi2_appendix",
            "qhierarchical",
            "ucq_union",
        ]

    def test_every_registered_engine_answers_contains_itself(self):
        for cls in ENGINE_REGISTRY.values():
            assert "contains" in vars(cls), cls.name

    def test_make_engine(self):
        engine = make_engine("delta_ivm", zoo.S_E_T)
        assert engine.name == "delta_ivm"
        assert engine.query is zoo.S_E_T

    def test_make_engine_with_database(self):
        db = example_6_1_database()
        engine = make_engine("qhierarchical", zoo.EXAMPLE_6_1, db)
        assert engine.count() == 23

    def test_unknown_engine(self):
        with pytest.raises(EngineStateError):
            make_engine("nope", zoo.S_E_T)
        with pytest.raises(EngineStateError, match="unknown engine 'recompute'"):
            make_engine("recompute", zoo.S_E_T)


class TestDynamicEngineBase:
    def test_apply_all_counts_effective_changes(self):
        engine = make_engine("delta_ivm", zoo.E_T_QF)
        commands = [
            insert("E", (1, 2)),
            insert("E", (1, 2)),  # duplicate: no-op
            insert("T", (2,)),
        ]
        assert engine.apply_all(commands) == 2

    def test_result_set(self):
        engine = make_engine("qhierarchical", zoo.E_T_QF)
        engine.insert("E", (1, 2))
        engine.insert("T", (2,))
        assert engine.result_set() == {(1, 2)}

    def test_repr_mentions_cardinality(self):
        engine = make_engine("delta_ivm", zoo.E_T_QF)
        engine.insert("E", (1, 2))
        assert "|D|=1" in repr(engine)

    def test_database_view_tracks_updates(self):
        engine = make_engine("qhierarchical", zoo.E_T_QF)
        engine.insert("E", (1, 2))
        assert ("1" not in engine.database.active_domain)
        assert engine.database.cardinality == 1
        engine.delete("E", (1, 2))
        assert engine.database.cardinality == 0

    def test_preprocessing_equals_replay(self):
        db = example_6_1_database()
        preprocessed = make_engine("qhierarchical", zoo.EXAMPLE_6_1, db)
        replayed = make_engine("qhierarchical", zoo.EXAMPLE_6_1)
        for relation in db.relations():
            for row in relation.rows:
                replayed.insert(relation.name, row)
        assert preprocessed.count() == replayed.count()
        assert preprocessed.result_set() == replayed.result_set()


#: One view per registered engine; the ϕ2 head permutes its variables so
#: that the probe has to map output positions back to (x, y, z1, z2).
CONTAINS_VIEWS = {
    "qhierarchical": "Q(x, y, z) :- E(x, y), T(y), R(z), S(w)",
    "ucq_union": "Q(x, y) :- E(x, y), T(y); Q(x, y) :- R(x, y)",
    "delta_ivm": "Q(x) :- E(x, y), T(y)",
    "phi2_appendix": "Q(w, y, x, z) :- E(x, x), E(x, y), E(y, y), E(z, w)",
}


@pytest.mark.parametrize("engine", sorted(ENGINE_REGISTRY))
@pytest.mark.parametrize("seed", range(3))
def test_contains_agrees_with_result_set_membership(engine, seed):
    session = Session(observe=False)
    view = session.view("v", CONTAINS_VIEWS[engine], engine=engine)
    assert view.engine_name == engine
    query = view.query
    relations = sorted((r, query.arity_of(r)) for r in query.relations)
    domain = range(1, 5)
    candidates = list(itertools.product(domain, repeat=len(query.free)))
    rng = random.Random(seed)
    for _ in range(120):
        relation, arity = rng.choice(relations)
        row = tuple(rng.choice(domain) for _ in range(arity))
        session.apply((insert if rng.random() < 0.6 else delete)(relation, row))
        result = view.result_set()
        for row in rng.choices(candidates, k=12) + sorted(result):
            assert view.contains(row) == (row in result), (row, result)
