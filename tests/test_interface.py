"""Tests for the engine interface and registry."""

import pytest

from repro.cq import zoo
from repro.errors import EngineStateError
from repro.interface import ENGINE_REGISTRY, make_engine
from repro.storage.updates import insert
from tests.conftest import example_6_1_database


class TestRegistry:
    def test_all_engines_registered(self):
        assert {
            "qhierarchical",
            "recompute",
            "delta_ivm",
            "phi2_appendix",
            "ucq_union",
        } <= set(ENGINE_REGISTRY)

    def test_make_engine(self):
        engine = make_engine("recompute", zoo.S_E_T)
        assert engine.name == "recompute"
        assert engine.query is zoo.S_E_T

    def test_make_engine_with_database(self):
        db = example_6_1_database()
        engine = make_engine("qhierarchical", zoo.EXAMPLE_6_1, db)
        assert engine.count() == 23

    def test_unknown_engine(self):
        with pytest.raises(EngineStateError):
            make_engine("nope", zoo.S_E_T)


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
        engine = make_engine("recompute", zoo.E_T_QF)
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
