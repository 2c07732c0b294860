"""Tests for the structure invariant checker (core.validation)."""

import random

import pytest

from repro.core.engine import QHierarchicalEngine
from repro.core.validation import check_engine, check_structure
from repro.cq import zoo
from repro.cq.generators import random_q_hierarchical_query
from tests.conftest import example_6_1_database, feed_example_6_1_sorted, random_stream


class TestCheckStructure:
    def test_example_6_1_sound(self):
        engine = QHierarchicalEngine(zoo.EXAMPLE_6_1)
        feed_example_6_1_sorted(engine)
        report = check_engine(engine)
        assert report.ok, str(report)
        assert str(report) == "structure OK"

    def test_empty_engine_sound(self):
        engine = QHierarchicalEngine(zoo.EXAMPLE_6_1)
        assert check_engine(engine).ok

    @pytest.mark.parametrize("seed", range(5))
    def test_random_streams_keep_invariants(self, seed):
        rng = random.Random(seed)
        query = random_q_hierarchical_query(rng)
        engine = QHierarchicalEngine(query)
        for command in random_stream(query, rng, rounds=50, domain=5):
            engine.apply(command)
        report = check_engine(engine)
        assert report.ok, str(report)

    def test_detects_corrupted_weight(self, d0):
        engine = QHierarchicalEngine(zoo.EXAMPLE_6_1, d0)
        structure = engine.structures[0]
        item = structure.item("x", ("a",))
        item.weight += 1  # sabotage
        report = check_structure(structure, engine.database)
        assert not report.ok
        assert any("C =" in error for error in report.errors)

    def test_detects_corrupted_counter(self, d0):
        engine = QHierarchicalEngine(zoo.EXAMPLE_6_1, d0)
        structure = engine.structures[0]
        item = structure.item("y", ("a", "e"))
        atom_index = next(iter(item.atom_counts()))
        slot = type(item).atom_slot[atom_index]  # the node's counter slot
        setattr(item, slot, getattr(item, slot) + 5)  # sabotage
        report = check_structure(structure, engine.database)
        assert not report.ok

    def test_detects_corrupted_child_sum(self, d0):
        engine = QHierarchicalEngine(zoo.EXAMPLE_6_1, d0)
        structure = engine.structures[0]
        item = structure.item("x", ("a",))
        slot = type(item).child_slot["y"]
        setattr(item, slot, getattr(item, slot) + 1)  # sabotage
        report = check_structure(structure, engine.database)
        assert not report.ok
        assert any("child_sum[y]" in error for error in report.errors)

    def test_detects_corrupted_start_total(self, d0):
        engine = QHierarchicalEngine(zoo.EXAMPLE_6_1, d0)
        structure = engine.structures[0]
        structure.c_start += 3  # sabotage
        report = check_structure(structure, engine.database)
        assert not report.ok
        assert any("C_start" in error for error in report.errors)

    def test_detects_missing_item(self, d0):
        engine = QHierarchicalEngine(zoo.EXAMPLE_6_1, d0)
        structure = engine.structures[0]
        # Remove an item behind the structure's back.
        item = structure.item("y'", ("a", "e"))
        del structure._items["y'"][("a", "e")]
        report = check_structure(structure, engine.database)
        assert not report.ok
        assert any("missing item" in error for error in report.errors)

    def test_report_renders_errors(self, d0):
        engine = QHierarchicalEngine(zoo.EXAMPLE_6_1, d0)
        structure = engine.structures[0]
        structure.c_start += 1
        report = check_structure(structure, engine.database)
        assert "violation" in str(report)
