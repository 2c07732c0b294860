"""Tests for the compare harness and the live-enumeration guard."""

import random

import pytest

from repro.bench.compare import compare_engines
from repro.core.engine import QHierarchicalEngine
from repro.cq import zoo
from repro.errors import EngineStateError
from repro.ivm import DeltaIVMEngine, RecomputeEngine
from tests.conftest import feed_example_6_1_sorted, random_stream


class TestCompareEngines:
    def test_agreeing_engines_report_timings(self):
        rng = random.Random(1)
        stream = random_stream(zoo.E_T_QF, rng, rounds=60)
        result = compare_engines(
            zoo.E_T_QF,
            stream,
            [QHierarchicalEngine, DeltaIVMEngine, RecomputeEngine],
        )
        assert result.checkpoints >= 2
        assert set(result.seconds) == {
            "qhierarchical",
            "delta_ivm",
            "recompute",
        }
        assert all(seconds > 0 for seconds in result.seconds.values())
        assert "verified" in result.render()

    def test_speedup_helper(self):
        rng = random.Random(2)
        stream = random_stream(zoo.E_T_QF, rng, rounds=40)
        result = compare_engines(
            zoo.E_T_QF, stream, [QHierarchicalEngine, RecomputeEngine]
        )
        assert result.speedup("qhierarchical", "recompute") > 0

    def test_final_count_reported(self):
        rng = random.Random(3)
        stream = random_stream(zoo.E_T_QF, rng, rounds=50)
        result = compare_engines(
            zoo.E_T_QF, stream, [QHierarchicalEngine, DeltaIVMEngine]
        )
        engine = QHierarchicalEngine(zoo.E_T_QF)
        for command in stream:
            engine.apply(command)
        assert result.final_count == engine.count()


class TestEnumerationGuard:
    def test_update_during_enumeration_raises(self, d0):
        engine = QHierarchicalEngine(zoo.EXAMPLE_6_1, d0)
        generator = engine.enumerate()
        next(generator)
        engine.insert("E", ("b", "p"))
        with pytest.raises(EngineStateError):
            next(generator)

    def test_delete_during_enumeration_raises(self, d0):
        engine = QHierarchicalEngine(zoo.EXAMPLE_6_1, d0)
        generator = engine.enumerate()
        next(generator)
        engine.delete("E", ("a", "e"))
        with pytest.raises(EngineStateError):
            next(generator)

    def test_noop_update_does_not_trip_guard(self, d0):
        engine = QHierarchicalEngine(zoo.EXAMPLE_6_1, d0)
        generator = engine.enumerate()
        next(generator)
        engine.insert("E", ("a", "e"))  # already present: no-op
        assert next(generator) is not None

    def test_restart_after_guard_trips(self, d0):
        engine = QHierarchicalEngine(zoo.EXAMPLE_6_1, d0)
        generator = engine.enumerate()
        next(generator)
        engine.insert("E", ("b", "p"))
        with pytest.raises(EngineStateError):
            list(generator)
        fresh = list(engine.enumerate())
        assert len(fresh) == 38

    def test_finished_enumeration_unaffected(self, d0):
        engine = QHierarchicalEngine(zoo.EXAMPLE_6_1, d0)
        rows = list(engine.enumerate())
        engine.insert("E", ("b", "p"))
        assert len(rows) == 23  # the materialised list is untouched
