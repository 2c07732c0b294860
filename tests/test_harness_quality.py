"""Quality tests for the measurement harness itself.

A benchmark suite is only as trustworthy as its instruments; these
tests point the instruments at known inputs (including a deliberately
broken engine) and check they report what they should.
"""

import random

import pytest

from repro.bench.compare import compare_engines
from repro.bench.harness import ScalingExperiment
from repro.bench.timing import DelayRecorder
from repro.cq import zoo
from repro.core.engine import QHierarchicalEngine
from repro.errors import EngineStateError
from repro.ivm.recompute import RecomputeEngine
from tests.conftest import random_stream


class LyingEngine(RecomputeEngine):
    """A baseline that silently drops every delete."""

    name = "lying_for_tests"

    def delete(self, relation, row):
        return False  # pretends deletes never happen


class TestCompareDetectsDisagreement:
    def test_lying_engine_is_caught(self):
        rng = random.Random(5)
        stream = random_stream(
            zoo.E_T_QF, rng, rounds=60, delete_fraction=0.5
        )
        with pytest.raises(EngineStateError):
            compare_engines(
                zoo.E_T_QF,
                stream,
                [QHierarchicalEngine, LyingEngine],
                checkpoint_every=10,
            )

    def test_insert_only_streams_agree_with_liar(self):
        # With no deletes the liar is accidentally correct — the
        # comparator should NOT cry wolf.
        rng = random.Random(6)
        stream = [
            command
            for command in random_stream(
                zoo.E_T_QF, rng, rounds=40, delete_fraction=0.0
            )
        ]
        result = compare_engines(
            zoo.E_T_QF, stream, [QHierarchicalEngine, LyingEngine]
        )
        assert result.checkpoints >= 1


class TestDelayRecorderEdges:
    def test_empty_iterator_records_only_eoe(self):
        recorder = DelayRecorder()
        produced = recorder.consume(iter(()))
        assert produced == 0
        assert len(recorder.delays) == 1  # just the EOE delay

    def test_limit_zero_like_behaviour(self):
        recorder = DelayRecorder()
        produced = recorder.consume(iter(range(10)), limit=1)
        assert produced == 1
        assert recorder.count == 1

    def test_accumulates_across_consumes(self):
        recorder = DelayRecorder()
        recorder.consume(iter(range(3)))
        recorder.consume(iter(range(2)))
        assert recorder.count == 5
        assert len(recorder.delays) == 3 + 1 + 2 + 1


class TestScalingExperimentDeterminism:
    def test_same_seed_same_rngs(self):
        observed = []

        def measure(engine, n, rng):
            observed.append((engine, n, rng.random()))
            return 1.0

        ScalingExperiment(
            title="d", sizes=[10, 20], measure=measure, engines=["e"], seed=7
        ).run()
        first = list(observed)
        observed.clear()
        ScalingExperiment(
            title="d", sizes=[10, 20], measure=measure, engines=["e"], seed=7
        ).run()
        assert observed == first

    def test_results_per_engine_per_size(self):
        experiment = ScalingExperiment(
            title="d",
            sizes=[1, 2, 3],
            measure=lambda engine, n, rng: float(n),
            engines=["a", "b"],
        ).run()
        assert experiment.results["a"] == [1.0, 2.0, 3.0]
        assert len(experiment.speedups()) == 3
