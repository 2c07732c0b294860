"""Differential tests for the compiled update-plan layer.

The shipped engine (generated runners, zero-aware incremental counters,
the bulk loader + finalizers) must be observationally identical to the
seed reference implementation (``tests/reference_engine.py``): same
``snapshot()`` state, same count/answer/enumerate/contains, across
random effective update streams and bulk loads.  The reference engine
doubles as the oracle because it is the literal rendering of Section
6.4 that the seed test-suite (Figure 3, brute-force invariants) already
pins down.
"""

import random

import pytest

from repro.core.engine import QHierarchicalEngine
from repro.core.plans import loader_fuses_leaf, plan_summary
from repro.core.structure import ComponentStructure
from repro.core.validation import check_engine
from repro.cq import zoo
from repro.cq.analysis import find_violation
from repro.errors import EngineStateError
from repro.storage.database import Database
from repro.workloads.distributions import UniformDomain
from repro.workloads.streams import insert_only_stream, mixed_stream

from reference_engine import ReferenceEngine

QH_QUERIES = [
    query
    for query in zoo.PAPER_QUERIES.values()
    if find_violation(query) is None
] + [
    zoo.star_query(3, free_leaves=3),
    zoo.star_query(4, free_leaves=0),
]


def snapshots(engine) -> list:
    return [structure.snapshot() for structure in engine.structures]


def build_database(query, commands) -> Database:
    database = Database.empty_like(query)
    for command in commands:
        database.insert(command.relation, command.row)
    return database


@pytest.mark.parametrize("query", QH_QUERIES, ids=lambda q: q.name)
class TestCompiledVsReference:
    def test_random_stream_identical_state(self, query):
        rng = random.Random(101)
        stream = mixed_stream(rng, query, 1500, domain=UniformDomain(25))
        compiled = QHierarchicalEngine(query)
        reference = ReferenceEngine(query)
        for i, command in enumerate(stream):
            assert compiled.apply(command) == reference.apply(command)
            if i % 500 == 499:  # periodic deep checks along the stream
                assert snapshots(compiled) == snapshots(reference)
        assert snapshots(compiled) == snapshots(reference)
        assert compiled.count() == reference.count()
        assert compiled.answer() == reference.answer()
        assert compiled.result_set() == reference.result_set()

    def test_random_stream_invariants_hold(self, query):
        rng = random.Random(57)
        stream = mixed_stream(rng, query, 800, domain=UniformDomain(15))
        engine = QHierarchicalEngine(query)
        for command in stream:
            engine.apply(command)
        report = check_engine(engine)
        assert report.ok, str(report)

    def test_contains_agrees_along_stream(self, query):
        rng = random.Random(33)
        stream = mixed_stream(rng, query, 600, domain=UniformDomain(10))
        compiled = QHierarchicalEngine(query)
        reference = ReferenceEngine(query)
        for command in stream:
            compiled.apply(command)
            reference.apply(command)
        result = compiled.result_set()
        for row in list(result)[:50]:
            assert compiled.contains(row)
            assert reference.contains(row)
        arity = len(query.free)
        for _ in range(50):
            probe = tuple(rng.randrange(20) for _ in range(arity))
            assert compiled.contains(probe) == reference.contains(probe)

    def test_bulk_load_matches_replay_byte_identical(self, query):
        rng = random.Random(7)
        commands = insert_only_stream(rng, query, 1200, domain=UniformDomain(20))
        database = build_database(query, commands)
        bulk = QHierarchicalEngine(query, database)
        replay = ReferenceEngine(query, database.copy())
        assert snapshots(bulk) == snapshots(replay)
        assert bulk.count() == replay.count()
        assert bulk.result_set() == replay.result_set()
        assert check_engine(bulk).ok

    def test_updates_after_bulk_load(self, query):
        rng = random.Random(13)
        commands = insert_only_stream(rng, query, 600, domain=UniformDomain(12))
        database = build_database(query, commands)
        bulk = QHierarchicalEngine(query, database)
        replay = ReferenceEngine(query, database.copy())
        for command in mixed_stream(rng, query, 600, domain=UniformDomain(12)):
            assert bulk.apply(command) == replay.apply(command)
        assert snapshots(bulk) == snapshots(replay)
        assert check_engine(bulk).ok

    def test_delete_everything_returns_to_pristine(self, query):
        rng = random.Random(3)
        commands = insert_only_stream(rng, query, 300, domain=UniformDomain(8))
        database = build_database(query, commands)
        engine = QHierarchicalEngine(query, database)
        for relation in database.relations():
            for row in relation.rows:
                engine.delete(relation.name, row)
        assert engine.count() == 0
        assert not engine.answer()
        assert engine.item_count() == 0


class TestPlanCompilation:
    def test_plans_cover_every_atom(self):
        for query in QH_QUERIES:
            engine = QHierarchicalEngine(query)
            for structure in engine.structures:
                assert len(structure.plans) == len(structure.query.atoms)
                for index, plan in enumerate(structure.plans):
                    assert plan.atom_index == index
                    assert plan.relation == structure.query.atoms[index].relation
                    # extract must lay the row out in root-path order
                    assert len(plan.extract) == len(plan.path)

    def test_eq_checks_capture_repeated_variables(self):
        engine = QHierarchicalEngine(zoo.FIGURE_1)
        [structure] = engine.structures
        # R(x4, x1, x2, x1): positions 1 and 3 carry the same variable.
        assert (1, 3) in structure.plans[1].eq

    def test_eq_mismatch_is_structural_noop(self):
        from repro.cq.parser import parse_query

        query = parse_query("Q() :- R(x, y, x)")
        structure = ComponentStructure(query)
        before = structure.snapshot()
        structure.apply(True, "R", (1, 2, 9))  # x would need 1 and 9
        assert structure.snapshot() == before
        structure.apply(True, "R", (1, 2, 1))
        assert structure.answer()

    def test_runner_sources_exposed(self):
        engine = QHierarchicalEngine(zoo.E_T_QF)
        [structure] = engine.structures
        for plan in structure.plans:
            assert "def _runner" in plan.runner_source

    def test_plan_summary_shape(self):
        engine = QHierarchicalEngine(zoo.EXAMPLE_6_1)
        [structure] = engine.structures
        summary = plan_summary(structure.plans)
        assert summary["atom_plans"] == 5
        assert summary["max_path_depth"] == 3
        assert summary["plans_per_relation"] == {"R": 2, "E": 2, "S": 1}

    def test_engine_plan_stats(self):
        engine = QHierarchicalEngine(zoo.E_T_QF)
        stats = engine.plan_stats()
        assert stats["components"] == 1
        assert stats["atom_plans"] == 2
        assert stats["dispatch_width"] == {"E": 1, "T": 1}

    def test_loader_fusion_only_for_exclusive_leaves(self):
        engine = QHierarchicalEngine(zoo.E_T_QF)
        [structure] = engine.structures
        fused = {
            plan.relation: loader_fuses_leaf(plan) for plan in structure.plans
        }
        assert fused == {"E": True, "T": False}


class TestBulkLoadGuards:
    def test_bulk_load_requires_pristine_structure(self):
        structure = ComponentStructure(zoo.E_T_QF)
        structure.apply(True, "E", (1, 2))
        with pytest.raises(EngineStateError):
            structure.bulk_load({"E": [(3, 4)]})

    def test_bulk_load_direct_on_structure(self):
        structure = ComponentStructure(zoo.E_T_QF)
        structure.bulk_load({"E": [(1, 5), (2, 5)], "T": [(5,)]})
        assert structure.count() == 2
        assert sorted(structure.enumerate()) == [(1, 5), (2, 5)]


class TestPreloadParity:
    def test_extra_empty_relation_accepted_like_replay(self):
        from repro.storage.database import Schema

        database = Database(Schema({"E": 2, "T": 1, "UNRELATED": 2}))
        database.insert("E", (1, 2))
        database.insert("T", (2,))
        bulk = QHierarchicalEngine(zoo.E_T_QF, database)
        replay = ReferenceEngine(zoo.E_T_QF, database.copy())
        assert bulk.count() == replay.count() == 1

    def test_populated_foreign_relation_ignored_in_both_modes(self):
        # A shared store holds other views' relations: an engine reads
        # only its query's relations, in either preprocessing mode.
        from repro.storage.database import Schema

        database = Database(Schema({"E": 2, "T": 1, "UNRELATED": 2}))
        database.insert("UNRELATED", (1, 1))
        database.insert("E", (1, 2))
        database.insert("T", (2,))
        bulk = QHierarchicalEngine(zoo.E_T_QF, database)
        replay = ReferenceEngine(zoo.E_T_QF, database.copy())
        assert bulk.result_set() == replay.result_set() == {(1, 2)}
        assert snapshots(bulk) == snapshots(replay)

    def test_mismatched_arity_raises_in_both_modes(self):
        from repro.errors import SchemaError
        from repro.storage.database import Schema

        database = Database(Schema({"E": 3, "T": 1}))
        for engine_class in (QHierarchicalEngine, ReferenceEngine):
            with pytest.raises(SchemaError):
                engine_class(zoo.E_T_QF, database)


class TestBucketViewLiveness:
    def test_view_survives_bucket_delete_and_recreate(self):
        from repro.storage.indexes import HashIndex

        index = HashIndex((0,), [(1, "a")])
        view = index.probe((1,))
        index.remove((1, "a"))  # bucket emptied and pruned
        assert len(view) == 0
        index.add((1, "z"))  # fresh bucket under the same key
        assert set(view) == {(1, "z")}
        assert len(index) == 1  # O(1) size counter stays exact


class TestSessionExplainStats:
    def test_view_explain_carries_plan_stats(self):
        from repro.api.session import Session

        session = Session()
        view = session.view("v", "Q(x, y) :- E(x, y), T(y)")
        plan = view.explain()
        assert plan.stats is not None
        assert plan.stats["atom_plans"] == 2
        assert "plan stats:" in plan.render()

    def test_delta_ivm_reports_arms(self):
        from repro.api.session import Session

        session = Session()
        view = session.view("hard", "Q(x, y) :- S(x), E(x, y), T(y)")
        assert view.engine_name == "delta_ivm"
        stats = view.explain().stats
        assert stats["delta_arms"] == 3
