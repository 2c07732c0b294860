"""Tests for the Session/View facade, the planner and batches."""

import pytest

from repro.api import Plan, Planner, Session, parse_view
from repro.cq import zoo
from repro.cq.parser import parse_query
from repro.errors import (
    EngineStateError,
    NotQHierarchicalError,
    QuerySyntaxError,
    SchemaError,
    UpdateError,
)
from repro.extensions.ucq import UnionOfCQs
from repro.interface import ENGINE_REGISTRY, make_engine
from repro.storage.database import Database
from repro.storage.updates import compress_commands, delete, insert

QH_TEXT = "Feed(me, a, p) :- Follows(me, a), Posted(a, p)"
HARD_TEXT = "Q(x, y) :- S(x), E(x, y), T(y)"  # the paper's ϕ_S-E-T
UCQ_TEXT = """
    Alert(d, e) :- Event(d, e), Flagged(d)
    Alert(d, e) :- Critical(d, e)
"""


class TestParseView:
    def test_single_rule_is_cq(self):
        query = parse_view(QH_TEXT)
        assert query.free == ("me", "a", "p")
        assert not isinstance(query, UnionOfCQs)

    def test_multiple_rules_are_ucq(self):
        union = parse_view(UCQ_TEXT)
        assert isinstance(union, UnionOfCQs)
        assert len(union.disjuncts) == 2

    def test_semicolon_separator(self):
        union = parse_view("Q(x) :- R(x); Q(x) :- S(x)")
        assert isinstance(union, UnionOfCQs)

    def test_name_override(self):
        assert parse_view(QH_TEXT, name="feed").name == "feed"
        assert parse_view(UCQ_TEXT, name="alerts").name == "alerts"

    def test_empty_text_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_view("   # only a comment\n")


class TestPlanner:
    def test_q_hierarchical_cq_gets_theorem_32_engine(self):
        plan = Planner().plan(QH_TEXT)
        assert plan.engine == "qhierarchical"
        assert plan.auto and plan.kind == "cq"
        assert plan.classification.q_hierarchical
        assert plan.guarantees["count"] == "O(1)"

    def test_hard_cq_falls_back_to_delta_ivm(self):
        plan = Planner().plan(HARD_TEXT)
        assert plan.engine == "delta_ivm"
        assert "condition (i)" in plan.reason
        assert not plan.classification.q_hierarchical

    def test_ucq_gets_union_engine(self):
        plan = Planner().plan(UCQ_TEXT)
        assert plan.engine == "ucq_union"
        assert plan.kind == "ucq"
        assert plan.counting_exact

    def test_ucq_with_hard_intersection_flags_counting(self):
        plan = Planner().plan(
            "Q(x, y) :- A(x), E(x, y); Q(x, y) :- E(x, y), B(y)"
        )
        assert plan.engine == "ucq_union"
        assert not plan.counting_exact
        assert "degrades to enumeration" in plan.render()

    def test_ucq_with_hard_disjunct_refused_with_witness(self):
        with pytest.raises(NotQHierarchicalError) as excinfo:
            Planner().plan(f"{HARD_TEXT}; Q(x, y) :- W(x, y)")
        assert excinfo.value.violation is not None

    def test_single_disjunct_union_planned_as_cq(self):
        plan = Planner().plan(UnionOfCQs([parse_query(QH_TEXT)]))
        assert plan.kind == "cq"
        assert plan.engine == "qhierarchical"

    def test_forced_engine(self):
        plan = Planner().plan(QH_TEXT, engine="delta_ivm")
        assert plan.engine == "delta_ivm" and not plan.auto
        assert "forced" in plan.render()

    def test_the_recompute_baseline_is_not_a_served_engine(self):
        with pytest.raises(EngineStateError, match="unknown engine 'recompute'"):
            Planner().plan(HARD_TEXT, engine="recompute")
        with pytest.raises(EngineStateError, match="unknown engine 'recompute'"):
            Session().view("v", HARD_TEXT, engine="recompute")
        with pytest.raises(TypeError):
            Planner(fallback="recompute")

    def test_forced_infeasible_engine_refused_at_plan_time(self):
        # A plan must never advertise guarantees its build() would
        # refuse to deliver.
        with pytest.raises(NotQHierarchicalError):
            Planner().plan(HARD_TEXT, engine="qhierarchical")
        with pytest.raises(NotQHierarchicalError):
            Planner().plan(f"{HARD_TEXT}; Q(x, y) :- W(x, y)", engine="ucq_union")

    def test_plan_guarantees_are_not_shared_state(self):
        plan = Planner().plan(QH_TEXT)
        plan.guarantees["count"] = "corrupted"
        assert Planner().plan(QH_TEXT).guarantees["count"] == "O(1)"

    def test_forced_unknown_engine(self):
        with pytest.raises(EngineStateError):
            Planner().plan(QH_TEXT, engine="nope")

    def test_forced_cq_engine_on_union_rejected(self):
        with pytest.raises(EngineStateError):
            Planner().plan(UCQ_TEXT, engine="delta_ivm")

    def test_plan_build_runs_preprocessing(self):
        db = Database.from_dict({"E": [(1, 2)], "T": [(2,)]})
        engine = Planner().plan(zoo.E_T_QF).build(db)
        assert engine.name == "qhierarchical"
        assert engine.count() == 1

    def test_render_mentions_all_aspects(self):
        text = Planner().plan(QH_TEXT).render()
        for aspect in ("preprocessing", "update", "delay", "count", "answer"):
            assert aspect in text


class TestMakeEngineAuto:
    def test_registry_lists_union_engine(self):
        assert "ucq_union" in ENGINE_REGISTRY

    def test_auto_picks_by_dichotomy(self):
        assert make_engine("auto", QH_TEXT).name == "qhierarchical"
        assert make_engine("auto", HARD_TEXT).name == "delta_ivm"
        assert make_engine("auto", UCQ_TEXT).name == "ucq_union"

    def test_auto_with_query_object_and_database(self):
        db = Database.from_dict({"E": [(1, 2)], "T": [(2,)]})
        engine = make_engine("auto", zoo.E_T_QF, db)
        assert engine.result_set() == {(1, 2)}

    def test_named_engine_with_text(self):
        engine = make_engine("delta_ivm", QH_TEXT)
        assert engine.name == "delta_ivm"

    def test_union_engine_from_registry(self):
        engine = make_engine("ucq_union", UCQ_TEXT)
        engine.insert("Critical", (1, 2))
        assert engine.result_set() == {(1, 2)}

    def test_union_rejected_by_cq_engine(self):
        with pytest.raises(EngineStateError):
            make_engine("qhierarchical", UCQ_TEXT)


class TestSessionViews:
    def test_view_auto_selection_triple(self):
        session = Session()
        assert session.view("a", QH_TEXT).explain().engine == "qhierarchical"
        assert session.view("b", HARD_TEXT).explain().engine == "delta_ivm"
        assert session.view("c", UCQ_TEXT).explain().engine == "ucq_union"

    def test_shared_updates_fan_out(self):
        session = Session()
        flagged = session.view("flagged", "V(d, e) :- Event(d, e), Flagged(d)")
        events = session.view("events", "W(d, e) :- Event(d, e)")
        session.insert("Event", (1, 2))
        session.insert("Flagged", (1,))
        assert flagged.result_set() == {(1, 2)}
        assert events.result_set() == {(1, 2)}
        session.delete("Event", (1, 2))
        assert flagged.count() == 0 and events.count() == 0

    def test_late_view_preloaded_with_current_state(self):
        session = Session()
        session.view("events", "W(d, e) :- Event(d, e)")
        session.insert("Event", (1, 2))
        session.insert("Event", (3, 4))
        late = session.view("late", "V(e, d) :- Event(d, e)")
        assert late.result_set() == {(2, 1), (4, 3)}

    def test_update_not_fanned_to_unrelated_view(self):
        session = Session()
        events = session.view("events", "W(d, e) :- Event(d, e)")
        pings = session.view("pings", "P(x) :- Ping(x)")
        session.insert("Ping", (7,))
        # One shared store holds the row; only the Ping view's engine
        # ran an update for it.
        assert events.engine.database is pings.engine.database
        assert (events.epoch, pings.epoch) == (0, 1)

    def test_duplicate_view_name(self):
        session = Session()
        session.view("v", QH_TEXT)
        with pytest.raises(EngineStateError):
            session.view("v", QH_TEXT)

    def test_unknown_relation_rejected(self):
        session = Session()
        session.view("v", QH_TEXT)
        with pytest.raises(SchemaError):
            session.insert("Nope", (1,))

    def test_arity_check(self):
        session = Session()
        session.view("v", QH_TEXT)
        with pytest.raises(UpdateError):
            session.insert("Follows", (1, 2, 3))

    def test_arity_conflict_across_views(self):
        session = Session()
        session.view("v", "Q(x) :- R(x)")
        with pytest.raises(SchemaError):
            session.view("w", "Q(x, y) :- R(x, y)")

    def test_getitem_contains_drop(self):
        session = Session()
        view = session.view("v", QH_TEXT)
        assert session["v"] is view
        assert "v" in session and "w" not in session
        session.drop_view("v")
        assert "v" not in session
        with pytest.raises(EngineStateError):
            session["v"]
        with pytest.raises(EngineStateError):
            session.drop_view("v")

    def test_dropped_view_no_longer_updated(self):
        session = Session()
        view = session.view("v", "W(d, e) :- Event(d, e)")
        session.drop_view("v")
        session.insert("Event", (1, 2))
        assert view.count() == 0

    def test_ingest_and_database_snapshot(self):
        session = Session()
        session.view("v", zoo.E_T_QF)
        db = Database.from_dict({"E": [(1, 2)], "T": [(2,)]})
        assert session.ingest(db) == 2
        assert session.cardinality == 2
        assert session.database == db
        assert session.rows("E") == {(1, 2)}

    def test_contains_with_and_without_engine_support(self):
        session = Session()
        fast = session.view("fast", QH_TEXT)
        slow = session.view("slow", HARD_TEXT)
        session.insert("Follows", ("me", "ada"))
        session.insert("Posted", ("ada", "p1"))
        session.insert("S", (1,))
        session.insert("E", (1, 2))
        session.insert("T", (2,))
        assert fast.contains(("me", "ada", "p1"))  # O(1) engine probe
        assert slow.contains((1, 2))  # result-set fallback
        assert not slow.contains((2, 1))

    def test_repr(self):
        session = Session()
        session.view("v", QH_TEXT)
        assert "v:qhierarchical" in repr(session)


class TestBatch:
    def test_net_effect_compression_stats(self):
        session = Session()
        session.view("v", "W(d, e) :- Event(d, e)")
        session.insert("Event", (9, 9))
        with session.batch() as batch:
            batch.insert("Event", (1, 2))
            batch.delete("Event", (1, 2))  # cancels the insert
            batch.insert("Event", (3, 4))
            batch.insert("Event", (3, 4))  # duplicate buffer entry
            batch.insert("Event", (9, 9))  # no-op vs current state
            batch.delete("Event", (5, 6))  # delete of absent tuple
        assert batch.stats == {"buffered": 6, "net": 1, "applied": 1}
        assert session["v"].result_set() == {(9, 9), (3, 4)}

    def test_insert_then_delete_of_present_tuple_nets_to_delete(self):
        session = Session()
        session.view("v", "W(d, e) :- Event(d, e)")
        session.insert("Event", (1, 2))
        with session.batch() as batch:
            batch.insert("Event", (1, 2))
            batch.delete("Event", (1, 2))
        assert batch.stats["net"] == 1
        assert session["v"].count() == 0

    def test_exception_rolls_back_everything(self):
        session = Session()
        session.view("v", "W(d, e) :- Event(d, e)")
        with pytest.raises(RuntimeError):
            with session.batch() as batch:
                batch.insert("Event", (1, 2))
                raise RuntimeError("boom")
        assert session["v"].count() == 0
        assert session.cardinality == 0

    def test_bad_command_aborts_transaction(self):
        session = Session()
        session.view("v", "W(d, e) :- Event(d, e)")
        with pytest.raises(SchemaError):
            with session.batch() as batch:
                batch.insert("Event", (1, 2))
                batch.insert("Nope", (1,))
        assert session["v"].count() == 0

    def test_direct_updates_blocked_while_batch_open(self):
        session = Session()
        session.view("v", "W(d, e) :- Event(d, e)")
        with session.batch() as batch:
            with pytest.raises(EngineStateError):
                session.insert("Event", (1, 2))
            batch.insert("Event", (3, 4))
        assert session["v"].result_set() == {(3, 4)}

    def test_view_registration_blocked_while_batch_open(self):
        session = Session()
        session.view("v", "W(d, e) :- Event(d, e)")
        with session.batch():
            with pytest.raises(EngineStateError):
                session.view("w", "P(x) :- Ping(x)")

    def test_nested_batches_rejected(self):
        session = Session()
        session.view("v", "W(d, e) :- Event(d, e)")
        with session.batch():
            with pytest.raises(EngineStateError):
                session.batch().__enter__()

    def test_batches_are_one_shot(self):
        # Re-entering a finished batch would replay its stale commands
        # (their net effect was computed against the old state).
        session = Session()
        session.view("v", "W(d, e) :- Event(d, e)")
        batch = session.batch()
        with batch:
            batch.insert("Event", (1, 2))
        session.delete("Event", (1, 2))
        with pytest.raises(EngineStateError):
            with batch:
                pass
        assert session["v"].count() == 0  # (1, 2) was not resurrected

    def test_rolled_back_batch_cannot_be_reused(self):
        session = Session()
        session.view("v", "W(d, e) :- Event(d, e)")
        batch = session.batch()
        with pytest.raises(RuntimeError):
            with batch:
                raise RuntimeError("boom")
        with pytest.raises(EngineStateError):
            batch.__enter__()

    def test_unopened_batch_rejects_commands(self):
        session = Session()
        session.view("v", "W(d, e) :- Event(d, e)")
        with pytest.raises(EngineStateError):
            session.batch().insert("Event", (1, 2))

    def test_apply_all_and_len(self):
        session = Session()
        session.view("v", "W(d, e) :- Event(d, e)")
        commands = [insert("Event", (i, i)) for i in range(5)]
        with session.batch() as batch:
            batch.apply_all(commands)
            assert len(batch) == 5
        assert session["v"].count() == 5

    def test_batch_fans_out_to_ucq_view(self):
        session = Session()
        alerts = session.view("alerts", UCQ_TEXT)
        with session.batch() as batch:
            batch.insert("Event", (1, 2))
            batch.insert("Flagged", (1,))
            batch.insert("Critical", (1, 2))  # duplicate output tuple
            batch.insert("Critical", (5, 6))
        assert alerts.result_set() == {(1, 2), (5, 6)}
        assert alerts.count() == 2


class TestCompressCommands:
    def test_last_op_wins_and_state_dedup(self):
        present = {("R", (1,)): True}
        commands = [
            insert("R", (1,)),  # present already → dropped
            insert("R", (2,)),
            delete("R", (2,)),  # cancels to delete-of-absent → dropped
            delete("R", (3,)),  # absent → dropped
            insert("R", (4,)),
        ]
        net = compress_commands(
            commands, lambda rel, row: present.get((rel, row), False)
        )
        assert net == [insert("R", (4,))]

    def test_preserves_first_touch_order(self):
        commands = [insert("R", (2,)), insert("R", (1,)), insert("R", (2,))]
        net = compress_commands(commands, lambda rel, row: False)
        assert net == [insert("R", (2,)), insert("R", (1,))]
