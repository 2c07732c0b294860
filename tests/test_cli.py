"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestClassifyCommand:
    def test_q_hierarchical_query(self, capsys):
        status = main(["classify", "Q(x, y) :- E(x, y), T(y)"])
        out = capsys.readouterr().out
        assert status == 0
        assert "q-hierarchical:   True" in out

    def test_hard_query_shows_witness(self, capsys):
        status = main(["classify", "Q(x) :- E(x, y), T(y)"])
        out = capsys.readouterr().out
        assert status == 0
        assert "q-hierarchical:   False" in out
        assert "condition (ii)" in out
        assert "hard" in out

    def test_core_shown_when_it_folds(self, capsys):
        main(["classify", "Q() :- E(x, x), E(x, y), E(y, y)"])
        out = capsys.readouterr().out
        assert "homomorphic core:" in out

    def test_syntax_error_exit_code(self, capsys):
        status = main(["classify", "Q("])
        err = capsys.readouterr().err
        assert status == 2
        assert "error:" in err


class TestQTreeCommand:
    def test_prints_tree(self, capsys):
        status = main(["qtree", "Q(x, y) :- R(x, y), S(y)"])
        out = capsys.readouterr().out
        assert status == 0
        assert "rep:" in out
        assert "└─" in out

    def test_failure_prints_reason(self, capsys):
        status = main(["qtree", "Q(x, y) :- S(x), E(x, y), T(y)"])
        out = capsys.readouterr().out
        assert status == 1
        assert "no q-tree" in out
        assert "condition (i)" in out

    def test_multi_component(self, capsys):
        status = main(["qtree", "Q(x, u) :- R(x), U(u)"])
        out = capsys.readouterr().out
        assert status == 0
        assert out.count("component") == 2


class TestPlanCommand:
    def test_q_hierarchical_query_plans_theorem_32(self, capsys):
        status = main(["plan", "Q(x, y) :- E(x, y), T(y)"])
        out = capsys.readouterr().out
        assert status == 0
        assert "engine: qhierarchical (auto-selected)" in out
        assert "Theorem 3.2" in out

    def test_hard_query_plans_fallback_with_witness(self, capsys):
        status = main(["plan", "Q(x) :- E(x, y), T(y)"])
        out = capsys.readouterr().out
        assert status == 0
        assert "engine: delta_ivm (auto-selected)" in out
        assert "condition (ii)" in out

    def test_ucq_plans_union_engine(self, capsys):
        status = main(["plan", "Q(x) :- R(x); Q(x) :- S(x)"])
        out = capsys.readouterr().out
        assert status == 0
        assert "engine: ucq_union (auto-selected)" in out
        assert "kind:   ucq" in out

    def test_forced_engine(self, capsys):
        status = main(["plan", "--engine", "delta_ivm", "Q(x) :- R(x)"])
        out = capsys.readouterr().out
        assert status == 0
        assert "engine: delta_ivm (forced by caller)" in out
        # Lemma A.2's guarantees, stated for the Appendix ϕ2 engine.
        status = main(
            [
                "plan",
                "--engine",
                "phi2_appendix",
                "Q(x, y, z, w) :- E(x, x), E(x, y), E(y, y), E(z, w)",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "engine: phi2_appendix (forced by caller)" in out
        assert "no stated guarantee" not in out
        rows = {
            line.split()[0]: line.split(None, 1)[1]
            for line in out.splitlines()
            if line.startswith("  ")
        }
        assert rows["update"].startswith("O(1)")
        assert rows["delay"].startswith("O(1)")
        assert rows["count"].startswith("O(|E|)")
        assert rows["answer"] == "O(1)"
        assert "result diff" in rows["delta"]
        status = main(["plan", "--engine", "recompute", "Q(x) :- R(x)"])
        assert status == 2
        assert "unknown engine 'recompute'" in capsys.readouterr().err

    def test_ucq_with_hard_disjunct_exits_2(self, capsys):
        status = main(
            ["plan", "Q(x, y) :- S(x), E(x, y), T(y); Q(x, y) :- W(x, y)"]
        )
        err = capsys.readouterr().err
        assert status == 2
        assert "not q-hierarchical" in err

    def test_plan_has_no_engine_option_flags(self, capsys):
        status = main(["plan", "Q(x, y) :- E(x, y), T(y)"])
        assert status == 0
        out = capsys.readouterr().out
        assert "plan stats:" in out and "backend" not in out
        for retired in ("--backend", "--no-compiled", "--no-merged-loaders"):
            with pytest.raises(SystemExit) as exit_info:
                main(["plan", retired, "Q(x, y) :- E(x, y), T(y)"])
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestDemoCommand:
    def test_demo_reproduces_counts(self, capsys):
        status = main(["demo"])
        out = capsys.readouterr().out
        assert status == 0
        assert "23 (paper: 23)" in out
        assert "38 (paper: 38)" in out
