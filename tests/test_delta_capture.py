"""Single-pass delta capture (``apply_with_delta``).

The update runners report their own fit-list flips and
``ComponentStructure.apply_with_delta`` turns each report into result
tuples in one pass.  Checked here:

* a seeded randomized differential against the naive evaluator — the
  reported delta is exactly the result diff, duplicate-free, with
  ``count()`` and ``result_set()`` consistent after every command —
  over every q-hierarchical zoo query plus shapes chosen to hit each
  invariant the derivation rests on (self-join atoms sharing a path
  prefix, an eq-filtered atom, a Boolean gate component, a quantified
  tail below the free prefix), on the shipped engine and on the
  reference oracle, two stream seeds each, over a 3-value domain so flips
  at every depth and unfit-ancestor cases occur;
* ``version`` moves once per matching atom plan per effective command
  on ``apply`` and ``apply_with_delta`` alike, and the two leave
  identical structure state;
* the runner's report itself, on the textbook unfit-ancestor case.
"""

import itertools
import random

import pytest

from repro.core.engine import QHierarchicalEngine
from repro.core.structure import ComponentStructure
from repro.cq import zoo
from repro.cq.analysis import is_q_hierarchical
from repro.cq.parser import parse_query
from repro.eval_static.naive import evaluate
from repro.storage.database import Database
from repro.storage.updates import delete, insert

from reference_engine import ReferenceEngine, ReferenceStructure

DOMAIN = (0, 1, 2)

QUERIES = {
    name: query
    for name, query in zoo.PAPER_QUERIES.items()
    if is_q_hierarchical(query)
}
QUERIES.update(
    {
        "selfjoin_shared_prefix": parse_query(
            "Q(x, y, z, w) :- R(x, y, z), R(x, y, w), E(x, y)"
        ),
        "eq_filtered_atom": parse_query("Q(x, y) :- E(x, y), E(x, x)"),
        "boolean_gate": parse_query("Q(x, y) :- E(x, y), T(y), G(w)"),
        "quantified_tail": parse_query("Q(x, y) :- R(x, y, z), S(x, y, z, w)"),
    }
)

#: ``compiled=True`` is the shipped engine (generated runners),
#: ``compiled=False`` the reference oracle; the second id part names one
#: of two seeds of the stream (labels kept so the ids stay stable).
CONFIGS = [
    pytest.param(compiled, seed, id=f"compiled={compiled}-{seed}")
    for compiled in (True, False)
    for seed in ("python", "auto")
]


def build_engine(compiled, query, database):
    if compiled:
        return QHierarchicalEngine(query, database)
    return ReferenceEngine(query, database)


def relations_of(query):
    return sorted({(atom.relation, atom.arity) for atom in query.atoms})


def random_commands(query, rng, steps):
    """Uniform inserts/deletes over the 3-value domain; about half are
    set-semantics no-ops, which must report an empty delta."""
    relations = relations_of(query)
    for _ in range(steps):
        name, arity = rng.choice(relations)
        row = tuple(rng.choice(DOMAIN) for _ in range(arity))
        yield (insert if rng.random() < 0.5 else delete)(name, row)


def random_database(query, rng):
    """Half of all possible rows, so streams start from a bulk-loaded
    state (insert-replayed, on the oracle)."""
    database = Database.empty_like(query)
    for name, arity in relations_of(query):
        for row in itertools.product(DOMAIN, repeat=arity):
            if rng.random() < 0.5:
                database.insert(name, row)
    return database


@pytest.mark.parametrize("compiled, seed", CONFIGS)
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_delta_matches_naive_result_diff(name, compiled, seed):
    query = QUERIES[name]
    rng = random.Random(f"{name}/{compiled}/{seed}")
    engine = build_engine(compiled, query, random_database(query, rng))
    before = evaluate(query, engine.database)
    assert engine.result_set() == before
    for command in random_commands(query, rng, steps=300):
        added, removed = engine.apply_with_delta(command)
        after = evaluate(query, engine.database)
        assert len(set(added)) == len(added), (name, command)
        assert len(set(removed)) == len(removed), (name, command)
        assert set(added) == after - before, (name, command)
        assert set(removed) == before - after, (name, command)
        assert engine.count() == len(after)
        assert engine.result_set() == after
        before = after


@pytest.mark.parametrize("compiled", [True, False])
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_one_update_pass_per_matching_plan(name, compiled):
    """``apply_with_delta`` runs the same single pass as ``apply``: the
    structures' ``version`` advances by the number of matching atom
    plans (inserts and deletes alike, nothing for no-ops), and the twin
    fed through ``apply`` ends in identical state."""
    query = QUERIES[name]
    rng = random.Random(f"version/{name}/{compiled}")
    database = random_database(query, rng)
    subscribed = build_engine(compiled, query, database)
    plain = build_engine(compiled, query, database.copy())

    def versions(engine):
        return sum(structure.version for structure in engine.structures)

    for command in random_commands(query, rng, steps=300):
        matching = sum(
            1
            for structure in subscribed.structures
            for plan in structure.plans
            if plan.relation == command.relation and plan.matches(command.row)
        )
        seen = versions(subscribed), versions(plain)
        epoch = subscribed.epoch
        subscribed.apply_with_delta(command)
        effective = plain.apply(command)
        assert (subscribed.epoch != epoch) == effective
        expected = matching if effective else 0
        assert versions(subscribed) - seen[0] == expected, command
        assert versions(plain) - seen[1] == expected, command
    assert [s.snapshot() for s in subscribed.structures] == [
        s.snapshot() for s in plain.structures
    ]


# ---------------------------------------------------------------------------
# the runner's report, directly
# ---------------------------------------------------------------------------


STRUCTURES = {True: ComponentStructure, False: ReferenceStructure}


def run_atom(structure, atom_index, is_insert, row):
    """One atom's update through whichever loop the structure uses;
    returns the report and the delta rows it stands for."""
    plan = structure.plans[atom_index]
    if isinstance(structure, ReferenceStructure):
        report = structure._apply_atom(
            is_insert, atom_index, plan.path, plan.values_of(row)
        )
    else:
        report = structure.runners[atom_index](is_insert, row)
    rows = []
    if report is not None:
        plan.emit_delta(report, rows)
    return report, rows


@pytest.mark.parametrize("compiled", [True, False])
def test_runner_reports_flip_under_unfit_ancestor(compiled):
    # E_T_QF(x, y) = E(x, y) ∧ T(y): q-tree y → x, atom 0 = E, 1 = T.
    structure = STRUCTURES[compiled](zoo.E_T_QF)
    assert [plan.path for plan in structure.plans] == [("y", "x"), ("y",)]

    # E(a, b) without T(b): the x-item becomes fit (a flip at level 1),
    # its y-ancestor stays unfit, so no result tuple appears.
    report, rows = run_atom(structure, 0, True, ("a", "b"))
    flip, deepest = report
    assert (flip, deepest.node, deepest.key) == (1, "x", ("b", "a"))
    assert rows == []
    report, rows = run_atom(structure, 0, True, ("c", "b"))
    assert report[0] == 1 and rows == []

    # T(b) flips the y-item; the delta is every (·, b) tuple.
    report, rows = run_atom(structure, 1, True, ("b",))
    flip, deepest = report
    assert (flip, deepest.node, deepest.key) == (0, "y", ("b",))
    assert sorted(rows) == [("a", "b"), ("c", "b")]

    # Below a fit ancestor the flip is the delta tuple itself.
    report, rows = run_atom(structure, 0, True, ("d", "b"))
    assert report[0] == 1 and rows == [("d", "b")]
    report, rows = run_atom(structure, 0, False, ("d", "b"))
    assert report[0] == 1 and rows == [("d", "b")]

    # The mirrored deletes report the same tuples on the removed side.
    report, rows = run_atom(structure, 1, False, ("b",))
    assert report[0] == 0
    assert sorted(rows) == [("a", "b"), ("c", "b")]
    report, rows = run_atom(structure, 0, False, ("a", "b"))
    assert report[0] == 1 and rows == []
    assert structure.count() == 0


@pytest.mark.parametrize("compiled", [True, False])
def test_runner_reports_nothing_without_a_free_flip(compiled):
    # Q(x, y) = R(x, y, z): z is a quantified tail below the free chain.
    structure = STRUCTURES[compiled](parse_query("Q(x, y) :- R(x, y, z)"))
    report, rows = run_atom(structure, 0, True, (1, 2, 3))
    assert report[0] == 0 and rows == [(1, 2)]
    # A second witness flips only the quantified z-item.
    assert run_atom(structure, 0, True, (1, 2, 4)) == (None, [])
    assert run_atom(structure, 0, False, (1, 2, 3)) == (None, [])
    report, rows = run_atom(structure, 0, False, (1, 2, 4))
    assert report[0] == 0 and rows == [(1, 2)]


def test_structure_delta_sides():
    structure = ComponentStructure(zoo.E_T_QF)
    assert structure.apply_with_delta(True, "T", (2,)) == ((), ())
    assert structure.apply_with_delta(True, "E", (1, 2)) == (((1, 2),), ())
    assert structure.apply_with_delta(False, "T", (2,)) == ((), ((1, 2),))
