"""The generated fit-list walkers against the hand-written Algorithm 1.

``ComponentStructure.enumerate`` / ``enumerate_bound`` and the engine's
product enumeration run generated code (``compile_walker``); the one
hand-written walk left, ``algorithm1``, is the oracle.  Everything here
compares *sequences* — the generated order must be Algorithm 1's order
tuple for tuple, or cursors, snapshots and replays would shift.
"""

import itertools
import random

import pytest

from conftest import random_stream
from test_serving import SELFJOIN_QUERIES
from repro.core.engine import QHierarchicalEngine
from repro.core.enumeration import algorithm1
from repro.cq import zoo
from repro.cq.analysis import is_q_hierarchical
from repro.cq.parser import parse_query
from repro.errors import EngineStateError, QueryStructureError
from repro.storage.database import Database

TWO_COMPONENTS = parse_query("Q(u, x, y) :- E(x, y), T(u)")
BOOLEAN_COMPONENT = parse_query("Q(y, x) :- E(x, y), T(y), B(w, w)")

QUERIES = (
    [(n, q) for n, q in zoo.PAPER_QUERIES.items() if is_q_hierarchical(q)]
    + [(n, q) for n, q in SELFJOIN_QUERIES if n not in zoo.PAPER_QUERIES]
    + [
        ("star3", zoo.star_query(3, free_leaves=3)),
        ("two_components", TWO_COMPONENTS),
        ("boolean_component", BOOLEAN_COMPONENT),
    ]
)


def engine_oracle(engine):
    """The engine's expected sequence: the nested-loop product of the
    components' ``algorithm1`` sequences, first component outermost,
    each tuple laid out in the query's output-variable order."""
    out = []
    parts = [list(algorithm1(s)) for s in engine.structures]
    for combination in itertools.product(*parts):
        value = {}
        for structure, row in zip(engine.structures, combination):
            value.update(zip(structure.query.free, row))
        out.append(tuple(value[v] for v in engine.query.free))
    return out


def subsets(variables):
    for size in range(1, len(variables) + 1):
        yield from itertools.combinations(variables, size)


def is_ancestor_closed(structure, bound):
    parent = structure.qtree.parent
    return all(parent[v] is None or parent[v] in bound for v in bound)


def carries(row, free, binding):
    return all(row[free.index(v)] == value for v, value in binding.items())


def check_unbound(engine):
    for structure in engine.structures:
        assert list(structure.enumerate()) == list(algorithm1(structure))
    assert list(engine.enumerate()) == engine_oracle(engine)


def check_every_binding(engine, rng):
    """Every subset of free variables, bound to values of a present
    tuple (a hit) and with one value replaced by an absent one (a
    miss), per component and through the engine."""
    for structure in engine.structures:
        free = structure.query.free
        plain = list(algorithm1(structure))
        for bound in subsets(free):
            hit = rng.choice(plain) if plain else (0,) * len(free)
            for miss in (False, True):
                binding = {v: hit[free.index(v)] for v in bound}
                if miss:
                    binding[rng.choice(bound)] = "absent"
                if is_ancestor_closed(structure, bound):
                    expected = list(algorithm1(structure, pinned=binding))
                else:
                    expected = [t for t in plain if carries(t, free, binding)]
                assert list(structure.enumerate_bound(binding)) == expected
    free = engine.query.free
    plain = engine_oracle(engine)
    for bound in subsets(free):
        hit = rng.choice(plain) if plain else (0,) * len(free)
        binding = {v: hit[free.index(v)] for v in bound}
        expected = [t for t in plain if carries(t, free, binding)]
        assert list(engine.enumerate_bound(binding)) == expected


@pytest.mark.parametrize("name,query", QUERIES)
def test_walkers_emit_algorithm1_order_under_updates(name, query):
    rng = random.Random(name)
    stream = random_stream(query, rng, rounds=160, domain=4)
    preload = Database.empty_like(query)
    for command in stream[:80]:
        command.apply_to(preload)
    engine = QHierarchicalEngine(query, preload)  # bulk-loaded state
    check_unbound(engine)
    check_every_binding(engine, rng)
    for command in stream[80:]:
        engine.apply(command)
    check_unbound(engine)
    check_every_binding(engine, rng)
    for command in reversed(stream):  # mostly deletes: thin the lists out
        engine.apply(command.inverse())
        if rng.random() < 0.1:
            check_unbound(engine)
    check_unbound(engine)


def loaded_et():
    """E_T_QF (root y, child x) with an unfit root item y=5."""
    engine = QHierarchicalEngine(zoo.E_T_QF)
    for row in [(1, 2), (3, 2), (None, 2), (1, None), (4, 5)]:
        engine.insert("E", row)
    engine.insert("T", (2,))
    engine.insert("T", (None,))
    return engine


def test_none_is_a_bound_constant_like_any_other():
    engine = loaded_et()
    structure = engine.structures[0]
    # y is the root: pinned.  x hangs below it: a filter when bound alone.
    assert list(engine.enumerate_bound({"y": None})) == [(1, None)]
    assert list(engine.enumerate_bound({"x": None})) == [(None, 2)]
    assert list(engine.enumerate_bound({"x": None, "y": 2})) == [(None, 2)]
    assert list(engine.enumerate_bound({"x": None, "y": None})) == []
    assert list(structure.enumerate_bound({"y": None})) == list(
        algorithm1(structure, pinned={"y": None})
    )


def test_pinned_prefix_without_a_fit_item_is_empty():
    engine = loaded_et()
    assert list(engine.enumerate_bound({"y": 99})) == []  # no item
    assert list(engine.enumerate_bound({"y": 5})) == []  # item, but unfit
    assert list(engine.enumerate_bound({"y": 5, "x": 4})) == []
    engine.insert("T", (5,))
    assert list(engine.enumerate_bound({"y": 5})) == [(4, 5)]


def test_one_walker_per_bound_set_reused_across_values():
    engine = loaded_et()
    structure = engine.structures[0]
    assert set(structure.walker_sources()) == {()}
    assert list(engine.enumerate_bound({"y": 2})) == [(1, 2), (3, 2), (None, 2)]
    compiled = structure.walker_sources()
    assert set(compiled) == {(), ("y",)}
    assert list(engine.enumerate_bound({"y": None})) == [(1, None)]
    assert list(engine.enumerate_bound({"y": 99})) == []
    assert structure.walker_sources() == compiled  # same code, new arguments
    list(engine.enumerate_bound({"y": 2, "x": 1}))
    assert set(structure.walker_sources()) == {(), ("y",), ("x", "y")}
    assert engine.plan_stats()["bound_walkers"] == ["x,y", "y"]
    assert engine.plan_stats()["free_depth"] == 2


def test_generated_walkers_are_flat():
    """One generator, no delegation: the per-level frames are gone."""
    engine = QHierarchicalEngine(zoo.EXAMPLE_6_1)
    list(engine.enumerate_bound({"x": 1, "z'": 2}))
    for source in engine.structures[0].walker_sources().values():
        assert source.count("yield") == 1
        assert "yield from" not in source
        assert source.count("while ") + source.count(".get(") == 5


def test_unknown_bound_variable_is_rejected():
    engine = loaded_et()
    with pytest.raises(QueryStructureError):
        engine.structures[0].enumerate_bound({"nope": 1})
    with pytest.raises(QueryStructureError):
        engine.enumerate_bound({"nope": 1})


def stale_walks(engine, binding):
    yield engine.enumerate()
    yield engine.enumerate_bound(binding)
    for structure in engine.structures:
        if structure.query.free:
            yield structure.enumerate()


@pytest.mark.parametrize(
    "query,binding",
    [
        (zoo.E_T_QF, {"y": 2}),
        (zoo.E_T_QF, {"x": 1}),
        (TWO_COMPONENTS, {"u": 7}),
        (BOOLEAN_COMPONENT, {"y": 2}),
    ],
)
def test_update_between_two_nexts_raises_on_resume(query, binding):
    engine = QHierarchicalEngine(query)
    rows = {"E": [(1, 2), (3, 2), (5, 2)], "T": [(2,), (7,)], "B": [(0, 0)]}
    for relation in query.relations:
        for row in rows[relation]:
            engine.insert(relation, row)
    fresh = 10
    for walk in stale_walks(engine, binding):
        next(walk)
        fresh += 1
        engine.insert("E", (fresh, 2))  # one write per free component
        engine.insert("T", (fresh,))
        with pytest.raises(EngineStateError):
            next(walk)
