"""Generated code is a function of the structure's layout alone.

Every runner, delta emitter, loader, finalizer and walker source is
derived from the :class:`~repro.core.plans.Layout` of its component;
the item stores, start list and structure reach the code only as the
globals it is ``exec``'d in.  So a source compiles once per process:

* a second engine of a query already built makes no ``compile()`` call
  at all — preloaded, updated and read through a bound walker — and its
  functions share the first engine's code objects;
* a first empty build compiles no more sources than one per atom plan
  plus the walker: the result delta rides in its runner's source;
* ``plan.emit_delta`` is one generated function — one Python call
  however many tuples it emits (the hand-written emitter it replaces
  recursed once per item of every non-innermost off-chain fit list).

Calls are counted, not timed: ``builtins.compile`` is wrapped, and
frames are counted with ``sys.setprofile`` with the collector held off.
"""

import builtins
import gc
import sys

import pytest

from repro.core import plans
from repro.core.engine import QHierarchicalEngine
from repro.cq import zoo
from repro.storage.database import Database

STAR_3 = zoo.star_query(3, free_leaves=3)

#: (name, query, relation → rows, a bound read) per shape.
SHAPES = [
    ("E_T_QF", zoo.E_T_QF, {"E": [(1, 2), (3, 2)], "T": [(2,)]}, {"y": 2}),
    (
        "EXAMPLE_6_1",
        zoo.EXAMPLE_6_1,
        {"R": [(1, 2, 3), (1, 2, 4)], "E": [(1, 2), (1, 5)], "S": [(1, 2, 3)]},
        {"x": 1, "y": 2},
    ),
    (
        "STAR_3",
        STAR_3,
        {"S": [(1,)], "E1": [(1, 2)], "E2": [(1, 3)], "E3": [(1, 4)]},
        {"x": 1},
    ),
]

#: ``compile()`` calls of a first empty build: one per atom plan (the
#: runner and its delta) plus Algorithm 1's walker.
FIRST_BUILD = {"E_T_QF": 3, "EXAMPLE_6_1": 6, "STAR_3": 5}


def compile_calls(monkeypatch, action):
    """The number of ``builtins.compile`` calls ``action`` makes."""
    labels = []
    real = builtins.compile

    def counting(source, filename, *args, **kwargs):
        labels.append(filename)
        return real(source, filename, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "compile", counting)
        action()
    return len(labels)


def database_for(query, rows):
    database = Database.empty_like(query)
    for relation, tuples in rows.items():
        for row in tuples:
            database.insert(relation, row)
    return database


def use(query, rows, binding):
    """Build an engine over ``rows``, update it, read it (bound too)."""
    engine = QHierarchicalEngine(query, database_for(query, rows))
    for relation, tuples in rows.items():
        engine.delete(relation, tuples[0])
        engine.insert(relation, tuples[0])
    result = list(engine.enumerate()) + list(engine.enumerate_bound(binding))
    assert result
    return engine, result


@pytest.mark.parametrize(
    "name,query,rows,binding", SHAPES, ids=[shape[0] for shape in SHAPES]
)
def test_a_second_build_compiles_nothing(monkeypatch, name, query, rows, binding):
    plans._code.cache_clear()  # so that no eviction lands between the builds
    first, expected = use(query, rows, binding)
    built = []
    assert compile_calls(
        monkeypatch, lambda: built.append(use(query, rows, binding))
    ) == 0
    second, result = built[0]
    assert result == expected
    for old, new in zip(first.structures, second.structures):
        for a, b in zip(old.runners, new.runners):
            assert a.__code__ is b.__code__
        assert old.runners[0].__globals__["_st0"] is old
        assert new.runners[0].__globals__["_st0"] is new


@pytest.mark.parametrize(
    "name,query", [shape[:2] for shape in SHAPES], ids=[shape[0] for shape in SHAPES]
)
def test_a_first_empty_build_compiles_one_source_per_plan_and_the_walker(
    monkeypatch, name, query
):
    plans._code.cache_clear()  # a cold cache
    calls = compile_calls(monkeypatch, lambda: QHierarchicalEngine(query))
    assert calls <= FIRST_BUILD[name]


def delta_frames(leaves):
    """Python calls of ``emit_delta`` for an ``S(x)`` insert on STAR_3
    with ``leaves`` fit items under each of the three leaves."""
    engine = QHierarchicalEngine(STAR_3)
    for i in (1, 2, 3):
        for y in range(leaves):
            engine.insert(f"E{i}", (1, y))
    structure = engine.structures[0]
    plan = structure.plans[0]
    assert plan.relation == "S"
    assert "def _delta" in plan.runner_source
    report = structure.runners[0](True, (1,))
    assert report is not None
    out = []
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        plan.emit_delta(report, out)
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    assert sorted(out) == sorted(engine.enumerate())
    return calls, len(out)


def test_emit_delta_is_one_call_however_many_tuples_it_emits():
    assert delta_frames(1) == (1, 1)
    assert delta_frames(3) == (1, 27)
