"""Items are sized by their q-tree node.

Each node of a component structure has one generated item class whose
``__slots__`` hold exactly that node's counters (``repro.core.items.
node_classes``); no item carries a dict.  These tests pin the layout,
what it costs per item, and that ``snapshot()`` still reports only the
non-zero ``C^i_ψ`` counters.
"""

import gc
import random
import tracemalloc

import pytest

from conftest import feed_example_6_1_sorted, random_stream
from repro.core.engine import QHierarchicalEngine
from repro.core.items import Item
from repro.cq import zoo
from repro.storage.database import Database

STAR_3 = zoo.star_query(3, free_leaves=3)
QUERIES = {"E_T_QF": zoo.E_T_QF, "STAR_3": STAR_3, "EXAMPLE_6_1": zoo.EXAMPLE_6_1}


def random_database(query, size, seed=0):
    """About ``size`` rows spread round-robin over the query's relations."""
    rng = random.Random(seed)
    database = Database.empty_like(query)
    relations = sorted({(atom.relation, atom.arity) for atom in query.atoms})
    domain = max(2, size // 10)
    for i in range(size):
        relation, arity = relations[i % len(relations)]
        database.insert(relation, tuple(rng.randrange(domain) for _ in range(arity)))
    return database


def all_items(engine):
    for structure in engine.structures:
        for node in structure.qtree.document_order():
            yield from structure.items_at(node)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_a_build_allocates_at_most_300_bytes_per_item(name):
    query = QUERIES[name]
    database = random_database(query, 10_000)
    QHierarchicalEngine(query, database.copy())  # warm imports and caches
    gc.collect()
    tracemalloc.start()
    try:
        engine = QHierarchicalEngine(query, database)
        allocated, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_item = allocated / engine.item_count()
    assert per_item <= 300, f"{name}: {per_item:.0f} B per item"


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_no_item_holds_a_dict_after_a_random_stream(name):
    query = QUERIES[name]
    engine = QHierarchicalEngine(query, random_database(query, 300, seed=1))
    for command in random_stream(query, random.Random(2), rounds=200, domain=6):
        engine.apply(command)
    items = list(all_items(engine))
    assert items
    for item in items:
        assert not hasattr(item, "__dict__"), item
        for slot in Item.__slots__ + type(item).__slots__:
            assert not isinstance(getattr(item, slot, None), dict), (item, slot)


@pytest.mark.parametrize(
    "query",
    [zoo.E_T_QF, STAR_3, zoo.EXAMPLE_6_1, zoo.FIGURE_1, zoo.star_query(4)],
    ids=lambda query: query.name,
)
def test_each_node_class_holds_exactly_its_counters(query):
    engine = QHierarchicalEngine(query)
    for structure in engine.structures:
        tree = structure.qtree
        for node, cls in structure.item_classes.items():
            children = tree.children.get(node, [])
            free_children = [u for u in children if u in structure.free]
            assert cls.node == node
            assert list(cls.atom_slot) == tree.atoms_at[node]
            assert list(cls.child_slot) == children
            assert list(cls.tchild_slot) == free_children
            assert list(cls.list_slot) == children
            assert cls.rep_slots == tuple(cls.atom_slot[a] for a in tree.rep[node])
            expected = (
                list(cls.atom_slot.values())
                + list(cls.child_slot.values())
                + list(cls.tchild_slot.values())
                + list(cls.list_slot.values())
            )
            assert list(cls.__slots__) == expected
            assert len(set(expected)) == len(expected)


#: Figure 3(a): (node, key) → (C, C̃, fit, non-zero C_ψ by atom index).
FIGURE_3A = {
    ("y'", ("a", "e")): (1, 1, True, {3: 1}),
    ("y'", ("a", "f")): (1, 1, True, {3: 1}),
    ("y'", ("b", "d")): (1, 1, True, {3: 1}),
    ("y'", ("b", "g")): (1, 1, True, {3: 1}),
    ("y'", ("b", "h")): (1, 1, True, {3: 1}),
    ("z'", ("a", "e", "a")): (1, 1, True, {1: 1}),
    ("z'", ("a", "e", "b")): (1, 1, True, {1: 1}),
    ("z'", ("a", "e", "c")): (1, 1, True, {1: 1}),
    ("z'", ("a", "f", "c")): (1, 1, True, {1: 1}),
    ("z'", ("b", "g", "a")): (1, 1, True, {1: 1}),
    ("z'", ("b", "g", "b")): (1, 1, True, {1: 1}),
    ("z'", ("b", "g", "c")): (1, 1, True, {1: 1}),
    ("z'", ("b", "p", "a")): (1, 1, True, {1: 1}),
    ("z'", ("b", "p", "b")): (1, 1, True, {1: 1}),
    ("z'", ("b", "p", "c")): (1, 1, True, {1: 1}),
    ("x", ("a",)): (14, 14, True, {0: 4, 1: 4, 2: 2, 3: 2, 4: 3}),
    ("x", ("b",)): (9, 9, True, {0: 6, 1: 6, 2: 3, 3: 3, 4: 2}),
    ("y", ("a", "e")): (6, 6, True, {0: 3, 1: 3, 2: 1, 4: 2}),
    ("y", ("a", "f")): (1, 1, True, {0: 1, 1: 1, 2: 1, 4: 1}),
    ("y", ("b", "d")): (0, 0, False, {2: 1}),
    ("y", ("b", "g")): (3, 3, True, {0: 3, 1: 3, 2: 1, 4: 1}),
    ("y", ("b", "h")): (0, 0, False, {2: 1}),
    ("y", ("b", "p")): (0, 0, False, {0: 3, 1: 3, 4: 1}),
    ("z", ("a", "e", "a")): (1, 1, True, {0: 1, 4: 1}),
    ("z", ("a", "e", "b")): (1, 1, True, {0: 1, 4: 1}),
    ("z", ("a", "e", "c")): (0, 0, False, {0: 1}),
    ("z", ("a", "f", "c")): (1, 1, True, {0: 1, 4: 1}),
    ("z", ("b", "g", "a")): (0, 0, False, {0: 1}),
    ("z", ("b", "g", "b")): (1, 1, True, {0: 1, 4: 1}),
    ("z", ("b", "g", "c")): (0, 0, False, {0: 1}),
    ("z", ("b", "p", "a")): (1, 1, True, {0: 1, 4: 1}),
    ("z", ("b", "p", "b")): (0, 0, False, {0: 1}),
    ("z", ("b", "p", "c")): (0, 0, False, {0: 1}),
}


def test_the_figure_3_snapshot_is_pinned():
    engine = QHierarchicalEngine(zoo.EXAMPLE_6_1)
    feed_example_6_1_sorted(engine)
    assert engine.structures[0].snapshot() == {
        "c_start": 23,
        "t_start": 23,
        "start_list": [("a",), ("b",)],
        "items": {
            key: {"weight": w, "tweight": t, "fit": fit, "c_atom": counts}
            for key, (w, t, fit, counts) in FIGURE_3A.items()
        },
    }
