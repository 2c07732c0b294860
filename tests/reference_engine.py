"""The seed's literal rendering of Section 6.4 — the differential oracle.

``repro.core`` runs every update through generated per-atom runners and
preprocesses through one generated bulk loader.  This module keeps the
code they replaced, verbatim: ``_unify`` builds a binding dict per
tuple, ``_lemma_6_3`` / ``_lemma_6_4`` recompute the counter products
from scratch, and preprocessing replays the initial database as single
insertions.  Its items are the structure's own node classes, their
counters read and written through the cold accessors of
:class:`~repro.core.items.Item` (``atom_count``, ``child_total``, …)
instead of the generated slot code.  It is slow and obviously the
paper, which is what makes it the oracle the differential suites (and
the vs-seed rows of ``benchmarks/bench_update_throughput.py``) hold the
shipped engine to: both must maintain byte-identical ``snapshot()``
state.

Test-only by construction: :class:`ReferenceEngine` is not registered,
and no option, CLI flag or wire field reaches it — it plugs into the
shipped engine through ``QHierarchicalEngine.structure_class`` alone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine import QHierarchicalEngine
from repro.core.items import Item
from repro.core.qtree import QTree
from repro.core.structure import ComponentStructure
from repro.cq.query import ConjunctiveQuery
from repro.errors import EngineStateError
from repro.interface import DynamicEngine
from repro.storage.database import Constant, Database, Row

__all__ = ["ReferenceStructure", "ReferenceEngine"]


class ReferenceStructure(ComponentStructure):
    """A :class:`ComponentStructure` updated by the seed loop."""

    def __init__(
        self, component: ConjunctiveQuery, qtree: Optional[QTree] = None
    ):
        super().__init__(component, qtree)
        tree = self.qtree
        # Per atom: the root path of the node representing it, i.e. the
        # variable order in which update values are laid out.
        self._atom_paths: List[Tuple[str, ...]] = [
            tree.path[tree.rep_node_of(index)]
            for index in range(len(component.atoms))
        ]
        self._free_children: Dict[str, List[str]] = {
            v: [u for u in tree.children.get(v, ()) if u in self.free]
            for v in tree.parent
        }

    def apply(self, is_insert: bool, relation: str, row: Row) -> None:
        self._apply_reference(is_insert, relation, row)

    def apply_with_delta(
        self, is_insert: bool, relation: str, row: Row
    ) -> Tuple[Tuple[Row, ...], Tuple[Row, ...]]:
        if not self._has_free:
            # The Boolean case compares C_start around self.apply().
            return super().apply_with_delta(is_insert, relation, row)
        rows: List[Row] = []
        self._apply_reference(is_insert, relation, tuple(row), rows)
        delta = tuple(rows)
        return (delta, ()) if is_insert else ((), delta)

    def _apply_reference(
        self,
        is_insert: bool,
        relation: str,
        row: Row,
        delta_rows: Optional[List[Row]] = None,
    ) -> None:
        """The seed update loop: scan atoms, unify, recompute products.

        With ``delta_rows`` (from :meth:`apply_with_delta`) each atom's
        result delta is appended to it right after the atom's update.
        """
        for atom_index, atom in enumerate(self.query.atoms):
            if atom.relation != relation:
                continue
            binding = self._unify(atom.args, row)
            if binding is None:
                continue  # repeated-variable pattern does not match
            path = self._atom_paths[atom_index]
            values = tuple(binding[v] for v in path)
            report = self._apply_atom(is_insert, atom_index, path, values)
            if report is not None and delta_rows is not None:
                self.plans[atom_index].emit_delta(report, delta_rows)

    @staticmethod
    def _unify(args: Tuple[str, ...], row: Row) -> Optional[Dict[str, Constant]]:
        """Match a tuple against an atom's argument pattern.

        Returns the variable binding, or ``None`` when a repeated
        variable would need two different values (the paper's side
        condition ``z_s = z_t ⇒ b_s = b_t``).
        """
        binding: Dict[str, Constant] = {}
        for var, value in zip(args, row):
            existing = binding.get(var)
            if existing is None:
                binding[var] = value
            elif existing != value:
                return None
        return binding

    def _apply_atom(
        self,
        is_insert: bool,
        atom_index: int,
        path: Tuple[str, ...],
        values: Row,
    ) -> Optional[Tuple[int, Item]]:
        """One atom's Section 6.4 update; reports like a generated
        runner: ``(shallowest flipped free level, deepest free chain
        item)``, or ``None`` when no free item changed fitness."""
        self.version += 1
        depth = len(path)
        flip = -1

        # Locate the item chain i_1, ..., i_d along the path, creating
        # missing items top-down on insert (an item's parent pointer
        # must reference an existing item).
        chain: List[Item] = []
        parent: Optional[Item] = None
        for j in range(depth):
            store = self._items[path[j]]
            key = values[: j + 1]
            item = store.get(key)
            if item is None:
                if not is_insert:
                    raise EngineStateError(
                        f"delete touches missing item [{path[j]}, {key!r}]; "
                        "was the command filtered for set semantics?"
                    )
                item = self.item_classes[path[j]](key, parent)
                store[key] = item
            chain.append(item)
            parent = item

        delta = 1 if is_insert else -1

        # Bottom-up pass: steps 1-5 of Section 6.4 (2a/4a of 6.5).
        for j in range(depth - 1, -1, -1):
            item = chain[j]
            node = path[j]

            # Step 1: adjust C^i_ψ for the updated atom.
            item.add_atom_count(atom_index, delta)

            # Step 2: recompute C^i via Lemma 6.3.
            old_weight = item.weight
            new_weight = self._lemma_6_3(item)
            item.weight = new_weight

            # Step 2a: recompute C̃^i via Lemma 6.4 (free nodes only).
            node_free = node in self.free
            if node_free:
                old_tweight = item.tweight
                new_tweight = self._lemma_6_4(item)
                item.tweight = new_tweight

            # Step 3: maintain the fit list membership.
            if j == 0:
                target = self.start
            else:
                target = chain[j - 1].list_for(node)
            if new_weight > 0 and not item.in_list:
                target.append(item)
                if node_free:
                    flip = j
            elif new_weight == 0 and item.in_list:
                target.remove(item)
                if node_free:
                    flip = j

            # Step 4 / 4a: propagate the weight deltas one level up.
            if j == 0:
                self.c_start += new_weight - old_weight
                if node_free:
                    self.t_start += new_tweight - old_tweight
            else:
                parent_item = chain[j - 1]
                parent_item.add_child_total(node, new_weight - old_weight)
                if node_free:
                    parent_item.add_tchild_total(
                        node, new_tweight - old_tweight
                    )

            # Step 5: drop items that lost their last supporting tuple.
            if not is_insert and not item.has_support():
                del self._items[node][item.key]

        if flip < 0:
            return None
        return flip, chain[self.plans[atom_index].free_depth - 1]

    def _lemma_6_3(self, item: Item) -> int:
        """``C^i = Π_{ψ∈rep(v)} C^i_ψ · Π_{u∈N(v)} C^i_u`` (Lemma 6.3).

        Counters of represented atoms are 0/1-valued (their expansion is
        the item's own assignment), so they act as guards.
        """
        node = item.node
        for atom_index in self.qtree.rep[node]:
            if item.atom_count(atom_index) <= 0:
                return 0
        weight = 1
        for child in self.qtree.children.get(node, ()):
            child_total = item.child_total(child)
            if child_total == 0:
                return 0
            weight *= child_total
        return weight

    def _lemma_6_4(self, item: Item) -> int:
        """``C̃^i = 0`` if ``C^i = 0`` else ``Π_{u∈N(v)∩free} C̃^i_u``."""
        if item.weight == 0:
            return 0
        tweight = 1
        for child in self._free_children[item.node]:
            tweight *= item.tchild_total(child)
        return tweight


class ReferenceEngine(QHierarchicalEngine):
    """:class:`QHierarchicalEngine` over :class:`ReferenceStructure`:
    insert-by-insert preprocessing and the seed loop per update — batches
    included, which replay command by command instead of walking the
    generated runners."""

    structure_class = ReferenceStructure

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Optional[Database] = None,
        prefer: Sequence[str] = (),
    ):
        super().__init__(query, database, prefer)

    apply_all = DynamicEngine.apply_all
    apply_net = DynamicEngine.apply_net

    def _preload(self) -> None:
        DynamicEngine._preload(self)

    def _on_insert(self, relation: str, row: Row) -> None:
        for structure in self._by_relation.get(relation, ()):
            structure.apply(True, relation, row)

    def _on_delete(self, relation: str, row: Row) -> None:
        for structure in self._by_relation.get(relation, ()):
            structure.apply(False, relation, row)
