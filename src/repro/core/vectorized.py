"""Batched, vectorized execution of the update plans.

The generated runners (:mod:`repro.core.plans`) execute one Python
function per (command, atom plan): fast per tuple, but a stream of
thousands of commands still pays interpreter dispatch and dict traffic
per tuple.  This module is the second update executor: it runs a whole
*batch* of effective commands per plan with numpy, and
:meth:`QHierarchicalEngine.apply_all` picks it over the runners by
batch size (the numpy set-up only amortises over enough rows):

1. the batch's rows are **int-interned** once per relation — a shared
   :class:`Interner` dictionary-encodes the active domain into int64
   codes, so every later comparison is integer array arithmetic;
2. repeated-variable checks (``AtomPlan.eq``) become vectorized column
   masks;
3. per path level the rows are grouped by their key prefix with a
   progressive 1-D ``np.unique`` (parent group id × adom bound + own
   code — no O(n·k) row hashing), and the batch's **net** counter
   contribution per distinct prefix is one ``np.bincount`` over the
   command signs;
4. only prefixes with a nonzero net touch the Python item store: the
   counter moves by the net in one step, and the touched items are
   re-finalised bottom-up with the same zero-aware decomposition the
   incremental runners maintain (weights depend only on final counters
   and child sums — the same argument that makes the deferred phase 2
   of :meth:`ComponentStructure.bulk_load` correct).

The win is therefore *per distinct prefix* instead of *per command*: a
toggle-heavy stream folding to a handful of distinct keys does near-zero
item work, and dense streams share their upper-trie prefixes.  State
stays in the ordinary :class:`~repro.core.items.Item` structures — every
read path (enumeration, counting, deltas, binding indexes, snapshots)
is untouched and byte-identical to the python backend.

Preprocessing is not batched here: the generated loader of
:func:`repro.core.plans.compile_relation_loader` is faster than a numpy
phase 1 and builds leaner items, so every backend bulk-loads through it.

numpy is optional: :func:`numpy_or_none` gates availability (and honours
``REPRO_NO_NUMPY=1`` for fallback testing), and
:func:`resolve_backend` centralises the ``backend=`` selection rules so
``explain()`` can name the choice and any fallback reason.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence, Tuple

from repro.core.items import Item
from repro.core.plans import tuple_getter
from repro.errors import EngineStateError
from repro.storage.database import Row

__all__ = [
    "numpy_or_none",
    "resolve_backend",
    "plans_qualify",
    "Interner",
    "VectorizedKernel",
]

_NUMPY = None
_IMPORT_TRIED = False

#: Progressive prefix ids live in int64; past this bound the pairing
#: (parent_group * adom_bound + code) could overflow and the grouping
#: falls back to a row-wise unique.
_PAIR_LIMIT = 2**62


def numpy_or_none():
    """The numpy module, or ``None`` when unavailable.

    ``REPRO_NO_NUMPY=1`` (checked per call, so tests and the CI
    fallback leg can flip it) simulates an environment without numpy.
    """
    if os.environ.get("REPRO_NO_NUMPY"):
        return None
    global _NUMPY, _IMPORT_TRIED
    if not _IMPORT_TRIED:
        _IMPORT_TRIED = True
        try:
            import numpy
        except Exception:
            _NUMPY = None
        else:
            _NUMPY = numpy
    return _NUMPY


def resolve_backend(
    options, *, supported: bool = True
) -> Tuple[str, str]:
    """Resolve an :class:`~repro.options.EngineOptions` backend request
    to ``(effective_backend, reason)``.

    ``supported`` is whether the engine has a vectorized kernel at all
    (only the q-hierarchical engine's compiled plans do).  Explicit
    requests that cannot be honoured raise; ``"auto"`` falls back to
    ``"python"`` with the reason recorded for ``explain()``.
    """
    requested = options.backend
    if requested == "python":
        return "python", "backend='python' requested"
    if not supported:
        if requested == "vectorized":
            raise EngineStateError(
                "backend='vectorized' is only available on the "
                "q-hierarchical engine's compiled plans"
            )
        return "python", "engine has no vectorized kernel"
    if numpy_or_none() is None:
        if requested == "vectorized":
            raise EngineStateError(
                "backend='vectorized' requires numpy (install the "
                "'vectorized' extra) — or use backend='auto' to fall "
                "back to the python runners"
            )
        return "python", "numpy not importable"
    if requested == "vectorized":
        return "vectorized", "backend='vectorized' requested"
    return "vectorized", "auto: numpy available, compiled plans qualify"


def plans_qualify(structures) -> bool:
    """The ``auto`` plan-shape rule: does batching pay off at all?

    Plans whose atoms carry repeated-variable filters (``AtomPlan.eq``)
    are exited in O(1) per tuple by the generated runners, while a
    batch must intern and mask the whole chunk first — on a query where
    *every* plan is eq-filtered (e.g. ``Q() :- E(x, x)``) the kernel is
    pure overhead.  A single eq-free plan is enough to qualify: the
    relation batches are interned once and shared by every plan.
    """
    plans = [
        plan
        for structure in structures
        for plan in getattr(structure, "plans", ())
    ]
    return bool(plans) and any(not plan.eq for plan in plans)


class Interner:
    """Dictionary-encoded active domain: constant ↔ int64 code.

    One interner is shared per engine, so codes are stable across
    batches and relations (the same constant always maps to the same
    code).  The table is derived state: a recovery replay rebuilds it
    from the replayed rows, exactly like the item tries.
    """

    __slots__ = ("codes", "values")

    def __init__(self) -> None:
        self.codes: Dict[object, int] = {}
        self.values: List[object] = []

    def __len__(self) -> int:
        return len(self.values)

    def encode_batch(self, np, rows: Sequence[Row]):
        """Encode ``rows`` (same arity) into an (n, arity) int64 array.

        Columns that numpy can represent exactly (ints, bools) are
        encoded with one vectorized ``np.unique`` plus a dict probe per
        *distinct* value; anything else (strings, mixed types, big
        ints) takes a per-value dict loop.  Equality through the codes
        matches Python ``==`` on the original constants, which is what
        the item stores key on.
        """
        n = len(rows)
        arity = len(rows[0])
        out = np.empty((n, arity), dtype=np.int64)
        codes = self.codes
        values = self.values
        for j in range(arity):
            column = [row[j] for row in rows]
            vectorized = None
            try:
                candidate = np.asarray(column)
            except Exception:
                candidate = None
            # Only integer-exact dtypes: float/str asarray coercion can
            # merge values Python equality keeps distinct (1 vs "1").
            if (
                candidate is not None
                and candidate.ndim == 1
                and candidate.dtype.kind in "iub"
            ):
                vectorized = candidate
            if vectorized is not None:
                uniq, inverse = np.unique(vectorized, return_inverse=True)
                local = np.empty(len(uniq), dtype=np.int64)
                for i, value in enumerate(uniq.tolist()):
                    code = codes.get(value)
                    if code is None:
                        code = len(values)
                        codes[value] = code
                        values.append(value)
                    local[i] = code
                out[:, j] = local[inverse]
            else:
                target = out[:, j]
                for i, value in enumerate(column):
                    code = codes.get(value)
                    if code is None:
                        code = len(values)
                        codes[value] = code
                        values.append(value)
                    target[i] = code
        return out


class _StructureOps:
    """Vectorized batch executor for one :class:`ComponentStructure`.

    Reads the structure's internals directly (items, q-tree maps) — it
    is an alternative execution strategy for the same state, exactly
    like the generated runners that also close over the stores.
    """

    def __init__(self, np, structure, interner: Interner):
        self.np = np
        self.structure = structure
        self.interner = interner
        tree = structure.qtree
        self._root = tree.root
        self._doc_reversed = list(reversed(structure._doc_order))
        self._rep = {
            node: tuple(structure._rep[node]) for node in tree.parent
        }
        self._children = {
            node: tuple(structure._children.get(node, ()))
            for node in tree.parent
        }
        self._free_children = {
            node: tuple(structure._free_children[node]) for node in tree.parent
        }
        self._free = set(structure.free)
        self._parent = dict(tree.parent)
        # One C-level key builder per (plan, level): row → the level-j
        # key prefix, avoiding a genexpr per distinct group.
        self._plan_getters = [
            tuple(
                tuple_getter(plan.extract[: j + 1])
                for j in range(len(plan.levels))
            )
            for plan in structure.plans
        ]
        self._plan_extracts = [
            list(plan.extract) for plan in structure.plans
        ]

    # -- batched updates ------------------------------------------------------

    def apply_batch(self, by_relation) -> None:
        """Apply one batch of effective commands (grouped per relation
        as ``relation → (rows, signs)``) to this structure."""
        touched: Dict[str, Dict[Item, None]] = {}
        matched = False
        encoded: Dict[str, object] = {}
        for plan, getters, extract in zip(
            self.structure.plans, self._plan_getters, self._plan_extracts
        ):
            group = by_relation.get(plan.relation)
            if group is None:
                continue
            rows, signs = group
            codes = encoded.get(plan.relation)
            if codes is None:
                codes = self.interner.encode_batch(self.np, rows)
                encoded[plan.relation] = codes
            if self._apply_plan(
                plan, getters, extract, rows, signs, codes, touched
            ):
                matched = True
        if not matched:
            return
        self.structure.version += 1
        if touched:
            self._refinalize(touched)

    def _apply_plan(
        self, plan, getters, extract, rows, signs, codes, touched
    ) -> bool:
        np = self.np
        if plan.eq:
            mask = codes[:, plan.eq[0][0]] == codes[:, plan.eq[0][1]]
            for s, t in plan.eq[1:]:
                mask &= codes[:, s] == codes[:, t]
            selection = np.flatnonzero(mask)
            if not len(selection):
                return False
            path_codes = codes[selection][:, extract]
            signs = signs[selection]
        else:
            selection = None
            path_codes = codes[:, extract]
        interner_bound = len(self.interner) + 1
        group_ids = None
        for j, level in enumerate(plan.levels):
            column = path_codes[:, j]
            group_ids, uniq_count, representative, net = self._group(
                group_ids, column, signs, path_codes, j, interner_bound
            )
            nonzero = np.flatnonzero(net)
            if not len(nonzero):
                continue
            # Pull the per-group positions and nets out of numpy in one
            # shot (`tolist` beats a scalar `int()` per element) before
            # the Python store walk.
            reps = representative[nonzero]
            if selection is not None:
                reps = selection[reps]
            positions = reps.tolist()
            nets = net[nonzero].tolist()
            store = level.store
            store_get = store.get
            parent_store = plan.levels[j - 1].store if j else None
            atom_index = plan.atom_index
            node_touched = touched.setdefault(level.node, {})
            getter = getters[j]
            for row_pos, delta in zip(positions, nets):
                key = getter(rows[row_pos])
                item = store_get(key)
                if item is None:
                    if delta < 0:
                        raise EngineStateError(
                            f"batched delete touches missing item "
                            f"[{level.node}, {key!r}]; was the stream "
                            "filtered for set semantics?"
                        )
                    parent = parent_store[key[:-1]] if j else None
                    item = Item(level.node, key, parent)
                    store[key] = item
                old_count = item.c_atom.get(atom_index, 0)
                new_count = old_count + delta
                if new_count:
                    item.c_atom[atom_index] = new_count
                    if old_count > 0 and new_count > 0:
                        # The atom stayed nonzero, so the zero-aware
                        # decomposition (zf/nzp, hence weight) is
                        # untouched — no refinalize needed.
                        continue
                else:
                    item.c_atom.pop(atom_index, None)
                node_touched[item] = None
        return True

    def _group(
        self, group_ids, column, signs, path_codes, j, interner_bound
    ):
        """Group rows by their level-``j`` key prefix.

        Returns ``(inverse, group_count, representative_row, net)``:
        per-row group ids for the next level, one representative row
        index per group, and the net sign sum per group.
        """
        np = self.np
        if group_ids is None:
            keys = column
        elif len(column) * interner_bound < _PAIR_LIMIT:
            keys = group_ids * np.int64(interner_bound) + column
        else:
            # Pairing could overflow int64 — group by the full prefix.
            _, inverse = np.unique(
                path_codes[:, : j + 1], axis=0, return_inverse=True
            )
            keys = inverse
        uniq, inverse = np.unique(keys, return_inverse=True)
        inverse = inverse.reshape(-1)
        representative = np.empty(len(uniq), dtype=np.int64)
        representative[inverse] = np.arange(len(inverse), dtype=np.int64)
        net = np.bincount(
            inverse, weights=signs, minlength=len(uniq)
        ).astype(np.int64)
        return inverse, len(uniq), representative, net

    def _refinalize(self, touched: Dict[str, Dict[Item, None]]) -> None:
        """Recompute the zero-aware decomposition of every touched item
        bottom-up, propagating weight deltas into parents (which become
        touched in turn) — the incremental mirror of phase 2 of
        :meth:`ComponentStructure.bulk_load`."""
        structure = self.structure
        c_delta = 0
        t_delta = 0
        for node in self._doc_reversed:
            items = touched.get(node)
            if not items:
                continue
            rep_atoms = self._rep[node]
            children = self._children[node]
            free_children = self._free_children[node]
            node_free = node in self._free
            is_root = node == self._root
            store = structure._items[node]
            parent_node = self._parent.get(node)
            parent_touched = (
                None if is_root else touched.setdefault(parent_node, {})
            )
            for item in items:
                c_atom = item.c_atom
                zero_factors = 0
                nonzero_product = 1
                for atom_index in rep_atoms:
                    if c_atom.get(atom_index, 0) <= 0:
                        zero_factors += 1
                if children:
                    sums = item.child_sum
                    for child in children:
                        total = sums.get(child, 0) if sums else 0
                        if total == 0:
                            zero_factors += 1
                        else:
                            nonzero_product *= total
                item.zf = zero_factors
                item.nzp = nonzero_product
                weight = nonzero_product if zero_factors == 0 else 0
                weight_delta = weight - item.weight
                item.weight = weight
                tweight_delta = 0
                if node_free:
                    tzf = 0
                    tnzp = 1
                    if free_children:
                        tsums = item.tchild_sum
                        for child in free_children:
                            total = tsums.get(child, 0) if tsums else 0
                            if total == 0:
                                tzf += 1
                            else:
                                tnzp *= total
                    item.tzf = tzf
                    item.tnzp = tnzp
                    tweight = tnzp if (weight and tzf == 0) else 0
                    tweight_delta = tweight - item.tweight
                    item.tweight = tweight
                if weight > 0:
                    if not item.in_list:
                        target = (
                            structure.start
                            if is_root
                            else item.parent_item.list_for(node)
                        )
                        target.append(item)
                elif item.in_list:
                    target = (
                        structure.start
                        if is_root
                        else item.parent_item.list_for(node)
                    )
                    target.remove(item)
                if is_root:
                    c_delta += weight_delta
                    t_delta += tweight_delta
                elif weight_delta or tweight_delta:
                    parent = item.parent_item
                    if weight_delta:
                        if parent.child_sum is None:
                            parent.child_sum = {}
                        parent.child_sum[node] = (
                            parent.child_sum.get(node, 0) + weight_delta
                        )
                    if tweight_delta:
                        if parent.tchild_sum is None:
                            parent.tchild_sum = {}
                        parent.tchild_sum[node] = (
                            parent.tchild_sum.get(node, 0) + tweight_delta
                        )
                    parent_touched[parent] = None
                if not c_atom:
                    del store[item.key]
        structure.c_start += c_delta
        structure.t_start += t_delta


class VectorizedKernel:
    """The per-engine vectorized backend: one shared interner plus one
    :class:`_StructureOps` per component structure."""

    def __init__(self, np, structures):
        self.np = np
        self.interner = Interner()
        self._ops = [
            _StructureOps(np, structure, self.interner)
            for structure in structures
        ]

    def apply_groups(self, grouped) -> None:
        """Apply one batch already grouped as ``relation → (rows,
        signs)`` — the shape ``Database.fold_stream`` emits, so the
        engine's effectiveness pass doubles as the kernel's grouping
        pass.  Sign vectors convert to int64 once per relation, not
        once per (structure, plan) consumer."""
        np = self.np
        by_relation = {
            relation: (rows, np.asarray(signs, dtype=np.int64))
            for relation, (rows, signs) in grouped.items()
        }
        for ops in self._ops:
            ops.apply_batch(by_relation)
