"""Classical delta-based incremental view maintenance (IVM).

This is the mainstream comparison point the paper's introduction gestures
at ([22], Gupta–Mumick–Subrahmanian): materialise the view, compute a
*delta query* per update, and patch the materialisation.

The view is kept as a multiset of **valuation counts**: for each output
tuple ``ā``, the number of valuations ``β : vars(ϕ) → dom`` with
``β|free = ā`` satisfying every atom.  Counts make deletions exact under
projection (a tuple disappears when its last derivation does) — the
standard counting-IVM technique.

For an update ``±t`` on relation ``R`` the delta is the telescoping sum
over the atoms ``ψ_1, ..., ψ_m`` that mention ``R``::

    Δ(ā) = ± Σ_i  #valuations( ψ_i := {t},
                               ψ_j := R_new  for j < i,
                               ψ_j := R_old  for j > i,
                               other atoms := current relations )

which is exact also for self-joins (each valuation using ``t`` at least
once is counted exactly once, at the first position where it does).
Evaluation probes persistent hash indexes, so the per-update cost is
proportional to the *delta join size* — Θ(n) for the paper's hard
queries (e.g. ``ϕ_S-E-T`` when a popular edge endpoint changes), which
is precisely the ``n^{1-ε}`` barrier of Theorems 3.3–3.5.

Since every update already pays O(|δ|) for the output tuples it flips,
this engine is the one that keeps a **binding index** for an access
pattern without changing its update bound:
:meth:`DeltaIVMEngine.register_access_pattern` maps bound-value tuples
to output rows, and the counts' zero crossings in ``_bump`` patch it —
so plain updates, ``apply_net`` and ``apply_with_delta`` all keep it
exact.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cq.query import Atom
from repro.errors import QueryStructureError
from repro.eval_static.naive import evaluate_sources, valuation_counts
from repro.interface import DynamicEngine, _collector_paused, register_engine
from repro.storage.database import Constant, Row
from repro.storage.indexes import HashIndex

__all__ = ["DeltaIVMEngine"]


class _IndexedRelation:
    """A relation's rows with incrementally maintained hash indexes.

    Unlike :class:`repro.eval_static.naive.RowSource` (built per
    evaluation), these indexes persist across updates: every index ever
    probed is patched in O(1) per update, so delta evaluation never
    rescans the relation.
    """

    __slots__ = ("_rows", "_indexes")

    def __init__(self) -> None:
        self._rows: set = set()
        self._indexes: Dict[Tuple[int, ...], HashIndex] = {}

    def add(self, row: Row) -> None:
        self._rows.add(row)
        for index in self._indexes.values():
            index.add(row)

    def bulk_add(self, rows: Iterable[Row]) -> None:
        """Fold many rows in with one set union (preprocessing path)."""
        self._rows |= set(rows)
        for index in self._indexes.values():
            for row in rows:
                index.add(row)

    def discard(self, row: Row) -> None:
        self._rows.discard(row)
        for index in self._indexes.values():
            index.remove(row)

    def probe(self, columns: Sequence[int], key: Row) -> Iterator[Row]:
        index_key = tuple(columns)
        index = self._indexes.get(index_key)
        if index is None:
            index = HashIndex(index_key, self._rows)
            self._indexes[index_key] = index
        return index.probe_iter(key)

    def __len__(self) -> int:
        return len(self._rows)


class _AdjustedView:
    """A relation state one tuple away from the live one.

    The telescoping delta needs ``R_old`` next to ``R_new``; instead of
    copying the relation we wrap the live index and add/hide one row at
    probe time.
    """

    __slots__ = ("_base", "_add", "_drop")

    def __init__(
        self,
        base: _IndexedRelation,
        add: Optional[Row] = None,
        drop: Optional[Row] = None,
    ):
        self._base = base
        self._add = add
        self._drop = drop

    def probe(self, columns: Sequence[int], key: Row) -> Iterator[Row]:
        drop = self._drop
        for row in self._base.probe(columns, key):
            if row != drop:
                yield row
        add = self._add
        if add is not None and tuple(add[c] for c in columns) == tuple(key):
            yield add

    def __len__(self) -> int:
        size = len(self._base)
        if self._add is not None:
            size += 1
        if self._drop is not None:
            size -= 1
        return max(size, 0)


class _SingletonSource:
    """The pinned atom's source: exactly one candidate row."""

    __slots__ = ("_row",)

    def __init__(self, row: Row):
        self._row = row

    def probe(self, columns: Sequence[int], key: Row) -> Iterator[Row]:
        if tuple(self._row[c] for c in columns) == tuple(key):
            yield self._row

    def __len__(self) -> int:
        return 1


#: Source-selector tags of a compiled delta arm (see ``_delta_plans``).
_OTHER, _PIN, _NEW, _OLD = range(4)


@register_engine
class DeltaIVMEngine(DynamicEngine):
    """Materialised view + counting deltas (handles self-joins)."""

    name = "delta_ivm"

    #: apply_with_delta captures the zero-crossings of the maintained
    #: valuation counts during the update itself — no result diff.
    supports_cheap_delta = True

    #: The materialised distinct count and valuation counts.
    constant_reads = frozenset(("count", "answer", "contains"))

    def _setup(self) -> None:
        self._relations: Dict[str, _IndexedRelation] = {
            relation: _IndexedRelation() for relation in self._query.relations
        }
        self._atoms_by_relation: Dict[str, List[int]] = {}
        for index, atom in enumerate(self._query.atoms):
            self._atoms_by_relation.setdefault(atom.relation, []).append(index)
        self._counts: Counter = Counter()
        self._distinct = 0  # number of keys with positive count
        # When set (by apply_with_delta), _bump records the keys whose
        # positive/zero sign flipped into ``(entered, left)`` — the
        # before/after result diff of exactly the touched delta keys.
        self._capture: Optional[Tuple[List[Row], List[Row]]] = None
        # Binding indexes (access patterns): pattern key — bound
        # variables in output order — to (positions, {bound values:
        # rows}).  Empty until register_access_pattern; _bump pays an
        # empty loop per zero crossing while none is registered.
        self._binding_indexes: Dict[
            Tuple[str, ...],
            Tuple[Tuple[int, ...], Dict[Tuple[Constant, ...], Set[Row]]],
        ] = {}

        # Compiled telescoping plans, shared across every update on the
        # same relation: one *arm* per atom occurrence of the relation,
        # each a fixed (atom, selector) sequence.  The seed rebuilt
        # this per update with an O(m²) ``pinned_indices.index`` scan;
        # now an update only maps the four selectors to live sources.
        self._delta_plans: Dict[str, List[List[Tuple[Atom, int]]]] = {}
        atoms = self._query.atoms
        for relation, pinned_indices in self._atoms_by_relation.items():
            arm_of = {index: arm for arm, index in enumerate(pinned_indices)}
            arms: List[List[Tuple[Atom, int]]] = []
            for position, pinned in enumerate(pinned_indices):
                arm: List[Tuple[Atom, int]] = []
                for index, atom in enumerate(atoms):
                    if atom.relation != relation:
                        arm.append((atom, _OTHER))
                    elif index == pinned:
                        arm.append((atom, _PIN))
                    else:
                        # Earlier R-atoms see the new state, later ones
                        # the old state (telescoping).
                        arm.append(
                            (atom, _NEW if arm_of[index] < position else _OLD)
                        )
                arms.append(arm)
            self._delta_plans[relation] = arms

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def _on_insert(self, relation: str, row: Row) -> None:
        self._relations[relation].add(row)
        # After .add the live state is R_new and R_old = R_new − {t}.
        self._apply_delta(relation, row, sign=+1)

    def _on_delete(self, relation: str, row: Row) -> None:
        self._relations[relation].discard(row)
        # After .discard the live state is R_new and R_old = R_new + {t}.
        self._apply_delta(relation, row, sign=-1)

    def _apply_delta(self, relation: str, row: Row, sign: int) -> None:
        live = self._relations[relation]
        if sign > 0:
            old_view = _AdjustedView(live, drop=row)
        else:
            old_view = _AdjustedView(live, add=row)
        pinned = _SingletonSource(row)
        relations = self._relations
        free = self._query.free

        for arm in self._delta_plans.get(relation, ()):
            pairs: List[Tuple[Atom, object]] = [
                (
                    atom,
                    relations[atom.relation]
                    if selector == _OTHER
                    else pinned
                    if selector == _PIN
                    else live
                    if selector == _NEW
                    else old_view,
                )
                for atom, selector in arm
            ]
            delta = evaluate_sources(pairs, free)
            for key, amount in delta.items():
                self._bump(key, sign * amount)

    def _bump(self, key: Row, amount: int) -> None:
        if amount == 0:
            return
        before = self._counts[key]
        after = before + amount
        if after:
            self._counts[key] = after
        else:
            del self._counts[key]
        if before <= 0 < after:
            self._distinct += 1
            if self._capture is not None:
                self._capture[0].append(key)
            for positions, index in self._binding_indexes.values():
                index.setdefault(tuple(key[p] for p in positions), set()).add(key)
        elif after <= 0 < before:
            self._distinct -= 1
            if self._capture is not None:
                self._capture[1].append(key)
            for positions, index in self._binding_indexes.values():
                values = tuple(key[p] for p in positions)
                bucket = index[values]
                bucket.discard(key)
                if not bucket:
                    del index[values]

    def _effective_with_delta(
        self, is_insert: bool, relation: str, row: Row
    ) -> Tuple[Tuple[Row, ...], Tuple[Row, ...]]:
        """One effective update with the result delta from the touched
        keys.

        The telescoping delta evaluation already visits exactly the
        output keys whose valuation counts change; a key enters the
        result when its count crosses zero upward and leaves when it
        crosses downward, so the capture costs nothing beyond the
        update itself (all bumps of one command share a sign, so each
        key flips at most once).
        """
        self._capture = ([], [])
        try:
            self._effective(is_insert, relation, row)
        finally:
            entered, left = self._capture
            self._capture = None
        return tuple(entered), tuple(left)

    def _preload(self) -> None:
        """Preprocessing: index the stored rows, evaluate the view once.

        Replaying ``||D0||`` insertions costs one telescoping delta
        evaluation *per tuple*; the initial materialisation is just the
        valuation counts of the full query, computable with a single
        backtracking evaluation over the store.
        """
        for name, relation in self._relations.items():
            relation.bulk_add(self._db.relation(name))
        self._counts = valuation_counts(self._query, self._db)
        self._distinct = len(self._counts)

    # ------------------------------------------------------------------
    # queries — O(1) count/answer/contains, O(|result|) enumeration
    # ------------------------------------------------------------------

    def count(self) -> int:
        return self._distinct

    def answer(self) -> bool:
        return self._distinct > 0

    def contains(self, row: Row) -> bool:
        return self._counts.get(row, 0) > 0

    def enumerate(self) -> Iterator[Row]:
        for key, amount in self._counts.items():
            if amount > 0:
                yield key

    # ------------------------------------------------------------------
    # access patterns (binding indexes)
    # ------------------------------------------------------------------

    def register_access_pattern(
        self, variables: Sequence[str]
    ) -> Tuple[str, ...]:
        """Maintain a binding index for an access pattern.

        ``variables`` must be output variables; the canonical pattern
        key (the variables in output order) is returned.  The index —
        bound-value tuple → set of output rows — is built once in
        O(|result|) and patched by ``_bump`` wherever a count crosses
        zero, i.e. O(1) per output tuple an update flips.  Registering
        the same pattern twice is a no-op.
        """
        free = tuple(self._query.free)
        chosen = set(variables)
        self._check_binding({v: None for v in chosen})
        key = tuple(v for v in free if v in chosen)
        if not key:
            raise QueryStructureError(
                "an access pattern needs at least one bound variable"
            )
        if key in self._binding_indexes:
            return key
        positions = tuple(free.index(v) for v in key)
        index: Dict[Tuple[Constant, ...], Set[Row]] = {}
        with _collector_paused():
            for row in self.enumerate():
                index.setdefault(tuple(row[p] for p in positions), set()).add(row)
        self._binding_indexes[key] = (positions, index)
        return key

    @property
    def access_patterns(self) -> Tuple[Tuple[str, ...], ...]:
        """The registered (index-backed) access-pattern keys."""
        return tuple(self._binding_indexes)

    def binding_index_size(self) -> int:
        """Total distinct bound-value keys across all binding indexes."""
        return sum(len(index) for _, index in self._binding_indexes.values())

    def _enumerate_bound_fallback(
        self, binding: Dict[str, Constant]
    ) -> Iterator[Row]:
        """Serve a binding from the widest covering index — residual
        variables filter the bucket — or, with none, filter the scan."""
        names = set(binding)
        best: Optional[Tuple[str, ...]] = None
        for key in self._binding_indexes:
            if set(key) <= names and (best is None or len(key) > len(best)):
                best = key
        if best is None:
            return super()._enumerate_bound_fallback(binding)
        bucket = self._binding_indexes[best][1].get(
            tuple(binding[v] for v in best)
        )
        # Snapshot the bucket: a suspended stream must not observe the
        # index mutating under a later update.
        rows = tuple(bucket or ())
        free = tuple(self._query.free)
        checks = tuple(
            (free.index(v), binding[v]) for v in binding if v not in best
        )
        if not checks:
            return iter(rows)
        return (
            row
            for row in rows
            if all(row[i] == value for i, value in checks)
        )

    def valuation_count(self, key: Row) -> int:
        """Stored derivation count for one output tuple (testing)."""
        return self._counts.get(tuple(key), 0)

    def plan_stats(self) -> Dict[str, object]:
        """Compiled telescoping-plan statistics for ``explain()``."""
        return {
            "delta_arms": sum(len(arms) for arms in self._delta_plans.values()),
            "arms_per_relation": {
                relation: len(arms)
                for relation, arms in sorted(self._delta_plans.items())
            },
        }
