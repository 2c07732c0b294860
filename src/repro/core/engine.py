"""The paper's dynamic algorithm, packaged as an engine (Theorem 3.2).

:class:`QHierarchicalEngine` accepts any q-hierarchical conjunctive
query and maintains it under updates with

* O(poly(ϕ) · ||D0||) preprocessing — one bulk pass
  (:meth:`ComponentStructure.bulk_load`): the initial database is
  deduplicated per relation in one shot and each component's item trie
  and counters are built by one generated loader per relation plus a
  single bottom-up sweep, instead of replaying ``||D0||`` single-tuple
  insertions,
* O(poly(ϕ)) update time — through the generated per-atom runners of
  :mod:`repro.core.plans`, flattened here into a per-relation dispatch
  table so an update runs exactly the plans that mention the relation.
  A session batch arrives as one :meth:`QHierarchicalEngine.apply_net`
  — effectiveness already decided, repeated keys already netted — and
  walks the same runners over the net rows, one tight loop per plan;
  the engine's own :meth:`QHierarchicalEngine.apply_all` folds a raw
  stream itself and walks the same runners over each relation's
  effective rows,
* O(1) counting / Boolean answering,
* O(poly(ϕ)) delay enumeration — the generated Algorithm 1 walker of
  :func:`repro.core.plans.compile_walker`: a connected query hands its
  component's walker (and membership probe) back as is, one resume per
  tuple; bound reads run the walker compiled for their set of bound
  variables, cached on first use.

The seed's literal implementation of both phases (insert-by-insert
replay; binding dicts and full Lemma 6.3/6.4 product recomputation)
is the test suite's differential oracle and the baseline of
``benchmarks/bench_update_throughput.py``; it plugs in through
:attr:`QHierarchicalEngine.structure_class` and is not part of this
package.

Non-connected queries are handled exactly as Section 6's preamble
prescribes: one :class:`~repro.core.structure.ComponentStructure` per
connected component, ``|ϕ(D)| = Π_i |ϕ_i(D)|``, Boolean answer the
conjunction, and enumeration the nested-loop product — compiled as the
components' loop nests concatenated into one walker that writes the
tuple in the query's output-variable order (a Boolean component is a
``C_start > 0`` guard in front of it).

Feeding a non-q-hierarchical query raises
:class:`~repro.errors.NotQHierarchicalError` carrying the Definition
3.1 violation witness — by Theorems 3.3–3.5 no engine of this kind can
exist for such queries (conditional on OMv/OV), so refusing loudly is
the honest behaviour.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.plans import bound_walk, compile_walker, tuple_getter
from repro.core.qtree import QTree, try_build_q_tree
from repro.core.structure import ComponentStructure
from repro.cq.analysis import find_violation
from repro.cq.query import ConjunctiveQuery
from repro.errors import NotQHierarchicalError
from repro.interface import DynamicEngine, register_engine
from repro.storage.database import Constant, Database, Row
from repro.storage.updates import UpdateCommand

__all__ = ["QHierarchicalEngine"]


@register_engine
class QHierarchicalEngine(DynamicEngine):
    """Dynamic constant-update evaluation for q-hierarchical CQs."""

    name = "qhierarchical"

    #: apply_with_delta reads the delta off the flipped fit-items of
    #: the touched root paths — O(poly(ϕ) + δ), never O(|result|).
    supports_cheap_delta = True

    #: Theorem 3.2: O(1) count and answer, O(poly(ϕ)) membership.
    constant_reads = frozenset(("count", "answer", "contains"))

    #: The per-component structure :meth:`_setup` instantiates.
    structure_class = ComponentStructure

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Optional[Database] = None,
        prefer: Sequence[str] = (),
    ):
        violation = find_violation(query)
        if violation is not None:
            raise NotQHierarchicalError(
                f"query {query.name!r} is not q-hierarchical: "
                f"{violation.describe()}",
                violation=violation,
            )
        self._prefer = tuple(prefer)
        super().__init__(query, database)

    def _setup(self) -> None:
        components = self._query.connected_components()
        self._structures: List[ComponentStructure] = []
        for component in components:
            qtree = try_build_q_tree(component, self._prefer)
            if qtree is None:  # unreachable given the Definition 3.1 check
                raise NotQHierarchicalError(
                    f"no q-tree for component {component.name!r}"
                )
            self._structures.append(self.structure_class(component, qtree))

        # A connected query is its one component: its structure's delta
        # is the output delta as it stands (same free order).
        self._sole: Optional[ComponentStructure] = (
            self._structures[0] if len(self._structures) == 1 else None
        )
        self._by_relation: Dict[str, List[ComponentStructure]] = {}
        for structure in self._structures:
            for relation in structure.query.relations:
                self._by_relation.setdefault(relation, []).append(structure)

        # Update dispatch: relation → [generated runner, ...], merged
        # from the structures' own runners (the single source of truth)
        # so one update resolves its whole fan-out with a single dict
        # probe and no per-call attribute lookups.
        self._dispatch: Dict[str, List[object]] = {}
        for structure in self._structures:
            for plan, runner in zip(structure.plans, structure.runners):
                self._dispatch.setdefault(plan.relation, []).append(runner)

        # Where each component's free variables land in the output
        # tuple (Boolean ones contribute no positions) — the delta
        # expansion iterates every component.
        out_position = {v: i for i, v in enumerate(self._query.free)}
        self._struct_positions: List[Tuple[int, ...]] = [
            tuple(out_position[v] for v in s.query.free)
            for s in self._structures
        ]

        # Reads.  A connected query *is* its component (same free
        # order), so it shares the structure's walker cache and
        # membership probe as they stand; a product compiles its own
        # walkers over all components and splits a probed row with one
        # C-level getter per free component.
        sole = self._sole
        self._walkers: Dict[Tuple[str, ...], object] = (
            sole._walkers
            if sole is not None
            else {(): compile_walker(self._structures, self._query.free)}
        )
        self._arity = len(self._query.free)
        self._component_probes: List[Tuple[object, object]] = [
            (structure.contains, tuple_getter(positions))
            for structure, positions in zip(
                self._structures, self._struct_positions
            )
            if positions
        ]
        if sole is not None:
            self.contains = sole.contains

    def _preload(self) -> None:
        """Preprocessing: bulk-load the stored rows.

        Every component structure ingests the store's relations
        through :meth:`ComponentStructure.bulk_load`, iterating them in
        place — no row is copied.
        """
        db = self._db
        rows_by_relation = {
            relation: db.relation(relation) for relation in self._query.relations
        }
        for structure in self._structures:
            structure.bulk_load(rows_by_relation)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def _on_insert(self, relation: str, row: Row) -> None:
        for runner in self._dispatch.get(relation, ()):
            runner(True, row)

    def _on_delete(self, relation: str, row: Row) -> None:
        for runner in self._dispatch.get(relation, ()):
            runner(False, row)

    def apply_all(self, commands: Iterable[UpdateCommand]) -> int:
        """Apply a command stream: one store pass, then the runners.

        :meth:`Database.fold_stream` decides effectiveness in stream
        order and groups each relation's effective rows on the way;
        then every generated runner of a touched relation walks them in
        one tight loop — the loop :meth:`apply_net` runs.  A relation's
        own rows keep their stream order, so every runner call is an
        effective single-tuple update, and the structures end in the
        state per-command application leaves (fit-list order, and with
        it enumeration order, may differ).  A command naming an
        unknown relation or carrying the wrong arity raises where the
        stream stands, after the applied prefix has reached the
        structures.
        """
        grouped: Dict[str, Tuple[List[Row], List[bool]]] = {}
        try:
            return self._db.fold_stream(commands, grouped)[0]
        finally:
            dispatch = self._dispatch
            counters = self._obs_insert
            for relation, (rows, flags) in grouped.items():
                self._epoch += len(rows)
                for runner in dispatch.get(relation, ()):
                    for row, is_insert in zip(rows, flags):
                        runner(is_insert, row)
                if counters is not None:
                    n_inserts = flags.count(True)
                    counters[relation].value += n_inserts
                    self._obs_delete[relation].value += len(rows) - n_inserts

    def apply_net(self, net) -> None:
        """A stream's net effect, straight through the runners.

        The session decided effectiveness and moved the store, so each
        generated runner of a touched relation walks the net rows in
        one tight loop — a row the stream inserted and deleted again
        costs nothing here, while ``epoch`` and the update counters
        still advance by the effective counts.
        """
        dispatch = self._dispatch
        counters = self._obs_insert
        for relation, (inserted, deleted, n_inserts, n_deletes) in net.items():
            self._epoch += n_inserts + n_deletes
            if counters is not None:
                counters[relation].value += n_inserts
                self._obs_delete[relation].value += n_deletes
            for runner in dispatch.get(relation, ()):
                for row in deleted:
                    runner(False, row)
                for row in inserted:
                    runner(True, row)

    def _effective_with_delta(
        self, is_insert: bool, relation: str, row: Row
    ) -> Tuple[Tuple[Row, ...], Tuple[Row, ...]]:
        """One effective update with the output-tuple delta in O(δ).

        One update pass, the same one :meth:`apply` runs: each touched
        component executes its matching runners once and reads its
        delta off what they report — the fit-list flips on the touched
        root paths (:meth:`ComponentStructure.apply_with_delta`; no
        before/after probing, no undo/redo for deletes, and the
        structures' ``version`` moves exactly as under ``apply``).  A
        single-component query hands that delta back as is.  Across
        components the engine result is a product, so the total delta
        telescopes::

            Π new_c − Π old_c  =  ⨄_c  old_{<c} × Δ_c × new_{>c}

        (a disjoint union — each term's Δ_c is disjoint from old_c and
        from new-minus-Δ).  Every enumerated element contributes to an
        output tuple, so the cost is O(poly(ϕ) · (1 + δ)) per update.
        A single-tuple command moves every component the same way, so
        one side of ``(added, removed)`` is always empty.
        """
        self._epoch += 1
        counters = self._obs_insert if is_insert else self._obs_delete
        if counters is not None:
            # This path bypasses _effective, so the update is counted here.
            counters[relation].value += 1
        sole = self._sole
        if sole is not None:
            return sole.apply_with_delta(is_insert, relation, row)
        component_delta = {
            id(structure): structure.apply_with_delta(is_insert, relation, row)
            for structure in self._by_relation.get(relation, ())
        }
        expanded = self._expand_delta(component_delta, 0 if is_insert else 1)
        return (expanded, ()) if is_insert else ((), expanded)

    def _expand_delta(
        self,
        component_delta: Dict[int, Tuple[Tuple[Row, ...], Tuple[Row, ...]]],
        pick: int,
    ) -> Tuple[Row, ...]:
        """Telescope per-component deltas into output-tuple space.

        ``pick`` selects the delta side (0 = added, 1 = removed).  The
        factor for components *before* the pivot is their pre-update
        result (current adjusted by their own delta), *after* the pivot
        their current result — see :meth:`apply_with_delta`, which
        keeps single-component queries out of here.
        """
        structures = self._structures
        out: List[Row] = []
        for c, pivot in enumerate(structures):
            delta = component_delta.get(id(pivot))
            if not delta or not delta[pick]:
                continue
            factories: List[object] = []
            for d, other in enumerate(structures):
                if d == c:
                    factories.append(lambda rows=delta[pick]: iter(rows))
                elif d < c:
                    factories.append(
                        self._old_factory(other, component_delta, pick)
                    )
                else:
                    factories.append(other.enumerate)
            out.extend(self._assemble(factories))
        return tuple(out)

    def _old_factory(
        self,
        structure: ComponentStructure,
        component_delta: Dict[int, Tuple[Tuple[Row, ...], Tuple[Row, ...]]],
        pick: int,
    ) -> object:
        """The component's *pre-update* result as a stream factory."""
        delta = component_delta.get(id(structure))
        if not delta or not delta[pick]:
            return structure.enumerate
        changed = delta[pick]
        if pick == 0:  # insert: old = current minus the added tuples
            skip = set(changed)
            return lambda: (t for t in structure.enumerate() if t not in skip)
        # delete: old = current plus the removed tuples
        return lambda: chain(structure.enumerate(), iter(changed))

    def _assemble(self, factories: Sequence[object]) -> Iterator[Row]:
        """Product over *all* components from explicit stream factories.

        The one product not compiled into a walker: its factors are
        *past* states (a component's result adjusted by its delta), not
        fit lists, and Boolean factors participate as ``()``-or-nothing
        streams.  Only :meth:`_expand_delta` comes here.
        """
        assembly: List[object] = [None] * len(self._query.free)
        positions = self._struct_positions

        def product(index: int) -> Iterator[Row]:
            if index == len(factories):
                yield tuple(assembly)
                return
            pos = positions[index]
            for row in factories[index]():
                for position, value in zip(pos, row):
                    assembly[position] = value
                yield from product(index + 1)

        return product(0)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def answer(self) -> bool:
        """O(1): every component must be non-empty."""
        return all(structure.answer() for structure in self._structures)

    def count(self) -> int:
        """O(1): ``|ϕ(D)| = Π_i |ϕ_i(D)|`` (Boolean components are 1/0)."""
        total = 1
        for structure in self._structures:
            total *= structure.count()
            if total == 0:
                return 0
        return total

    def enumerate(self) -> Iterator[Row]:
        """Constant-delay enumeration: the generated Algorithm 1 walker
        (:func:`~repro.core.plans.compile_walker`) — the component's
        own for a connected query, the component nests concatenated for
        a product."""
        return self._walkers[()]()

    def _enumerate_bound_fallback(
        self, binding: Dict[str, Constant]
    ) -> Iterator[Row]:
        """Enumeration with some output variables bound to constants.

        The structural bound path behind
        :meth:`repro.interface.DynamicEngine.enumerate_bound` (which
        validates the names): the walker compiled for this *set* of
        bound variables (cached; first use compiles it), started on the
        bound values.  Bound variables forming an ancestor-closed set in
        their component's q-tree are pinned with O(1) item probes
        (constant delay per tuple); a bound variable below an unbound
        ancestor is one item probe per parent item.  No state is kept
        for the binding, so updates cost what they cost without it.
        Output tuples carry the bound values in place, over the query's
        full output arity.
        """
        return bound_walk(
            self._walkers, self._structures, self._query.free, binding
        )

    def contains(self, row: Row) -> bool:
        """Membership test ``ā ∈ ϕ(D)`` in O(poly(ϕ)) time.

        A connected query answers with its structure's probe directly
        (bound over this method at construction).  A product splits the
        tuple across components positionally and asks each
        :meth:`ComponentStructure.contains`; Boolean components must be
        satisfied.  Used by the UCQ union engine to deduplicate with
        constant overhead per candidate.
        """
        if len(row) != self._arity:
            return False
        for probe, sub_row in self._component_probes:
            if not probe(sub_row(row)):
                return False
        return self.answer()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def structures(self) -> Tuple[ComponentStructure, ...]:
        """Per-component structures (read-only view for tests/figures)."""
        return tuple(self._structures)

    @property
    def q_trees(self) -> Tuple[QTree, ...]:
        return tuple(structure.qtree for structure in self._structures)

    def item_count(self) -> int:
        """Total items across components — linear in ``||D||`` (§6.2)."""
        return sum(structure.item_count() for structure in self._structures)

    def plan_stats(self) -> Dict[str, object]:
        """Compiled update-plan and enumerator statistics (surfaced by
        ``explain()``)."""
        per_structure = [s.plan_stats() for s in self._structures]
        return {
            "components": len(self._structures),
            "atom_plans": sum(s["atom_plans"] for s in per_structure),
            "max_path_depth": max(
                (s["max_path_depth"] for s in per_structure), default=0
            ),
            "dispatch_width": {
                relation: len(pairs)
                for relation, pairs in sorted(self._dispatch.items())
            },
            # The enumerator: loops in the generated Algorithm 1 nest,
            # and the bound-variable sets a walker was compiled for.
            "free_depth": sum(s["free_depth"] for s in per_structure),
            "bound_walkers": sorted(
                ",".join(bound) for bound in self._walkers if bound
            ),
        }
