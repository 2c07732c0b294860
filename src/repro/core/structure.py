"""The per-component dynamic data structure (Sections 6.2, 6.4, 6.5).

One :class:`ComponentStructure` maintains one connected q-hierarchical
component under single-tuple updates with O(poly(ϕ)) work per update:

* the items ``[v, α, a]`` reachable from the current database, stored
  per q-tree node in a hash map keyed by the constants along the node's
  root path (the paper's arrays ``Av``, realised as dicts per its own
  footnote 2), each an instance of the node's own item class whose
  slots are exactly the node's counters (``item_classes``, see
  :func:`~repro.core.items.node_classes`);
* per-item counters ``C^i_ψ``, weights ``C^i`` (Lemma 6.3) and, when
  the component has free variables, ``C̃^i`` (Lemma 6.4), with cached
  per-child-list sums ``C^i_u`` / ``C̃^i_u``;
* the fit lists ``L^i_u`` and the start list ``L_start``, plus the
  running totals ``C_start`` / ``C̃_start``.

The update procedure is the five-step loop of Section 6.4 (plus steps
2a/4a of Section 6.5), executed once per atom over the updated relation
whose repeated-variable pattern matches the tuple, walking the atom's
root path bottom-up.

The loop runs through per-atom :class:`~repro.core.plans.AtomPlan`
recipes resolved at construction and ``exec``-generated into one
straight-line runner per atom (:func:`~repro.core.plans.compile_runner`),
with the Lemma 6.3/6.4 products maintained *zero-aware incrementally* —
each item keeps the product of its nonzero factors plus a zero-factor
count (``Item.nzp``/``zf``/``tnzp``/``tzf``), so a one-child delta is
O(1) arithmetic instead of a product over all children.  The seed's
literal rendering of the paper (binding dicts, products recomputed from
scratch) lives on as the test suite's differential oracle, outside this
package; both maintain byte-identical observable state.

:meth:`ComponentStructure.bulk_load` is the preprocessing pass — the
only one: it ingests the initial database one generated loader per
relation, builds the item tries top-down with plain counter bumps, and
computes every weight/fit-list/total in one bottom-up sweep —
O(poly(ϕ) · ||D0||) like an insert-by-insert replay, but without the
per-insert fit-list churn and propagation.

The structure answers:

* ``answer()``  — ``C_start > 0``                    in O(1),
* ``count()``   — ``C̃_start`` (``C_start`` if quantifier-free)  in O(1),
* ``enumerate()`` — Algorithm 1 with O(k) delay per tuple,
* ``enumerate_bound()`` — the same walk with free variables fixed,
* ``contains()`` — k item probes.

The reads are generated like the updates: ``enumerate()`` returns the
structure's compiled walker (:func:`~repro.core.plans.compile_walker`,
one flat generator over the fit lists' ``next`` pointers, one resume
per tuple) and ``enumerate_bound()`` one compiled per bound-variable
set on first use; ``contains()`` builds each node key with a C-level
getter compiled at construction.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.items import FitList, Item, node_classes
from repro.core.plans import (
    AtomPlan,
    bound_walk,
    compile_finalizer,
    compile_plans,
    compile_relation_loader,
    compile_runner,
    compile_walker,
    loader_fuses_leaf,
    plan_summary,
    tuple_getter,
)
from repro.core.qtree import QTree, build_q_tree
from repro.cq.query import ConjunctiveQuery
from repro.errors import EngineStateError, QueryStructureError
from repro.storage.database import Constant, Row

__all__ = ["ComponentStructure"]


class ComponentStructure:
    """Dynamic evaluation structure for one connected component."""

    def __init__(
        self,
        component: ConjunctiveQuery,
        qtree: Optional[QTree] = None,
    ):
        if not component.is_connected:
            raise QueryStructureError(
                "ComponentStructure expects a connected component"
            )
        self.query = component
        self.qtree = qtree if qtree is not None else build_q_tree(component)
        self.free = component.free_set
        self._has_free = bool(component.free)

        tree = self.qtree
        self._items: Dict[str, Dict[Row, Item]] = {v: {} for v in tree.parent}
        #: q-tree node → its item class, generated once like the runners.
        self.item_classes = node_classes(tree, self.free)

        # Orders and probe layouts that every contains()/enumerate()
        # call used to recompute from the q-tree, cached once.
        self._doc_order: List[str] = tree.document_order()
        self._free_order: List[str] = tree.free_document_order()
        self._arity = len(component.free)
        free_position = {v: i for i, v in enumerate(component.free)}
        # Free nodes only ever have free ancestors (Definition 4.1(2)),
        # so each root-path key is a projection of the output tuple —
        # one C-level getter per free node, no binding dict in contains().
        self._contains_probes: List[Tuple[Dict[Row, Item], object]] = [
            (
                self._items[node],
                tuple_getter([free_position[v] for v in tree.path[node]]),
            )
            for node in self._free_order
        ]

        self.plans = compile_plans(
            component, tree, self._items, self.item_classes
        )

        self.start = FitList()
        self.c_start = 0
        self.t_start = 0
        #: bumped on every effective update; live enumerations check it
        #: so that concurrent modification fails loudly instead of
        #: silently yielding garbage (the paper's model restarts the
        #: enumeration phase after each update anyway).
        self.version = 0

        # One generated update function per plan, aligned with
        # ``self.plans`` (see compile_runner); the engine's dispatch
        # table calls these directly.
        self.runners: List[object] = [
            compile_runner(plan, self) for plan in self.plans
        ]
        #: relation → [(plan, runner)] — the plan carries the delta
        #: layout apply_with_delta needs next to the runner's report.
        self._dispatch: Dict[str, List[Tuple[AtomPlan, object]]] = {}
        for plan, runner in zip(self.plans, self.runners):
            self._dispatch.setdefault(plan.relation, []).append((plan, runner))

        #: bound-variable tuple (in free order) → generated fit-list
        #: walker (see compile_walker).  ``()`` is Algorithm 1 itself,
        #: compiled here; bound variants are added by enumerate_bound on
        #: first use, so the set mirrors the access patterns in use.
        self._walkers: Dict[Tuple[str, ...], object] = {
            (): compile_walker((self,), component.free)
        }

    @property
    def free_order(self) -> List[str]:
        """Cached ``qtree.free_document_order()`` (do not mutate)."""
        return self._free_order

    def plan_stats(self) -> Dict[str, object]:
        """Compiled-plan statistics for ``explain()`` and benchmarks."""
        stats = plan_summary(self.plans)
        stats["nodes"] = len(self._items)
        stats["free_depth"] = len(self._free_order)
        return stats

    def walker_sources(self) -> Dict[Tuple[str, ...], str]:
        """Generated enumerator sources by bound-variable tuple (``()``
        is Algorithm 1 itself) — what actually runs, for debugging."""
        return {bound: walk.source for bound, walk in self._walkers.items()}

    # ------------------------------------------------------------------
    # updates (Section 6.4 / 6.5)
    # ------------------------------------------------------------------

    def apply(self, is_insert: bool, relation: str, row: Row) -> None:
        """Process one *effective* update command.

        The caller (the engine) is responsible for set-semantics no-op
        filtering: this method assumes an insert adds a genuinely new
        tuple and a delete removes a genuinely present one.
        """
        row = tuple(row)
        for _plan, runner in self._dispatch.get(relation, ()):
            runner(is_insert, row)

    # ------------------------------------------------------------------
    # updates with result-delta capture (serving layer)
    # ------------------------------------------------------------------

    def apply_with_delta(
        self, is_insert: bool, relation: str, row: Row
    ) -> Tuple[Tuple[Row, ...], Tuple[Row, ...]]:
        """Apply one effective update and report the component's delta.

        Returns ``(added, removed)``: the component result tuples that
        entered / left because of this command.  A single-tuple insert
        only ever adds result tuples and a delete only removes them
        (counters move monotonically), so one side is always empty.

        The update is a single pass — each matching atom's runner
        executes once, exactly as under :meth:`apply` — and the delta is
        read off what the runner reports (:func:`~repro.core.plans.
        compile_runner`): the shallowest free level whose item entered or
        left its fit list, and the deepest free item of the atom's root
        path.  By Lemma 6.2 a tuple is in the result iff all its free
        items are fit, and the update procedure only changes fitness on
        the root path, so right after a runner returns:

        * the flipped levels are a contiguous run ending at the path's
          leaf (a level that keeps its fitness passes no zero-crossing
          up), hence every free chain item from the reported level down
          flipped and the ones above it did not — if any of those is
          unfit, no result tuple changed;
        * a parent flips only when its child sum crosses zero, i.e. the
          chain child was (delete) / is (insert) the *sole* fit member
          of its list, so every changed tuple runs through the whole
          free chain: the chain values are pinned to the update's own;
        * a runner never touches a fit list off its path, and a flipped
          item keeps its child lists, so the free nodes hanging off the
          chain range over their fit lists *in the current state* for
          inserts and deletes alike — no pre-update state is needed.

        The delta is therefore the pinned chain times the product of
        the off-chain free fit lists (``AtomPlan.delta_slots``), at
        O(poly(ϕ)) per emitted tuple.  The atoms of a self-join run one
        after the other and each delta is taken before the next runner
        starts; the state moves monotonically, so the per-runner deltas
        are disjoint and concatenate without a dedupe set.
        """
        row = tuple(row)
        if not self._has_free:
            before = self.c_start > 0
            self.apply(is_insert, relation, row)
            after = self.c_start > 0
            if after and not before:
                return ((),), ()
            if before and not after:
                return (), ((),)
            return (), ()

        rows: List[Row] = []
        for plan, runner in self._dispatch.get(relation, ()):
            report = runner(is_insert, row)
            if report is not None:
                plan.emit_delta(report, rows)
        delta = tuple(rows)
        return (delta, ()) if is_insert else ((), delta)

    # ------------------------------------------------------------------
    # bulk preprocessing
    # ------------------------------------------------------------------

    def bulk_load(self, rows_by_relation: Mapping[str, Iterable[Row]]) -> None:
        """Batch-ingest an initial database into a pristine structure.

        Two passes replace the insert-by-insert replay:

        1. per relation, stream the rows once through the generated
           loader of all its atom plans, creating the item trie
           top-down and bumping only the ``C^i_ψ`` counters — no
           weights, no fit lists, no propagation;
        2. walk the q-tree bottom-up (reverse document order) and
           compute every item's zero-aware decomposition, weight,
           ``C̃``-weight, fit-list membership and parent sums in one
           shot — each item is touched exactly once.

        The result is state-identical to replaying the same rows as
        single inserts (the fit lists may hold their items in a
        different order, which is not observable through counts,
        membership or the result set).
        """
        if self.version or self.item_count() or self.c_start:
            raise EngineStateError(
                "bulk_load requires a pristine structure; apply() has "
                "already run (build a fresh structure instead)"
            )
        if not any(
            rows_by_relation.get(plan.relation) for plan in self.plans
        ):
            return  # nothing to load — skip all codegen and sweeps

        # Pass 1: item tries + per-atom counters, one generated loader
        # per relation feeding all of its atom plans in a single pass
        # over the rows (shared path prefixes located once per relation
        # instead of once per atom — the self-join win).  The loaders'
        # prefix caches exploit runs of tuples sharing upper-level path
        # values; rows are fed in whatever order the store holds them
        # (sorting by path prefix costs more than the cache hits save).
        for relation, pairs in self._dispatch.items():
            rows = rows_by_relation.get(relation)
            if rows:
                compile_relation_loader([plan for plan, _runner in pairs])(rows)

        # Pass 2: counters bottom-up, children strictly before parents,
        # one generated finalizer sweep per q-tree node (factor reads
        # unrolled, fit-list appends inlined; see compile_finalizer).
        # Exclusive leaves were already finalised inside their loader
        # (loader_fuses_leaf) and are skipped.
        fused_nodes = frozenset(
            plan.levels[-1].node
            for plan in self.plans
            if loader_fuses_leaf(plan)
        )
        classes = self.item_classes
        parent = self.qtree.parent
        for node in reversed(self._doc_order):
            if node in fused_nodes or not self._items[node]:
                continue
            up = parent[node]
            finalize = compile_finalizer(
                classes[node],
                classes[up] if up is not None else None,
                node in self.free,
                self.start,
            )
            c_delta, t_delta = finalize(self._items[node].values())
            self.c_start += c_delta
            self.t_start += t_delta
        self.version += 1

    # ------------------------------------------------------------------
    # queries (Sections 6.2, 6.3, 6.5)
    # ------------------------------------------------------------------

    def answer(self) -> bool:
        """``ϕ(D) ≠ ∅`` in O(1): ``C_start > 0``."""
        return self.c_start > 0

    def count(self) -> int:
        """``|ϕ(D)|`` in O(1).

        With free variables this is ``C̃_start``; Boolean components
        count 1/0 so that the engine's cross-component product works.
        """
        if self._has_free:
            return self.t_start
        return 1 if self.c_start > 0 else 0

    def enumerate(self) -> Iterator[Row]:
        """Algorithm 1: stream the component result with O(k) delay.

        Tuples are emitted over the component's free-variable order; a
        Boolean component yields ``()`` once when satisfied.  The
        stream is the structure's generated walker
        (:func:`~repro.core.plans.compile_walker`): one flat generator
        following the fit lists' ``next`` pointers, one resume per
        tuple.  The structure must not be updated while a generator is
        live — a stale walk raises :class:`EngineStateError` on resume.
        """
        return self._walkers[()]()

    def enumerate_bound(
        self, binding: Mapping[str, Constant]
    ) -> Iterator[Row]:
        """Enumerate the component with some free variables bound.

        ``binding`` maps free variables to constants.  Bound variables
        whose ancestors are all bound form an *ancestor-closed* set and
        are **pinned**: their items are looked up directly along the
        root path (O(1) dict probes, the free-access-pattern primitive
        behind ``cursor(X=c)``), so the delay stays O(k) per tuple and
        is independent of how many tuples the unpinned part skips.
        Bound variables below an unbound ancestor cannot be pinned and
        degrade to a filter over their fit list — still duplicate-free
        and correct, but the delay is no longer constant (the planner's
        binding order tells callers which prefixes pin).

        One walker is compiled per bound-variable *set*, on first use,
        and kept (``_walkers``); the values are its arguments, so a
        repeated access pattern costs a dict probe and a call.  Tuples
        are emitted over the component's free-variable order, with the
        bound values in place.
        """
        unknown = [v for v in binding if v not in self.free]
        if unknown:
            raise QueryStructureError(
                f"cannot bind {sorted(unknown)}: not free variables of "
                f"component {self.query.name!r}"
            )
        return bound_walk(self._walkers, (self,), self.query.free, binding)

    def contains(self, row: Row) -> bool:
        """Membership test ``ā ∈ ϕ(D)`` in O(k) dictionary probes.

        ``row`` is over the component's free-variable order.  By Lemma
        6.2 the enumerated result is exactly the set of tuples whose
        free-node items are all *fit*, so membership reduces to looking
        up each free node's item along its root path and checking its
        fit flag.  The per-node key builders are compiled once at
        construction (``_contains_probes``, C-level ``itemgetter`` calls),
        so a test is ``k`` key builds and dict probes with no binding
        dict.  This is the O(1)-per-test primitive that makes
        constant-delay *union* enumeration possible
        (:mod:`repro.extensions.ucq`).
        """
        if len(row) != self._arity:
            return False
        for store, key_of in self._contains_probes:
            item = store.get(key_of(row))
            if item is None or not item.in_list:
                return False
        return self.c_start > 0  # all a Boolean component has to say

    # ------------------------------------------------------------------
    # introspection (Figure 3, tests)
    # ------------------------------------------------------------------

    def item(self, node: str, key: Row) -> Optional[Item]:
        """Direct item lookup (the paper's array access ``Av[ā]``)."""
        return self._items[node].get(tuple(key))

    def items_at(self, node: str) -> List[Item]:
        """All present items for a q-tree node (copy, stable order)."""
        return list(self._items[node].values())

    def item_count(self) -> int:
        """Total number of items currently present."""
        return sum(len(store) for store in self._items.values())

    def snapshot(self) -> Dict[str, object]:
        """A plain-data dump used by the Figure 3 bench and the tests.

        ``start_list`` is canonicalised (sorted by key repr) so that
        two structures holding the same state compare equal regardless
        of the order in which their fit lists were grown — the list
        order is an implementation detail, not observable semantics.
        """
        items = {}
        for node, store in self._items.items():
            for key, item in store.items():
                items[(node, key)] = {
                    "weight": item.weight,
                    "tweight": item.tweight,
                    "fit": item.in_list,
                    "c_atom": item.atom_counts(),
                }
        return {
            "c_start": self.c_start,
            "t_start": self.t_start,
            "start_list": sorted(
                (item.key for item in self.start), key=repr
            ),
            "items": items,
        }
