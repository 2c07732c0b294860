"""Unions of q-hierarchical conjunctive queries under updates.

A UCQ ``Φ = ϕ_1 ∪ ... ∪ ϕ_q`` (all disjuncts over the same output
tuple) is maintained by keeping one Theorem 3.2 engine per disjunct.
The interesting parts are the operations that must *combine* them:

* **answer()** — trivially O(1): any disjunct non-empty.
* **enumerate()** — duplicate-free constant-delay enumeration via the
  classical union trick (Durand–Strozecki): to stream ``A ∪ B`` given
  constant-delay streams of ``A`` and ``B`` plus O(1) membership in
  ``A``, walk ``B`` and, whenever the candidate ``b`` is already in
  ``A``, emit the *next element of A* instead (each step emits exactly
  one fresh tuple); when ``B`` is exhausted, drain what is left of
  ``A``.  Folding this pairwise handles any number of disjuncts.  The
  O(1) membership primitive is :meth:`QHierarchicalEngine.contains`,
  i.e. the fit-flag probes of the Section 6 structure.
* **count()** — inclusion–exclusion:
  ``|Φ(D)| = Σ_{∅≠S⊆[q]} (-1)^{|S|+1} |⋂_{i∈S} ϕ_i(D)|``.
  The intersection of CQs with a common free tuple is the conjunction
  of their bodies with quantified variables renamed apart
  (:func:`intersection_query`).  Each intersection that is itself
  q-hierarchical gets its own Theorem 3.2 engine and the count is O(2^q)
  dictionary reads.  If *any* intersection falls outside the class,
  exact O(1) counting is refused (``counting_supported`` is False and
  ``count()`` falls back to counting by enumeration) — consistent with
  the paper's lower bounds, which make some UCQ counts genuinely hard
  to maintain.

Updates fan out to every engine (per-disjunct and per-intersection), so
the update time is O(2^q · poly(Φ)) — constant in the data, as required.
Every one of those engines reads the union engine's own database — the
session's store when the union is a view — so the union keeps no copy
of the store per disjunct.

:class:`UnionEngine` is a regular :class:`~repro.interface.DynamicEngine`
registered as ``"ucq_union"``: it shares the interface's update/query
contract with the CQ engines and is selected automatically by the
planner (:mod:`repro.api`) for unions of q-hierarchical disjuncts.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.engine import QHierarchicalEngine
from repro.cq.analysis import is_q_hierarchical
from repro.cq.query import ConjunctiveQuery
from repro.errors import QueryStructureError
from repro.interface import DynamicEngine, register_engine
from repro.storage.database import Constant, Database, Row

__all__ = [
    "UnionOfCQs",
    "UnionEngine",
    "intersection_query",
    "parse_union",
    "supports_exact_counting",
]


def parse_union(text: str, name: str = "U") -> "UnionOfCQs":
    """Parse a UCQ from one rule per line::

        Alert(d, e) :- Event(d, e), Flagged(d)
        Alert(d, e) :- Critical(d, e)

    Blank lines and ``#`` comments are skipped.
    """
    from repro.cq.parser import parse_many

    return UnionOfCQs(parse_many(text), name=name)


class UnionOfCQs:
    """A union of conjunctive queries with a common output arity.

    Disjuncts keep their own variable names; only the *positions* of
    the free tuples line up.  Relations shared between disjuncts must
    agree on arity (they denote the same stored relation).
    """

    def __init__(self, disjuncts: Sequence[ConjunctiveQuery], name: str = "U"):
        disjuncts = tuple(disjuncts)
        if not disjuncts:
            raise QueryStructureError("a UCQ needs at least one disjunct")
        arity = disjuncts[0].arity
        arities: Dict[str, int] = {}
        for query in disjuncts:
            if query.arity != arity:
                raise QueryStructureError(
                    "all disjuncts must share the output arity "
                    f"({query.arity} != {arity})"
                )
            for relation in query.relations:
                declared = arities.setdefault(relation, query.arity_of(relation))
                if declared != query.arity_of(relation):
                    raise QueryStructureError(
                        f"relation {relation!r} used with two arities "
                        "across disjuncts"
                    )
        self.disjuncts = disjuncts
        self.arity = arity
        self.name = name
        self._arities = arities
        self._intersection_profile: Optional[
            Tuple[Tuple[Tuple[int, ...], ConjunctiveQuery, bool], ...]
        ] = None

    @property
    def relations(self) -> Tuple[str, ...]:
        return tuple(sorted({r for q in self.disjuncts for r in q.relations}))

    @property
    def free(self) -> Tuple[str, ...]:
        """The output schema, mirroring :attr:`ConjunctiveQuery.free`.

        Disjuncts align positionally, so the first disjunct's free-tuple
        names stand for the whole union's output columns.
        """
        return self.disjuncts[0].free

    def arity_of(self, relation: str) -> int:
        """Declared arity of a relation (shared across disjuncts)."""
        try:
            return self._arities[relation]
        except KeyError:
            raise QueryStructureError(
                f"relation {relation!r} does not occur in {self.name}"
            ) from None

    def intersection_profile(
        self,
    ) -> Tuple[Tuple[Tuple[int, ...], ConjunctiveQuery, bool], ...]:
        """Every >=2-subset of disjunct indices with its intersection CQ
        and whether that CQ is q-hierarchical.

        The O(2^q) construction is cached on the union, so planning a
        UCQ (:func:`supports_exact_counting`) and then building its
        :class:`UnionEngine` pays for it once.
        """
        if self._intersection_profile is None:
            self._intersection_profile = tuple(
                (subset, query, is_q_hierarchical(query))
                for subset, query in _intersection_subsets(self)
            )
        return self._intersection_profile

    def __str__(self) -> str:
        return " ∪ ".join(str(q) for q in self.disjuncts)


def intersection_query(
    left: ConjunctiveQuery, right: ConjunctiveQuery
) -> ConjunctiveQuery:
    """The CQ computing ``left(D) ∩ right(D)``.

    Free variables are unified positionally onto the left's names; the
    right disjunct's remaining variables are renamed apart.  The result
    is the conjunction of both bodies.
    """
    if left.arity != right.arity:
        raise QueryStructureError("intersection needs equal arities")
    renaming: Dict[str, str] = {}
    for left_var, right_var in zip(left.free, right.free):
        renaming[right_var] = left_var
    taken = set(left.variables) | set(left.free)
    for var in sorted(right.variables):
        if var in renaming:
            continue
        fresh = var
        while fresh in taken:
            fresh += "_r"
        renaming[var] = fresh
        taken.add(fresh)
    renamed_right = right.rename(renaming)
    return ConjunctiveQuery(
        list(left.atoms) + list(renamed_right.atoms),
        left.free,
        name=f"({left.name}∩{right.name})",
    )


def _intersection_of(queries: Sequence[ConjunctiveQuery]) -> ConjunctiveQuery:
    result = queries[0]
    for query in queries[1:]:
        result = intersection_query(result, query)
    return result


def _intersection_subsets(
    union: UnionOfCQs,
) -> Iterator[Tuple[Tuple[int, ...], ConjunctiveQuery]]:
    """Every >=2-subset of disjunct indices with its intersection CQ."""
    indices = range(len(union.disjuncts))
    for size in range(2, len(union.disjuncts) + 1):
        for subset in itertools.combinations(indices, size):
            yield subset, _intersection_of([union.disjuncts[i] for i in subset])


def supports_exact_counting(union: UnionOfCQs) -> bool:
    """Whether O(2^q) inclusion–exclusion counting is available.

    True iff every inclusion–exclusion intersection is itself
    q-hierarchical — the static check behind
    :attr:`UnionEngine.counting_supported`, usable without building the
    engine (the planner reports the counting guarantee from it).
    """
    return all(qh for _, _, qh in union.intersection_profile())


@register_engine
class UnionEngine(DynamicEngine):
    """Dynamic evaluation for unions of q-hierarchical CQs.

    A full :class:`~repro.interface.DynamicEngine`: construction is the
    preprocessing phase, updates go through the shared
    ``insert``/``delete``/``apply`` front (set-semantics no-ops filtered
    once, by the store write) and fan out to the effective bodies of
    the per-disjunct and per-intersection Theorem 3.2 engines —
    O(2^q · poly(Φ)) per update, constant in the data.

    Construction raises :class:`NotQHierarchicalError` if some disjunct
    is outside Theorem 3.2's class.  ``counting_supported`` reports
    whether every inclusion–exclusion intersection is q-hierarchical —
    only then is ``count()`` O(1).  A plain
    :class:`~repro.cq.query.ConjunctiveQuery` is accepted as the
    degenerate single-disjunct union, so the registry entry
    ``"ucq_union"`` composes with :func:`~repro.interface.make_engine`.
    """

    name = "ucq_union"
    accepts_unions = True

    #: apply_with_delta combines the disjuncts' O(δ) deltas with O(1)
    #: membership probes for dedup — never a full result diff.
    supports_cheap_delta = True

    def __init__(
        self,
        union: Union[UnionOfCQs, ConjunctiveQuery],
        database: Optional[Database] = None,
    ):
        if isinstance(union, ConjunctiveQuery):
            union = UnionOfCQs([union], name=union.name)
        super().__init__(union, database)

    def _setup(self) -> None:
        # Every sub-engine reads this engine's store and bulk-loads its
        # rows on construction — the preprocessing phase.
        union: UnionOfCQs = self._query
        db = self._db
        self._engines: List[QHierarchicalEngine] = [
            QHierarchicalEngine(query, db) for query in union.disjuncts
        ]

        # Inclusion–exclusion engines for every subset of size >= 2.
        self._intersections: Dict[Tuple[int, ...], QHierarchicalEngine] = {}
        self.counting_supported = True
        for subset, query, q_hierarchical in union.intersection_profile():
            if not q_hierarchical:
                self.counting_supported = False
                continue
            self._intersections[subset] = QHierarchicalEngine(query, db)

        self._by_relation: Dict[str, List[QHierarchicalEngine]] = {}
        for engine in list(self._engines) + list(self._intersections.values()):
            for relation in engine.query.relations:
                self._by_relation.setdefault(relation, []).append(engine)
        # id(engine) → disjunct position; intersection engines are absent.
        self._disjunct_index: Dict[int, int] = {
            id(engine): index for index, engine in enumerate(self._engines)
        }

    def _preload(self) -> None:
        """Nothing left to load: :meth:`_setup` built every sub-engine
        over the store, each through its own bulk path."""

    # ------------------------------------------------------------------
    # updates — O(2^q · poly(Φ)), constant in the data
    # ------------------------------------------------------------------

    def _on_insert(self, relation: str, row: Row) -> None:
        for engine in self._by_relation.get(relation, ()):
            engine._effective(True, relation, row)

    def _on_delete(self, relation: str, row: Row) -> None:
        for engine in self._by_relation.get(relation, ()):
            engine._effective(False, relation, row)

    def _effective_with_delta(
        self, is_insert: bool, relation: str, row: Row
    ) -> Tuple[Tuple[Row, ...], Tuple[Row, ...]]:
        """One effective update with the union-level result delta.

        Each touched disjunct engine reports its own O(δ) delta; a
        candidate enters the union iff no disjunct contained it before
        (reconstructed from the current ``contains`` and the disjunct's
        own delta) and leaves iff no disjunct contains it now.
        Intersection engines are updated as usual but contribute no
        delta — they only serve counting.
        """
        self._epoch += 1
        counters = self._obs_insert if is_insert else self._obs_delete
        if counters is not None:
            # This path bypasses _effective, so the update is counted here.
            counters[relation].value += 1
        added_by: Dict[int, Tuple[Row, ...]] = {}
        removed_by: Dict[int, Tuple[Row, ...]] = {}
        for engine in self._by_relation.get(relation, ()):
            index = self._disjunct_index.get(id(engine))
            if index is None:
                engine._effective(is_insert, relation, row)
            else:
                added_by[index], removed_by[index] = (
                    engine._effective_with_delta(is_insert, relation, row)
                )

        added_sets = {i: set(rows) for i, rows in added_by.items()}
        removed_sets = {i: set(rows) for i, rows in removed_by.items()}

        def in_union_before(candidate: Row) -> bool:
            for i, engine in enumerate(self._engines):
                if candidate in removed_sets.get(i, ()):
                    return True
                if candidate not in added_sets.get(i, ()) and engine.contains(
                    candidate
                ):
                    return True
            return False

        added: List[Row] = []
        seen = set()
        for rows in added_by.values():
            for candidate in rows:
                if candidate in seen:
                    continue
                seen.add(candidate)
                if not in_union_before(candidate):
                    added.append(candidate)
        removed: List[Row] = []
        seen = set()
        for rows in removed_by.values():
            for candidate in rows:
                if candidate in seen:
                    continue
                seen.add(candidate)
                if not self.contains(candidate):
                    removed.append(candidate)
        return tuple(added), tuple(removed)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def answer(self) -> bool:
        """``Φ(D) ≠ ∅`` in O(q)."""
        return any(engine.answer() for engine in self._engines)

    def count(self) -> int:
        """``|Φ(D)|``.

        O(2^q) when ``counting_supported``; otherwise falls back to a
        full duplicate-free enumeration (documented degradation — the
        exact count of such unions can be genuinely hard to maintain).
        """
        if not self.counting_supported:
            return sum(1 for _ in self.enumerate())
        total = 0
        for index, engine in enumerate(self._engines):
            total += engine.count()
        for subset, engine in self._intersections.items():
            sign = -1 if len(subset) % 2 == 0 else 1
            total += sign * engine.count()
        return total

    def contains(self, row: Sequence[Constant]) -> bool:
        """Membership in the union, O(q · poly(Φ))."""
        row = tuple(row)
        return any(engine.contains(row) for engine in self._engines)

    def enumerate(self) -> Iterator[Row]:
        """Duplicate-free enumeration with constant delay.

        Pairwise Durand–Strozecki folding: ``U_i = U_{i-1} ∪ D_i`` where
        membership in ``U_{i-1}`` is O(i · poly) via the per-disjunct
        fit-flag probes.  Every loop iteration of the merged stream
        emits exactly one fresh tuple, so the delay is O(q · poly(Φ)).
        """

        def member_of_prefix(row: Row, prefix_end: int) -> bool:
            return any(
                self._engines[i].contains(row) for i in range(prefix_end)
            )

        def merged(prefix_end: int) -> Iterator[Row]:
            if prefix_end == 0:
                return iter(())
            return _union_stream(
                merged(prefix_end - 1),
                self._engines[prefix_end - 1].enumerate(),
                lambda row: member_of_prefix(row, prefix_end - 1),
            )

        return merged(len(self._engines))

    def _enumerate_bound_fallback(self, binding) -> Iterator[Row]:
        """Duplicate-free bound enumeration over the union.

        The structural bound path behind the base class's
        :meth:`~repro.interface.DynamicEngine.enumerate_bound` (names
        validated there).  ``binding`` uses the union's output names
        (the first disjunct's free tuple); it is translated
        positionally onto each disjunct and the Durand–Strozecki fold
        runs over the per-disjunct bound streams (each pinned or probed
        in its own q-tree), deduplicating with full-tuple ``contains``
        probes as in :meth:`enumerate`.
        """
        names = self._query.free
        position = {v: i for i, v in enumerate(names)}
        translated = []
        for engine in self._engines:
            free = engine.query.free
            translated.append(
                {free[position[v]]: value for v, value in binding.items()}
            )

        def member_of_prefix(row: Row, prefix_end: int) -> bool:
            return any(
                self._engines[i].contains(row) for i in range(prefix_end)
            )

        def merged(prefix_end: int) -> Iterator[Row]:
            if prefix_end == 0:
                return iter(())
            return _union_stream(
                merged(prefix_end - 1),
                self._engines[prefix_end - 1].enumerate_bound(
                    translated[prefix_end - 1]
                ),
                lambda row: member_of_prefix(row, prefix_end - 1),
            )

        return merged(len(self._engines))

    @property
    def union(self) -> UnionOfCQs:
        return self._query

    @property
    def disjunct_engines(self) -> Tuple[QHierarchicalEngine, ...]:
        return tuple(self._engines)

    @property
    def intersection_engines(self) -> Dict[Tuple[int, ...], QHierarchicalEngine]:
        return dict(self._intersections)

    def plan_stats(self) -> Dict[str, object]:
        """Aggregate compiled-plan statistics over all sub-engines."""
        sub = [engine.plan_stats() for engine in self._engines] + [
            engine.plan_stats() for engine in self._intersections.values()
        ]
        return {
            "disjuncts": len(self._engines),
            "intersection_engines": len(self._intersections),
            "atom_plans": sum(s["atom_plans"] for s in sub),
            "max_path_depth": max(
                (s["max_path_depth"] for s in sub), default=0
            ),
        }

    def __repr__(self) -> str:
        return (
            f"UnionEngine({self._query.name}, q={len(self._engines)}, "
            f"counting={'O(1)' if self.counting_supported else 'fallback'})"
        )


def _union_stream(
    left: Iterator[Row],
    right: Iterator[Row],
    in_left: "callable",
) -> Iterator[Row]:
    """Stream ``A ∪ B`` with constant delay (Durand–Strozecki trick).

    ``left`` must be duplicate-free, ``right`` duplicate-free, and
    ``in_left(row)`` an O(1) membership test for the *whole* left set.
    Each ``right`` candidate either is fresh (emit it) or is a
    duplicate — in which case one buffered ``left`` element is emitted
    instead, so no step is silent.  Afterwards the remaining ``left``
    elements follow.
    """
    left_iter = iter(left)
    left_done = False

    def next_left() -> Optional[Row]:
        nonlocal left_done
        if left_done:
            return None
        try:
            return next(left_iter)
        except StopIteration:
            left_done = True
            return None

    for candidate in right:
        if in_left(candidate):
            # Duplicate: emit a left element in its place (if any left).
            replacement = next_left()
            if replacement is not None:
                yield replacement
        else:
            yield candidate
    while True:
        remaining = next_left()
        if remaining is None:
            return
        yield remaining
