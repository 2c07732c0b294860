"""The recompute-from-scratch baseline.

The null hypothesis of dynamic query evaluation: keep the database,
recompute ``ϕ(D)`` whenever a result is requested after a change.
Recomputation uses Yannakakis when the query is acyclic and the generic
backtracking join otherwise, so this baseline is as strong as a static
evaluator can be — its per-round cost is still Ω(||D||), which is
exactly what Theorem 3.2 beats with constant-time updates.

Recomputation is *lazy* (a dirty flag set on update, evaluation on the
next query).  Benchmarks therefore measure a full update→query round,
which is the honest comparison: the paper's lower-bound reductions
charge ``n·t_u + t_a`` per round as well.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set, Tuple

from repro.cq.acyclicity import join_tree
from repro.eval_static.naive import evaluate as evaluate_naive
from repro.eval_static.yannakakis import evaluate_acyclic
from repro.interface import DynamicEngine, register_engine
from repro.storage.database import Database, Row
from repro.storage.updates import UpdateCommand

__all__ = ["RecomputeEngine"]


@register_engine
class RecomputeEngine(DynamicEngine):
    """Materialise ``ϕ(D)`` on demand, invalidate on every change."""

    name = "recompute"

    reads_store = True

    def _setup(self) -> None:
        self._cache: Optional[Set[Row]] = None
        # (relation, row) → ±1: store writes the effective body has not
        # seen yet — empty except inside a session's fan-out.
        self._ahead: Dict[Tuple[str, Row], int] = {}
        self._tree = join_tree(self._query)  # None when cyclic
        self.recompute_count = 0  # instrumentation for benchmarks

    def _store_moved(self, relation: str, row: Row, sign: int) -> None:
        if self._ahead.pop((relation, row), 0) + sign:
            self._ahead[relation, row] = sign

    def _caught_up(self, relation: str, row: Row) -> None:
        self._cache = None
        self._ahead.pop((relation, row), None)

    _on_insert = _on_delete = _caught_up

    def apply_with_delta(
        self, command: UpdateCommand
    ) -> Tuple[Tuple[Row, ...], Tuple[Row, ...]]:
        self._result()  # the result the gate's store write replaces
        return super().apply_with_delta(command)

    def _as_of_epoch(self) -> Database:
        """The query's relations with the unseen writes undone — an
        O(||D||) copy, no more than the evaluation it feeds."""
        past = Database.empty_like(self._query)
        for relation in self._query.relations:
            past.bulk_insert(relation, self._db.relation(relation).rows, checked=True)
        for (relation, row), sign in self._ahead.items():
            (past.delete if sign > 0 else past.insert)(relation, row)
        return past

    def _result(self) -> Set[Row]:
        if self._cache is None:
            db = self._as_of_epoch() if self._ahead else self._db
            if self._tree is not None:
                self._cache = evaluate_acyclic(self._query, db, self._tree)
            else:
                self._cache = evaluate_naive(self._query, db)
            self.recompute_count += 1
        return self._cache

    def count(self) -> int:
        return len(self._result())

    def answer(self) -> bool:
        return bool(self._result())

    def enumerate(self) -> Iterator[Row]:
        yield from self._result()
