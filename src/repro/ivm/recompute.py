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

The baseline is not a served engine (it is not in the registry, so no
session view runs it): benchmarks, examples and the lower-bound
reductions construct it directly over a store of its own.
"""

from __future__ import annotations

from typing import Iterator, Optional, Set, Tuple

from repro.cq.acyclicity import join_tree
from repro.eval_static.naive import evaluate as evaluate_naive
from repro.eval_static.yannakakis import evaluate_acyclic
from repro.interface import DynamicEngine
from repro.storage.database import Row
from repro.storage.updates import UpdateCommand

__all__ = ["RecomputeEngine"]


class RecomputeEngine(DynamicEngine):
    """Materialise ``ϕ(D)`` on demand, invalidate on every change."""

    name = "recompute"

    def _setup(self) -> None:
        self._cache: Optional[Set[Row]] = None
        self._tree = join_tree(self._query)  # None when cyclic
        self.recompute_count = 0  # instrumentation for benchmarks

    def _invalidate(self, relation: str, row: Row) -> None:
        self._cache = None

    _on_insert = _on_delete = _invalidate

    def apply_with_delta(
        self, command: UpdateCommand
    ) -> Tuple[Tuple[Row, ...], Tuple[Row, ...]]:
        self._result()  # the result the gate's store write replaces
        return super().apply_with_delta(command)

    def _result(self) -> Set[Row]:
        if self._cache is None:
            if self._tree is not None:
                self._cache = evaluate_acyclic(self._query, self._db, self._tree)
            else:
                self._cache = evaluate_naive(self._query, self._db)
            self.recompute_count += 1
        return self._cache

    def count(self) -> int:
        return len(self._result())

    def answer(self) -> bool:
        return bool(self._result())

    def contains(self, row: Row) -> bool:
        return tuple(row) in self._result()

    def enumerate(self) -> Iterator[Row]:
        yield from self._result()
