"""Replay-and-compare harness for dynamic engines.

:func:`compare_engines` replays one update stream into several engines,
verifies at checkpoints that they agree (result set, count, Boolean
answer), and reports per-engine wall-clock totals.  Benchmarks and the
examples use it to keep "same input, verified-equal output" comparisons
honest; tests use it as a one-liner cross-engine oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Type

from repro.bench.reporting import format_table, format_time
from repro.cq.query import ConjunctiveQuery
from repro.errors import EngineStateError
from repro.interface import DynamicEngine
from repro.storage.updates import UpdateCommand

__all__ = ["ComparisonResult", "compare_engines"]


@dataclass
class ComparisonResult:
    """Outcome of one replay: timings plus the agreement verdict."""

    query: ConjunctiveQuery
    engine_names: List[str]
    seconds: Dict[str, float] = field(default_factory=dict)
    checkpoints: int = 0
    final_count: int = 0

    def speedup(self, fast: str, slow: str) -> float:
        """How much faster ``fast`` processed the stream than ``slow``."""
        denominator = self.seconds[fast]
        return self.seconds[slow] / denominator if denominator else float("inf")

    def render(self) -> str:
        rows = [
            [name, format_time(self.seconds[name])]
            for name in self.engine_names
        ]
        return format_table(
            ["engine", "stream total"],
            rows,
            title=(
                f"{self.query.name}: {self.checkpoints} verified "
                f"checkpoints, final |result| = {self.final_count}"
            ),
        )


def compare_engines(
    query: ConjunctiveQuery,
    commands: Sequence[UpdateCommand],
    engine_classes: Sequence[Type[DynamicEngine]],
    checkpoint_every: int = 25,
    query_each_round: bool = True,
) -> ComparisonResult:
    """Replay ``commands`` into every engine and verify agreement.

    Each engine class is built over its own empty store and reported
    under its ``name``.  ``query_each_round`` also calls ``count()`` after every command (the
    honest update→query round); checkpoints additionally compare the
    materialised result sets across engines and raise
    :class:`EngineStateError` on any disagreement.
    """
    engines: Dict[str, DynamicEngine] = {
        cls.name: cls(query) for cls in engine_classes
    }
    engine_names = list(engines)
    result = ComparisonResult(query=query, engine_names=engine_names)
    for name in engine_names:
        result.seconds[name] = 0.0

    for index, command in enumerate(commands):
        for name, engine in engines.items():
            start = time.perf_counter()
            engine.apply(command)
            if query_each_round:
                engine.count()
            result.seconds[name] += time.perf_counter() - start

        if (index + 1) % checkpoint_every == 0 or index + 1 == len(commands):
            reference_name = engine_names[0]
            reference = engines[reference_name].result_set()
            for name in engine_names[1:]:
                observed = engines[name].result_set()
                if observed != reference:
                    raise EngineStateError(
                        f"engines disagree after command {index + 1}: "
                        f"{reference_name} has {len(reference)} tuples, "
                        f"{name} has {len(observed)}"
                    )
            counts = {
                name: engine.count() for name, engine in engines.items()
            }
            if len(set(counts.values())) != 1:
                raise EngineStateError(
                    f"count() disagreement after command {index + 1}: {counts}"
                )
            result.checkpoints += 1

    result.final_count = engines[engine_names[0]].count()
    return result
