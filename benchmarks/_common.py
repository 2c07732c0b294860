"""Shared helpers for the benchmark suite.

Every benchmark regenerates one paper artefact (see DESIGN.md's
per-experiment index).  Its printed output — the paper-shaped table or
series — is also written to ``benchmarks/results/<experiment>.txt`` so
that a ``pytest benchmarks/ --benchmark-only`` run leaves a complete
paper-vs-measured record behind regardless of output capturing.

``REPRO_BENCH_SCALE`` (default 1.0) multiplies the database sizes of
the scaling experiments; raise it on a quiet machine for cleaner
slopes, lower it for a smoke run.
"""

from __future__ import annotations

import gc
import os
import pathlib
import random
import time
from typing import Callable, Dict, List, Sequence

from repro.interface import DynamicEngine, make_engine
from repro.storage.updates import UpdateCommand

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(sizes: Sequence[int]) -> List[int]:
    """Apply the REPRO_BENCH_SCALE factor to a size sweep."""
    return [max(4, int(size * SCALE)) for size in sizes]


def emit(experiment: str, text: str) -> None:
    """Print an artefact and persist it under benchmarks/results/."""
    print(text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{experiment}.txt"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(text + "\n")


def reset(experiment: str) -> None:
    """Truncate a previous run's artefact file."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{experiment}.txt").write_text("", encoding="utf-8")


def best_time(action: Callable[[], object], repeats: int = 3) -> float:
    """Best wall-clock seconds of ``repeats`` calls of ``action``.

    Each call starts right after a full collection and runs with the
    cyclic collector held off (restored in ``finally``), so a collector
    pass triggered by earlier allocations never lands inside a timed
    call; the best of the repeats drops the remaining scheduler noise.
    """
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            action()
            best = min(best, time.perf_counter() - start)
        finally:
            if was_enabled:
                gc.enable()
    return best


def replay(engine: DynamicEngine, commands: Sequence[UpdateCommand]) -> None:
    for command in commands:
        engine.apply(command)


# ---------------------------------------------------------------------------
# The hub-star workload used by the Theorem 3.2 scaling benches.
#
# Query: star S(x) ∧ E1(x, y1) ∧ E2(x, y2).  The database has n centre
# values; centre 0 is a *hub* with n outgoing E2 edges.  The update
# stream toggles E1 edges at the hub, so a delta-IVM engine joins
# through Θ(n) E2 partners per update while the paper's engine touches
# O(1) items — the starkest legal contrast, since the query itself is
# q-hierarchical and all engines accept it.
# ---------------------------------------------------------------------------

from repro.cq.zoo import star_query  # noqa: E402
from repro.storage.database import Database  # noqa: E402
from repro.storage.updates import delete as _delete, insert as _insert  # noqa: E402


def hub_star_database(n: int, rng: random.Random) -> Database:
    relations: Dict[str, list] = {
        "S": [(x,) for x in range(n)],
        "E1": [(i, (i * 7) % n) for i in range(1, n)],
        "E2": [(0, j) for j in range(n)]
        + [(i, (i * 3) % n) for i in range(1, n)],
    }
    return Database.from_dict(relations)


def hub_toggle_commands(n: int, rounds: int) -> List[UpdateCommand]:
    """Alternating insert/delete of hub E1 edges (all effective)."""
    commands: List[UpdateCommand] = []
    for step in range(rounds):
        target = (0, n + step)  # fresh leaf: insert is always effective
        commands.append(_insert("E1", target))
        commands.append(_delete("E1", target))
    return commands
