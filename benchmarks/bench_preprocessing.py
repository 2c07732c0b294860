"""PREP — linear preprocessing and the static/dynamic crossover.

Paper claim (Theorem 3.2 preamble): the preprocessing phase costs
poly(ϕ)·O(||D0||) — linear in the database.  Measured: the engine
construction time scales with exponent ≈ 1.

The second artefact is the *amortisation point* the introduction argues
for: a one-shot evaluation is cheaper served statically, but after
roughly ``preprocess / (recompute_round − update_round)`` rounds the
dynamic engine has paid for itself.  The table reports that break-even
round count per n — it stays roughly constant (both numerator and
denominator are Θ(n)), i.e. dynamic wins after O(1) rounds.
"""

import random
import time

from repro.bench.reporting import format_table, format_time
from repro.bench.timing import growth_exponent
from repro.cq.zoo import star_query
from repro.interface import make_engine
from repro.ivm import RecomputeEngine

from _common import (
    best_time,
    emit,
    hub_star_database,
    hub_toggle_commands,
    reset,
    scaled,
)

QUERY = star_query(2)
SIZES = scaled([400, 800, 1600, 3200])


def play_rounds(engine, commands) -> None:
    """One update→count round per command."""
    for command in commands:
        engine.apply(command)
        engine.count()


def test_preprocessing_linear_and_crossover(benchmark):
    reset("PREP")
    rows = []
    preprocess_times = []
    # Generated code compiles once per process: build the query once,
    # untimed, so every timed build measures preprocessing, not compile.
    make_engine("qhierarchical", QUERY, hub_star_database(SIZES[0], random.Random(0)))
    for n in SIZES:
        rng = random.Random(n)
        database = hub_star_database(n, rng)

        start = time.perf_counter()
        engine = make_engine("qhierarchical", QUERY, database)
        preprocess = time.perf_counter() - start
        preprocess_times.append(preprocess)

        # Per-round costs for the crossover estimate.
        commands = hub_toggle_commands(n, 10)
        start = time.perf_counter()
        play_rounds(engine, commands)
        fast_round = (time.perf_counter() - start) / len(commands)

        # The recompute baseline allocates a result per round, so its
        # rounds run with the collector held off, best of 3 (the toggles
        # leave the database as they found it, so the rounds repeat).
        slow = RecomputeEngine(QUERY, database.copy())
        slow_round = best_time(lambda: play_rounds(slow, commands)) / len(commands)

        breakeven = preprocess / max(slow_round - fast_round, 1e-12)
        rows.append(
            [
                n,
                format_time(preprocess),
                format_time(fast_round),
                format_time(slow_round),
                f"{breakeven:.1f}",
            ]
        )

    emit(
        "PREP",
        format_table(
            [
                "n",
                "preprocess (qh)",
                "qh round",
                "recompute round",
                "break-even rounds",
            ],
            rows,
            title="PREP: preprocessing cost and static→dynamic crossover",
        ),
    )

    exponent = growth_exponent(SIZES, preprocess_times)
    emit("PREP", f"preprocessing growth exponent: {exponent:+.2f} (paper: linear)")
    assert 0.6 < exponent < 1.45

    database = hub_star_database(SIZES[0], random.Random(9))
    benchmark.pedantic(
        lambda: make_engine("qhierarchical", QUERY, database),
        rounds=3,
        iterations=1,
    )
