"""THM32-U — Theorem 3.2: constant update time vs. growing baselines.

Paper claim: a q-hierarchical query is maintainable with update time
poly(ϕ), *independent of n*; recomputation costs Ω(n) per round and a
delta-IVM baseline pays the delta-join size (Θ(n) on hub updates).

Workload: the hub-star database of ``_common`` with update→count
rounds toggling E1 edges at the hub.  Expected shape: the q-hierarchical
series is flat (log–log exponent ≈ 0) while both baselines grow
(exponent ≥ ~0.5); the gap widens with n.
"""

import random

from repro.bench.harness import ScalingExperiment
from repro.cq.zoo import star_query
from repro.interface import make_engine
from repro.ivm import RecomputeEngine

import _common
from _common import emit, hub_star_database, hub_toggle_commands, reset, scaled

QUERY = star_query(2)
SIZES = scaled([300, 600, 1200, 2400])
ROUNDS = 30


def measure(engine_name: str, n: int, rng: random.Random) -> float:
    """Seconds per update→count round at database size n."""
    database = hub_star_database(n, rng)
    if engine_name == RecomputeEngine.name:
        engine = RecomputeEngine(QUERY, database)
    else:
        engine = make_engine(engine_name, QUERY, database)
    commands = hub_toggle_commands(n, ROUNDS)

    import time

    start = time.perf_counter()
    for command in commands:
        engine.apply(command)
        engine.count()
    elapsed = time.perf_counter() - start
    return elapsed / len(commands)


def test_thm32_update_time_shapes(benchmark):
    reset("THM32-U")
    experiment = ScalingExperiment(
        title="THM32-U: seconds per update+count round (hub-star workload)",
        sizes=SIZES,
        measure=measure,
        engines=["qhierarchical", "delta_ivm", "recompute"],
    ).run()
    emit("THM32-U", experiment.render())
    emit(
        "THM32-U",
        f"speedup qhierarchical vs recompute at n={SIZES[-1]}: "
        f"{experiment.speedups()[-1]:.1f}x",
    )

    # Shape assertions (who wins, and how the curves bend).
    assert experiment.exponent("qhierarchical") < 0.45
    assert experiment.exponent("delta_ivm") > 0.45
    assert experiment.exponent("recompute") > 0.55
    assert experiment.speedups()[-1] > 3.0

    # pytest-benchmark target: a single O(1) update+count round on the
    # largest database.
    rng = random.Random(0)
    engine = make_engine(
        "qhierarchical", QUERY, hub_star_database(SIZES[-1], rng)
    )
    toggle = hub_toggle_commands(SIZES[-1], 1)

    def one_round():
        for command in toggle:
            engine.apply(command)
        return engine.count()

    benchmark(one_round)
