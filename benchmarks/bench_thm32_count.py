"""THM32-C — Theorem 3.2(b): O(1) counting under updates.

Paper claim: ``|ϕ(D)|`` is available in constant time at every moment,
maintained through the ``C̃`` weights of Section 6.5 (the query here has
a quantified leaf, so plain valuation counts would over-count).

Measured shape: count() latency of the q-hierarchical engine is flat in
n; the recompute baseline's count grows linearly.  Counts agree.
"""

import random
import time

from repro.bench.harness import ScalingExperiment
from repro.cq.zoo import star_query
from repro.interface import make_engine
from repro.ivm import RecomputeEngine

from _common import emit, hub_star_database, hub_toggle_commands, reset, scaled

QUERY = star_query(2, free_leaves=1)  # y2 stays quantified: exercises C̃
SIZES = scaled([300, 600, 1200, 2400])


def measure(engine_name: str, n: int, rng: random.Random) -> float:
    database = hub_star_database(n, rng)
    if engine_name == RecomputeEngine.name:
        engine = RecomputeEngine(QUERY, database)
    else:
        engine = make_engine(engine_name, QUERY, database)
    repeats = 20
    total = 0.0
    for command in hub_toggle_commands(n, repeats):
        engine.apply(command)  # dirty the caches between counts
        start = time.perf_counter()
        engine.count()
        total += time.perf_counter() - start
    return total / (2 * repeats)


def test_thm32_constant_count(benchmark):
    reset("THM32-C")
    # Cross-engine value check first.
    rng = random.Random(7)
    database = hub_star_database(SIZES[0], rng)
    fast = make_engine("qhierarchical", QUERY, database)
    slow = RecomputeEngine(QUERY, database)
    assert fast.count() == slow.count() > 0

    experiment = ScalingExperiment(
        title="THM32-C: seconds per count() after an update",
        sizes=SIZES,
        measure=measure,
        engines=["qhierarchical", "recompute"],
    ).run()
    emit("THM32-C", experiment.render())

    assert experiment.exponent("qhierarchical") < 0.4
    assert experiment.exponent("recompute") > 0.55

    engine = make_engine(
        "qhierarchical", QUERY, hub_star_database(SIZES[-1], random.Random(2))
    )
    benchmark(engine.count)
