"""THM32-E — Theorem 3.2(a): constant-delay enumeration.

Paper claim: after linear preprocessing the result of a q-hierarchical
query can be enumerated with delay poly(ϕ) — independent of n — and the
enumeration can restart immediately after each O(1) update.

Measured shape: median and p99 per-tuple delay of the q-hierarchical
engine stay flat across n, while the recompute baseline's *time to
first tuple* grows linearly (it must evaluate before it can emit).
"""

import random
import time

from repro.bench.reporting import format_table, format_time
from repro.bench.timing import DelayRecorder, growth_exponent
from repro.cq.zoo import star_query
from repro.interface import make_engine
from repro.ivm import RecomputeEngine

from _common import emit, hub_star_database, reset, scaled

QUERY = star_query(2, free_leaves=1)  # S(x) ∧ E1(x,y1) ∧ E2(x,y2), free (x,y1)
SIZES = scaled([300, 600, 1200, 2400])
LIMIT = 1000  # tuples consumed per enumeration pass


def test_thm32_constant_delay(benchmark):
    reset("THM32-E")
    rows = []
    medians, p99s, firsts = [], [], []
    for n in SIZES:
        rng = random.Random(n)
        database = hub_star_database(n, rng)
        fast = make_engine("qhierarchical", QUERY, database)
        recorder = DelayRecorder()
        recorder.consume(fast.enumerate(), limit=LIMIT)

        slow = RecomputeEngine(QUERY, database)
        start = time.perf_counter()
        next(iter(slow.enumerate()))
        first_tuple = time.perf_counter() - start

        medians.append(recorder.median_delay)
        p99s.append(recorder.percentile_delay(99))
        firsts.append(first_tuple)
        rows.append(
            [
                n,
                format_time(recorder.median_delay),
                format_time(recorder.percentile_delay(99)),
                format_time(first_tuple),
            ]
        )

    emit(
        "THM32-E",
        format_table(
            ["n", "qh median delay", "qh p99 delay", "recompute first tuple"],
            rows,
            title="THM32-E: per-tuple delay vs n",
        ),
    )

    assert growth_exponent(SIZES, medians) < 0.45
    assert growth_exponent(SIZES, firsts) > 0.5

    engine = make_engine(
        "qhierarchical", QUERY, hub_star_database(SIZES[-1], random.Random(1))
    )

    def enumerate_prefix():
        recorder = DelayRecorder()
        return recorder.consume(engine.enumerate(), limit=LIMIT)

    benchmark(enumerate_prefix)
