"""THM34 — Theorem 3.4 / Lemma 5.3: OuMv through Boolean answering.

Paper claim: answering the Boolean ``ϕ'_S-E-T`` (non-q-hierarchical
core) with O(n^{1-ε}) update and O(n^{2-ε}) answer time would solve
OuMv in O(n^{3-ε}).  We run the reduction with both baselines, check
bit-exactness against the direct OuMv solver, and measure the per-round
cost growth (super-linear, as the conjecture demands of any real
implementation).
"""

import random
import time

from repro.bench.reporting import format_table, format_time
from repro.bench.timing import growth_exponent
from repro.cq import zoo
from repro.ivm import DeltaIVMEngine, RecomputeEngine
from repro.lowerbounds.omv import solve_oumv_bits, solve_oumv_naive
from repro.lowerbounds.reductions import OuMvBooleanReduction
from repro.workloads.matrices import random_oumv_instance

from _common import emit, reset, scaled

SIZES = scaled([8, 12, 18, 27])


def test_thm34_oumv_via_boolean_answering(benchmark):
    reset("THM34")
    rows = []
    per_round = {"delta_ivm": [], "recompute": []}
    for n in SIZES:
        rng = random.Random(n * 13)
        instance = random_oumv_instance(rng, n=n)
        expected = solve_oumv_naive(instance)

        timings = {}
        for name, engine_cls in [
            ("delta_ivm", DeltaIVMEngine),
            ("recompute", RecomputeEngine),
        ]:
            best = float("inf")
            for _ in range(2):  # best-of-2 damps scheduler noise
                reduction = OuMvBooleanReduction(zoo.S_E_T_BOOLEAN, engine_cls)
                start = time.perf_counter()
                got = reduction.solve(instance)
                elapsed = time.perf_counter() - start
                assert got == expected
                best = min(best, elapsed)
            timings[name] = best
            per_round[name].append(best / n)

        start = time.perf_counter()
        solve_oumv_bits(instance)
        direct = time.perf_counter() - start

        rows.append(
            [
                n,
                format_time(timings["delta_ivm"] / n),
                format_time(timings["recompute"] / n),
                format_time(direct / n),
                reduction.updates_issued,
            ]
        )

    emit(
        "THM34",
        format_table(
            [
                "n",
                "delta_ivm / round",
                "recompute / round",
                "bit-parallel direct / round",
                "updates issued",
            ],
            rows,
            title="THM34: OuMv solved through Boolean answering of ϕ'_S-E-T",
        ),
    )

    for name, series in per_round.items():
        exponent = growth_exponent(SIZES, series)
        emit("THM34", f"per-round growth exponent [{name}]: {exponent:+.2f}")
        assert exponent > 0.6, name

    rng = random.Random(1)
    instance = random_oumv_instance(rng, n=SIZES[0])
    reduction = OuMvBooleanReduction(zoo.S_E_T_BOOLEAN, DeltaIVMEngine)
    benchmark.pedantic(
        lambda: reduction.solve(instance), rounds=3, iterations=1
    )
