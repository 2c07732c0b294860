"""THM35 — Theorem 3.5 / Lemmas 5.5 + 5.8: OV through dynamic counting.

Paper claim: maintaining ``|ϕ_E-T(D)|`` with O(n^{1-ε}) update and
count time would solve OV in subquadratic time, contradicting
OV/SETH.  The executable reduction drives the full Lemma 5.8 stack —
``(k+1)·2^k`` replicated engines, Vandermonde solves, inclusion–
exclusion — at the paper's dimension ``d = ⌈log2 n⌉``, is checked
bit-exactly against the direct solver, and its cost is reported next
to the O(n²d) direct evaluations.
"""

import random
import time

from repro.bench.reporting import format_table, format_time
from repro.cq import zoo
from repro.ivm import DeltaIVMEngine
from repro.lowerbounds.counting_lemma import Lemma58Counter
from repro.lowerbounds.ov import log_dimension, solve_ov_bits, solve_ov_naive
from repro.lowerbounds.reductions import OVCountingReduction
from repro.workloads.matrices import random_ov_instance

from _common import emit, reset, scaled

SIZES = scaled([6, 10, 16, 24])


def test_thm35_ov_via_counting(benchmark):
    reset("THM35")
    rows = []
    for n in SIZES:
        rng = random.Random(n * 31)
        instance = random_ov_instance(rng, n=n, density=0.6)
        expected = solve_ov_naive(instance)

        reduction = OVCountingReduction(zoo.E_T, DeltaIVMEngine)
        start = time.perf_counter()
        got = reduction.solve(instance)
        via_counting = time.perf_counter() - start
        assert got == expected

        start = time.perf_counter()
        solve_ov_naive(instance)
        naive = time.perf_counter() - start
        start = time.perf_counter()
        solve_ov_bits(instance)
        vectorised = time.perf_counter() - start

        rows.append(
            [
                n,
                log_dimension(n),
                "yes" if expected else "no",
                format_time(via_counting),
                format_time(naive),
                format_time(vectorised),
                reduction.updates_issued,
            ]
        )

    emit(
        "THM35",
        format_table(
            [
                "n",
                "d",
                "orthogonal pair",
                "via dynamic counting",
                "naive direct",
                "bit-parallel direct",
                "updates issued",
            ],
            rows,
            title="THM35: OV solved through dynamic counting of ϕ_E-T "
            "(Lemma 5.8 stack)",
        ),
    )

    # The Lemma 5.8 fan-out is (k+1)·2^k = 4 engines for k = 1.
    counter = Lemma58Counter(
        zoo.E_T, DeltaIVMEngine, {"x": {("a", 1)}}
    )
    emit("THM35", f"Lemma 5.8 auxiliary engines: {counter.engine_count} (k=1)")
    assert counter.engine_count == 4

    rng = random.Random(2)
    instance = random_ov_instance(rng, n=SIZES[0], density=0.6)
    reduction = OVCountingReduction(zoo.E_T, DeltaIVMEngine)
    benchmark.pedantic(
        lambda: reduction.solve(instance), rounds=3, iterations=1
    )


def test_thm35_case_i_oumv_via_counting(benchmark):
    """Theorem 3.5's *first* case: the core violates condition (i).

    The paper's motivating example: counting ``ϕ1(x,y) = (Exx ∧ Exy ∧
    Eyy)`` is hard although its Boolean version is trivial (core ∃x
    Exx).  The OuMv reduction goes through Lemma 5.8's good-homomorphism
    counting; run for real and checked bit-exactly.
    """
    import time

    from repro.lowerbounds.omv import solve_oumv_naive
    from repro.lowerbounds.reductions import OuMvCountingReduction
    from repro.workloads.matrices import random_oumv_instance

    rows = []
    for n in [5, 8, 12]:
        rng = random.Random(n * 17)
        instance = random_oumv_instance(rng, n=n)
        expected = solve_oumv_naive(instance)
        reduction = OuMvCountingReduction(zoo.PHI_1, DeltaIVMEngine)
        start = time.perf_counter()
        got = reduction.solve(instance)
        elapsed = time.perf_counter() - start
        assert got == expected
        rows.append(
            [n, format_time(elapsed / n), reduction.updates_issued]
        )
    emit(
        "THM35",
        format_table(
            ["n", "per round (delta_ivm inside Lemma 5.8)", "updates issued"],
            rows,
            title="THM35 case (i): OuMv via counting ϕ1 — Boolean version "
            "is trivial, counting is not",
        ),
    )

    rng = random.Random(3)
    instance = random_oumv_instance(rng, n=5)
    reduction = OuMvCountingReduction(zoo.PHI_1, DeltaIVMEngine)
    benchmark.pedantic(
        lambda: reduction.solve(instance), rounds=2, iterations=1
    )
