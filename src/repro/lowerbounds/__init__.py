"""Fine-grained complexity substrate: OMv / OuMv / OV and reductions."""

from repro.lowerbounds.counting_lemma import (
    Lemma58Counter,
    brute_force_restricted_count,
    solve_vandermonde,
)
from repro.lowerbounds.omv import (
    OMvInstance,
    OuMvInstance,
    solve_omv_bits,
    solve_omv_naive,
    solve_oumv_bits,
    solve_oumv_naive,
)
from repro.lowerbounds.ov import (
    OVInstance,
    find_orthogonal_pair,
    log_dimension,
    solve_ov_bits,
    solve_ov_naive,
)
from repro.lowerbounds.reductions import (
    OMvEnumerationReduction,
    OuMvBooleanReduction,
    OuMvCountingReduction,
    OuMvPhi1Reduction,
    OVCountingReduction,
    SectionFiveFourEncoding,
)

__all__ = [
    "Lemma58Counter",
    "brute_force_restricted_count",
    "solve_vandermonde",
    "OMvInstance",
    "OuMvInstance",
    "solve_omv_bits",
    "solve_omv_naive",
    "solve_oumv_bits",
    "solve_oumv_naive",
    "OVInstance",
    "find_orthogonal_pair",
    "log_dimension",
    "solve_ov_bits",
    "solve_ov_naive",
    "OMvEnumerationReduction",
    "OuMvBooleanReduction",
    "OuMvCountingReduction",
    "OuMvPhi1Reduction",
    "OVCountingReduction",
    "SectionFiveFourEncoding",
]
