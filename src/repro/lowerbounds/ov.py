"""The orthogonal vectors problem (Section 5.2).

OV: given sets ``U, V`` of ``n`` Boolean vectors of dimension ``d``,
decide whether some ``u ∈ U`` and ``v ∈ V`` satisfy ``u^T v = 0``.
Conjecture 5.2 (implied by SETH) rules out O(n^{2−ε}) algorithms for
``d = ⌈log2 n⌉`` — the dimension the paper's counting lower bound
(Theorem 3.5 / Lemma 5.5) instantiates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ReductionError
from repro.lowerbounds.omv import _pack_bits

__all__ = [
    "OVInstance",
    "log_dimension",
    "solve_ov_bits",
    "solve_ov_naive",
    "find_orthogonal_pair",
]

BitVector = Tuple[int, ...]


def log_dimension(n: int) -> int:
    """The paper's choice ``d = ⌈log2 n⌉`` (at least 1)."""
    return max(1, math.ceil(math.log2(max(n, 2))))


@dataclass(frozen=True)
class OVInstance:
    """An OV instance: two equal-size vector families of dimension d."""

    u_set: Tuple[BitVector, ...]
    v_set: Tuple[BitVector, ...]

    def __post_init__(self) -> None:
        if not self.u_set or not self.v_set:
            raise ReductionError("OV needs non-empty vector sets")
        d = len(self.u_set[0])
        for vector in self.u_set + self.v_set:
            if len(vector) != d:
                raise ReductionError("all vectors must share one dimension")
            if any(bit not in (0, 1) for bit in vector):
                raise ReductionError("vector entries must be 0/1")

    @property
    def n(self) -> int:
        return len(self.u_set)

    @property
    def d(self) -> int:
        return len(self.u_set[0])


def find_orthogonal_pair(
    instance: OVInstance,
) -> Optional[Tuple[int, int]]:
    """Indices ``(i, j)`` with ``u_i ⊥ v_j``, or ``None`` — O(n²d)."""
    for i, u in enumerate(instance.u_set):
        support = [p for p, bit in enumerate(u) if bit]
        for j, v in enumerate(instance.v_set):
            if all(not v[p] for p in support):
                return (i, j)
    return None


def solve_ov_naive(instance: OVInstance) -> bool:
    """Reference OV decision: True iff an orthogonal pair exists."""
    return find_orthogonal_pair(instance) is not None


def solve_ov_bits(instance: OVInstance) -> bool:
    """Bit-parallel O(n²d) OV decision: each vector packed into one
    Python int, ``u ⊥ v`` iff ``u & v == 0``."""
    v_packed = [_pack_bits(v) for v in instance.v_set]
    return any(
        not u & v
        for u in map(_pack_bits, instance.u_set)
        for v in v_packed
    )
