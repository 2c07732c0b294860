"""The OMv and OuMv problems (Section 5.1).

Online matrix-vector multiplication (OMv): given a Boolean ``n × n``
matrix ``M`` and then vectors ``v^1, ..., v^n`` one at a time, output
``M v^t`` (over the Boolean semiring) before seeing ``v^{t+1}``.  The
OMv conjecture (Henzinger–Krinninger–Nanongkai–Saranurak, STOC'15)
states no O(n^{3−ε}) algorithm exists.  OuMv is the variant receiving
pairs ``(u^t, v^t)`` and outputting the bit ``(u^t)^T M v^t``; it is
OMv-hard (Theorem 5.1 = [23, Thm 2.4]).

This module gives instance containers and two *direct* solvers each:

* the naive cubic solver — the semantics reference, and
* a bit-parallel solver — each matrix row and vector packed into one
  Python int, so bit ``i`` of ``M v`` is ``row_i & v != 0``: the same
  O(n³) bit-operation count with a word-level constant, standing in
  for "the best you can honestly do" when the reductions are
  benchmarked against it.

Vectors and matrices are plain tuples of 0/1 ints at the API boundary
(hashable, easily diffed into update streams); the bit solvers pack
them internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import ReductionError

__all__ = [
    "BitMatrix",
    "BitVector",
    "OMvInstance",
    "OuMvInstance",
    "solve_omv_bits",
    "solve_omv_naive",
    "solve_oumv_bits",
    "solve_oumv_naive",
]

BitVector = Tuple[int, ...]
BitMatrix = Tuple[BitVector, ...]


def _pack_bits(vector: Sequence[int]) -> int:
    """A 0/1 vector as one Python int: bit ``j`` is entry ``j``."""
    return sum(bit << j for j, bit in enumerate(vector))


def _check_matrix(matrix: BitMatrix) -> int:
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ReductionError("OMv needs a square matrix")
        if any(bit not in (0, 1) for bit in row):
            raise ReductionError("matrix entries must be 0/1")
    return n


@dataclass(frozen=True)
class OMvInstance:
    """An OMv instance: the matrix and the online vector sequence."""

    matrix: BitMatrix
    vectors: Tuple[BitVector, ...]

    def __post_init__(self) -> None:
        n = _check_matrix(self.matrix)
        for vector in self.vectors:
            if len(vector) != n:
                raise ReductionError("vector dimension must match the matrix")

    @property
    def n(self) -> int:
        return len(self.matrix)


@dataclass(frozen=True)
class OuMvInstance:
    """An OuMv instance: the matrix and the online (u, v) pair sequence."""

    matrix: BitMatrix
    pairs: Tuple[Tuple[BitVector, BitVector], ...]

    def __post_init__(self) -> None:
        n = _check_matrix(self.matrix)
        for u, v in self.pairs:
            if len(u) != n or len(v) != n:
                raise ReductionError("vector dimension must match the matrix")

    @property
    def n(self) -> int:
        return len(self.matrix)


def solve_omv_naive(instance: OMvInstance) -> List[BitVector]:
    """Reference OMv solver: O(n²) per vector, O(n³) total."""
    matrix = instance.matrix
    n = instance.n
    results: List[BitVector] = []
    for vector in instance.vectors:
        out = []
        for i in range(n):
            row = matrix[i]
            bit = 0
            for j in range(n):
                if row[j] and vector[j]:
                    bit = 1
                    break
            out.append(bit)
        results.append(tuple(out))
    return results


def solve_omv_bits(instance: OMvInstance) -> List[BitVector]:
    """Bit-parallel OMv solver (same asymptotics, smaller constant).

    Stays online: each vector is multiplied as it arrives; nothing is
    batched across vectors, so the conjecture's access model is
    respected.
    """
    rows = [_pack_bits(row) for row in instance.matrix]
    results: List[BitVector] = []
    for vector in instance.vectors:
        packed = _pack_bits(vector)
        results.append(tuple(1 if row & packed else 0 for row in rows))
    return results


def solve_oumv_naive(instance: OuMvInstance) -> BitVector:
    """Reference OuMv solver: O(n²) per pair."""
    matrix = instance.matrix
    n = instance.n
    bits = []
    for u, v in instance.pairs:
        hit = 0
        for i in range(n):
            if not u[i]:
                continue
            row = matrix[i]
            if any(row[j] and v[j] for j in range(n)):
                hit = 1
                break
        bits.append(hit)
    return tuple(bits)


def solve_oumv_bits(instance: OuMvInstance) -> BitVector:
    """Bit-parallel OuMv solver (online, per-pair)."""
    rows = [_pack_bits(row) for row in instance.matrix]
    bits = []
    for u, v in instance.pairs:
        packed = _pack_bits(v)
        hit = any(rows[i] & packed for i, bit in enumerate(u) if bit)
        bits.append(1 if hit else 0)
    return tuple(bits)
