"""Tests for the OMv / OuMv / OV problem layer."""

import random

import pytest

from repro.errors import ReductionError
from repro.lowerbounds.omv import (
    OMvInstance,
    OuMvInstance,
    solve_omv_naive,
    solve_omv_bits,
    solve_oumv_naive,
    solve_oumv_bits,
)
from repro.lowerbounds.ov import (
    OVInstance,
    find_orthogonal_pair,
    log_dimension,
    solve_ov_naive,
    solve_ov_bits,
)
from repro.workloads.matrices import (
    random_omv_instance,
    random_oumv_instance,
    random_ov_instance,
)


class TestInstances:
    def test_omv_validation(self):
        with pytest.raises(ReductionError):
            OMvInstance(matrix=((0, 1), (1,)), vectors=())
        with pytest.raises(ReductionError):
            OMvInstance(matrix=((0, 1), (1, 0)), vectors=((1,),))
        with pytest.raises(ReductionError):
            OMvInstance(matrix=((0, 2), (1, 0)), vectors=())

    def test_oumv_validation(self):
        with pytest.raises(ReductionError):
            OuMvInstance(matrix=((0,),), pairs=(((0, 1), (1,)),))

    def test_ov_validation(self):
        with pytest.raises(ReductionError):
            OVInstance(u_set=(), v_set=((1,),))
        with pytest.raises(ReductionError):
            OVInstance(u_set=((1, 0),), v_set=((1,),))

    def test_log_dimension(self):
        assert log_dimension(2) == 1
        assert log_dimension(8) == 3
        assert log_dimension(9) == 4
        assert log_dimension(1) == 1


class TestOMvSolvers:
    def test_hand_example(self):
        instance = OMvInstance(
            matrix=((1, 0), (1, 1)),
            vectors=((1, 0), (0, 1), (0, 0)),
        )
        assert solve_omv_naive(instance) == [(1, 1), (0, 1), (0, 0)]

    @pytest.mark.parametrize("seed", range(5))
    def test_naive_vs_numpy(self, seed):
        rng = random.Random(seed)
        instance = random_omv_instance(rng, n=9)
        assert solve_omv_naive(instance) == solve_omv_bits(instance)


class TestOuMvSolvers:
    def test_hand_example(self):
        instance = OuMvInstance(
            matrix=((1, 0), (0, 0)),
            pairs=(
                ((1, 0), (1, 0)),  # u^T M v = 1
                ((0, 1), (1, 0)),  # row 2 empty: 0
                ((1, 0), (0, 1)),  # column 2 empty: 0
            ),
        )
        assert solve_oumv_naive(instance) == (1, 0, 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_naive_vs_numpy(self, seed):
        rng = random.Random(seed + 50)
        instance = random_oumv_instance(rng, n=9)
        assert solve_oumv_naive(instance) == solve_oumv_bits(instance)


class TestOVSolvers:
    def test_hand_example(self):
        instance = OVInstance(
            u_set=((1, 0), (1, 1)),
            v_set=((1, 1), (0, 1)),
        )
        # u1=(1,0) ⊥ v2=(0,1).
        assert solve_ov_naive(instance)
        assert find_orthogonal_pair(instance) == (0, 1)

    def test_no_pair(self):
        instance = OVInstance(
            u_set=((1, 1),),
            v_set=((1, 0), (0, 1)),
        )
        assert not solve_ov_naive(instance)
        assert find_orthogonal_pair(instance) is None

    @pytest.mark.parametrize("seed", range(6))
    def test_naive_vs_numpy(self, seed):
        rng = random.Random(seed + 100)
        instance = random_ov_instance(rng, n=20)
        assert solve_ov_naive(instance) == solve_ov_bits(instance)

    def test_paper_dimension_default(self):
        rng = random.Random(1)
        instance = random_ov_instance(rng, n=16)
        assert instance.d == log_dimension(16) == 4
