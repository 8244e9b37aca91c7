import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_contraction, dense_symmetric_tensor, fd_gradient
from repmech import (
    DimensionMismatch,
    constant_potential,
    multiplicity,
    potential_from_function,
    symmetric_tensor,
    symmetric_tensor_field,
    uniform_magnetic_potential,
    zero_potential,
)
from repmech.geometry import pointwise


class TestSymmetricTensor:
    def test_single_diagonal_entry(self):
        s = symmetric_tensor(3, 2, {(0, 0, 0): 2.0})
        assert s.contraction(np.zeros(2), [3, 0]) == 54.0

    def test_zero_velocity(self):
        s = symmetric_tensor(3, 2, {(0, 0, 1): 1.0, (1, 1, 1): -0.4})
        assert s.contraction(np.zeros(2), [0, 0]) == 0.0

    def test_multiplicity_weighted_entry(self):
        # (0,0,1) has 3 permutations: 3 * 1 * 1 * 2 = 6
        s = symmetric_tensor(3, 2, {(0, 0, 1): 1.0})
        assert s.contraction(np.zeros(2), [1, 2]) == 6.0

    def test_multiplicity_counts(self):
        assert multiplicity((0, 0, 0)) == 1
        assert multiplicity((0, 0, 1)) == 3
        assert multiplicity((0, 1, 2)) == 6
        assert multiplicity((0, 0, 1, 1)) == 6

    def test_unsorted_indices_canonicalized(self):
        a = symmetric_tensor(3, 3, {(2, 0, 1): 1.5})
        b = symmetric_tensor(3, 3, {(0, 1, 2): 1.5})
        v = np.array([0.3, -0.7, 1.1])
        assert a.contraction(np.zeros(3), v) == b.contraction(np.zeros(3), v)

    def test_duplicate_entries_rejected(self):
        with pytest.raises(DimensionMismatch):
            symmetric_tensor(3, 3, {(0, 1, 2): 1.0, (2, 1, 0): 2.0})

    def test_rank_below_three_rejected(self):
        with pytest.raises(DimensionMismatch):
            symmetric_tensor(2, 3, {(0, 1): 1.0})

    def test_out_of_range_index_rejected(self):
        with pytest.raises(DimensionMismatch):
            symmetric_tensor(3, 2, {(0, 1, 2): 1.0})

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_contraction_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(3, 5))
        dim = int(rng.integers(2, 5))
        entries = {}
        for _ in range(5):
            idx = tuple(sorted(rng.integers(0, dim, size=rank)))
            entries[idx] = float(rng.uniform(-1, 1))
        s = symmetric_tensor(rank, dim, entries)
        dense = dense_symmetric_tensor(rank, dim, s.entries)
        v = rng.uniform(-2, 2, size=dim)
        assert s.contraction(np.zeros(dim), v) == pytest.approx(
            dense_contraction(dense, v), rel=1e-12, abs=1e-12)

    def test_gradient_and_hessian_match_fd(self):
        rng = np.random.default_rng(11)
        s = symmetric_tensor(4, 3, {
            (0, 0, 0, 0): 0.7, (0, 1, 2, 2): -0.4, (1, 1, 1, 2): 0.9, (0, 0, 1, 1): 0.2,
        })
        x = np.zeros(3)
        for _ in range(5):
            v = rng.uniform(-1.5, 1.5, size=3)
            grad = s.contraction_gradient(x, v)
            ref = fd_gradient(lambda w: s.contraction(x, w), v)
            assert np.max(np.abs(grad - ref)) < 1e-7
            hess = s.contraction_hessian(x, v)
            for a in range(3):
                ref_row = fd_gradient(lambda w: s.contraction_gradient(x, w)[a], v)
                assert np.max(np.abs(hess[a] - ref_row)) < 1e-7

    def test_position_dependent_tensor(self):
        field = symmetric_tensor_field(
            3, 2, lambda x: {(0, 0, 0): float(x[0]), (0, 1, 1): 1.0})
        x = np.array([2.0, 0.0])
        v = np.array([1.0, 3.0])
        # 2*1 + 3*1*9
        assert field.contraction(x, v) == pytest.approx(29.0)
        dc = field.position_gradient_of_contraction(x, v)
        assert dc[0] == pytest.approx(1.0, abs=1e-8)


class TestVectorPotential:
    def test_zero_and_constant(self):
        assert np.all(zero_potential(4)(np.ones(4)) == 0.0)
        pot = constant_potential([0.5, 0, 0, 0])
        assert np.allclose(pot(np.ones(4)), [0.5, 0, 0, 0])
        assert np.all(pot.jacobian(np.ones(4)) == 0.0)

    def test_uniform_magnetic_components(self):
        pot = uniform_magnetic_potential(4, 2.0, plane=(1, 2))
        x = np.array([0.0, 3.0, 5.0, 0.0])
        a = pot(x)
        assert a[1] == pytest.approx(5.0)   # +B/2 * x^2
        assert a[2] == pytest.approx(-3.0)  # -B/2 * x^1
        assert a[0] == 0.0 and a[3] == 0.0

    def test_uniform_magnetic_jacobian_matches_fd(self):
        pot = uniform_magnetic_potential(4, 1.3, plane=(1, 3))
        x = np.array([0.2, -0.4, 0.9, 1.1])
        jac = pot.jacobian(x)
        for a in range(4):
            ref = fd_gradient(lambda y: pot(y)[a], x)
            assert np.max(np.abs(jac[a] - ref)) < 1e-9

    def test_uniform_magnetic_batch_equals_pointwise(self):
        pot = uniform_magnetic_potential(4, 1.7, plane=(3, 1))
        x = np.random.default_rng(4).normal(size=(3, 5, 4))
        assert np.array_equal(pot(x), pointwise(pot, x))
        assert np.array_equal(pot.jacobian(x), pointwise(pot.jacobian, x))

    def test_user_potential_fd_jacobian(self):
        pot = potential_from_function(3, lambda x: np.array(
            [np.sin(x[1]), x[0] * x[2], 0.0]))
        x = np.array([0.4, 0.2, -0.7])
        jac = pot.jacobian(x)
        for a in range(3):
            ref = fd_gradient(lambda y: pot(y)[a], x)
            assert np.max(np.abs(jac[a] - ref)) < 1e-8

    def test_bad_plane_rejected(self):
        with pytest.raises(DimensionMismatch):
            uniform_magnetic_potential(4, 1.0, plane=(0, 2))
