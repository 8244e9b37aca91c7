import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fd_gradient
from repmech import (
    LagrangianSpec,
    NegativeEvenRadicand,
    NotOneTimeMetric,
    NullVelocity,
    SpacelikeVelocity,
    constant_diagonal_metric,
    constant_potential,
    eval_L,
    generalized_momentum,
    hamiltonian_residual,
    homogeneity_residual,
    mass_shell_residual,
    minkowski_metric,
    momentum,
    momentum_fd,
    nonrelativistic_expansion,
    position_gradient,
    potential_from_function,
    symmetric_tensor,
    uniform_magnetic_potential,
    velocity_hessian,
    weak_field_metric,
)
from repmech.sweeps import (
    draw_spec_state,
    euler_identity_sweep,
    mass_shell_sweep,
    momentum_fd_sweep,
)

MINK = minkowski_metric(4)
X0 = np.zeros(4)


def em_spec(q=1.0, m=1.0, a=(0.3, 0.1, 0.0, 0.0)):
    return LagrangianSpec(metric=MINK, mass=m, charge=q,
                          potential=constant_potential(a))


def rich_spec():
    s3 = symmetric_tensor(3, 4, {(0, 0, 0): 0.4, (0, 1, 2): -0.2, (1, 1, 3): 0.3})
    s4 = symmetric_tensor(4, 4, {(0, 0, 0, 0): 0.5, (0, 0, 1, 1): 0.1})
    return LagrangianSpec(metric=MINK, mass=1.0, charge=0.7,
                          potential=constant_potential([0.3, 0.1, -0.2, 0.0]),
                          extra_terms=((0.5, s3), (0.4, s4)))


class TestEvalL:
    def test_pure_mass_rest_velocity(self):
        spec = LagrangianSpec(metric=MINK, mass=2.0)
        assert eval_L(spec, X0, [1, 0, 0, 0]) == 2.0

    def test_em_plus_mass(self):
        spec = LagrangianSpec(metric=MINK, mass=1.0, charge=1.0,
                              potential=constant_potential([0.5, 0, 0, 0]))
        assert eval_L(spec, X0, [1, 0, 0, 0]) == 1.5

    def test_time_dilation_factor(self):
        spec = LagrangianSpec(metric=MINK, mass=1.0)
        assert eval_L(spec, X0, [1, 0.6, 0, 0]) == pytest.approx(0.8, abs=1e-15)

    def test_spacelike_velocity_rejected(self):
        spec = LagrangianSpec(metric=MINK, mass=1.0)
        with pytest.raises(SpacelikeVelocity):
            eval_L(spec, X0, [1, 2, 0, 0])

    def test_negative_even_radicand_rejected(self):
        s4 = symmetric_tensor(4, 4, {(0, 0, 0, 0): -1.0})
        spec = LagrangianSpec(metric=MINK, mass=0.0, extra_terms=((1.0, s4),))
        with pytest.raises(NegativeEvenRadicand):
            eval_L(spec, X0, [1, 0, 0, 0])

    def test_odd_rank_signed_root(self):
        s3 = symmetric_tensor(3, 4, {(0, 0, 0): -8.0})
        spec = LagrangianSpec(metric=MINK, mass=0.0, extra_terms=((1.0, s3),))
        assert eval_L(spec, X0, [1, 0, 0, 0]) == pytest.approx(-2.0)


class TestMomentum:
    def test_rest_momentum(self):
        spec = LagrangianSpec(metric=MINK, mass=2.0)
        assert np.allclose(momentum(spec, X0, [1, 0, 0, 0]), [2, 0, 0, 0])

    def test_em_term_by_term(self):
        assert np.allclose(momentum(em_spec(), X0, [1, 0, 0, 0]), [1.3, 0.1, 0, 0])

    def test_matches_fd_oracle_with_rank3(self):
        spec = rich_spec()
        v = np.array([1.0, 0.3, -0.2, 0.25])
        pa = momentum(spec, X0, v)
        pf = momentum_fd(spec, X0, v)
        assert np.max(np.abs(pa - pf)) / max(1.0, np.max(np.abs(pa))) < 1e-6

    def test_null_velocity_rejected(self):
        spec = LagrangianSpec(metric=MINK, mass=1.0)
        with pytest.raises(NullVelocity):
            momentum(spec, X0, [1, 1, 0, 0])


class TestGeneralizedMomentum:
    def test_equals_pure_mass_momentum(self):
        v = np.array([1.0, 0.6, 0, 0])
        pi = generalized_momentum(em_spec(q=5.0, a=(9.0, -7.0, 3.0, 2.0)), X0, v)
        assert np.allclose(pi, [1.25, -0.75, 0, 0])

    def test_potential_independence(self):
        v = np.array([1.0, 0.2, -0.4, 0.1])
        pi1 = generalized_momentum(rich_spec(), X0, v)
        pi2 = generalized_momentum(LagrangianSpec(metric=MINK, mass=1.0), X0, v)
        assert np.max(np.abs(pi1 - pi2)) == 0.0

    def test_fd_mode(self):
        v = np.array([1.0, 0.3, 0.1, -0.2])
        pi_a = generalized_momentum(rich_spec(), X0, v)
        pi_f = generalized_momentum(rich_spec(), X0, v, mode="fd")
        assert np.max(np.abs(pi_a - pi_f)) < 1e-7


class TestIdentities:
    def test_euler_identity_trivial(self):
        spec = LagrangianSpec(metric=MINK, mass=2.0)
        assert hamiltonian_residual(spec, X0, [1, 0, 0, 0]) == 0.0

    def test_euler_identity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            spec, x, v = draw_spec_state(rng)
            p = momentum(spec, x, v)
            scale = abs(float(p @ v)) + abs(eval_L(spec, x, v))
            assert abs(hamiltonian_residual(spec, x, v)) <= 1e-10 * max(scale, 1e-300)

    def test_euler_identity_fd_mode(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            spec, x, v = draw_spec_state(rng)
            res = hamiltonian_residual(spec, x, v, mode="fd")
            p = momentum_fd(spec, x, v)
            scale = abs(float(p @ v)) + abs(eval_L(spec, x, v))
            assert abs(res) <= 1e-6 * max(scale, 1e-300)

    def test_mass_shell_hand_value(self):
        spec = LagrangianSpec(metric=MINK, mass=1.0)
        assert mass_shell_residual(spec, X0, [1, 0.6, 0, 0]) == pytest.approx(0.0, abs=1e-14)

    def test_mass_shell_rest(self):
        spec = LagrangianSpec(metric=MINK, mass=2.0)
        assert mass_shell_residual(spec, X0, [1, 0, 0, 0]) == pytest.approx(0.0, abs=1e-14)

    def test_mass_shell_curved_fd(self):
        metric = weak_field_metric(4, lambda x: 0.03 * float(np.sin(x[0] + x[1])))
        spec = LagrangianSpec(metric=metric, mass=1.3)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=4)
            v = np.concatenate(([1.0], rng.uniform(-0.3, 0.3, size=3)))
            assert abs(mass_shell_residual(spec, x, v)) <= 1e-9
            assert abs(mass_shell_residual(spec, x, v, mode="fd")) <= 1e-9

    @pytest.mark.parametrize("curved", [False, True])
    def test_mass_shell_batch_equals_point_loop(self, curved):
        metric = (weak_field_metric(4, lambda x: 0.05 * float(np.sin(x[1]))) if curved
                  else MINK)
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, size=(3, 4, 4))
        v = np.concatenate((np.ones((3, 4, 1)), rng.uniform(-0.4, 0.4, size=(3, 4, 3))), axis=-1)
        for mass in (1.3, 0.0):
            spec = LagrangianSpec(metric=metric, mass=mass, charge=0.4,
                                  potential=uniform_magnetic_potential(4, 1.0))
            loop = np.array([[mass_shell_residual(spec, xi, vi) for xi, vi in zip(xr, vr)]
                             for xr, vr in zip(x, v)])
            batch = mass_shell_residual(spec, x, v)
            assert batch.shape == (3, 4)
            assert np.array_equal(batch, loop)
        assert np.all(batch == 0.0)  # no mass term: zeros of the batch shape

    def test_finite_difference_sweeps_pass(self):
        for result in (euler_identity_sweep("fd", samples=30, seed=2),
                       mass_shell_sweep(samples=30, seed=3),
                       momentum_fd_sweep(samples=30, seed=4)):
            assert result.passed, result

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-3, max_value=3), st.integers(0, 2 ** 31 - 1))
    def test_homogeneity_property(self, log_lam, seed):
        lam = math.exp(log_lam)
        rng = np.random.default_rng(seed)
        spec, x, v = draw_spec_state(rng)
        res = homogeneity_residual(spec, x, v, lam)
        assert abs(res) <= 1e-11 * lam * max(1.0, abs(eval_L(spec, x, v)))

    def test_homogeneity_small_scale(self):
        spec = rich_spec()
        v = np.array([1.0, 0.25, -0.1, 0.05])
        for lam in (2.0, 1e-3):
            assert abs(homogeneity_residual(spec, X0, v, lam)) <= 1e-12 * max(
                1.0, lam * abs(eval_L(spec, X0, v)))


class TestGaugeShift:
    def test_shift_moves_p_not_pi(self):
        spec = em_spec()
        grad_f = np.array([0.4, -0.3, 0.2, 0.7])  # df for f linear in x

        def shifted(x):
            return spec.potential(x) + grad_f

        spec2 = LagrangianSpec(metric=MINK, mass=1.0, charge=1.0,
                               potential=potential_from_function(4, shifted))
        v = np.array([1.0, 0.4, -0.2, 0.1])
        dp = momentum(spec2, X0, v) - momentum(spec, X0, v)
        assert np.max(np.abs(dp - 1.0 * grad_f)) < 1e-10
        dpi = generalized_momentum(spec2, X0, v) - generalized_momentum(spec, X0, v)
        assert np.max(np.abs(dpi)) == 0.0

    def test_lagrangian_shift_is_total_derivative(self):
        spec = em_spec()
        grad_f = np.array([0.4, -0.3, 0.2, 0.7])
        spec2 = LagrangianSpec(
            metric=MINK, mass=1.0, charge=1.0,
            potential=potential_from_function(4, lambda x: spec.potential(x) + grad_f))
        v = np.array([1.0, 0.4, -0.2, 0.1])
        assert eval_L(spec2, X0, v) - eval_L(spec, X0, v) == pytest.approx(
            float(grad_f @ v), abs=1e-14)


class TestDerivatives:
    def test_velocity_hessian_annihilates_v(self):
        spec = rich_spec()
        v = np.array([1.0, 0.3, -0.2, 0.25])
        h = velocity_hessian(spec, X0, v)
        assert np.max(np.abs(h @ v)) < 1e-12

    def test_velocity_hessian_matches_fd(self):
        spec = rich_spec()
        v = np.array([1.0, 0.3, -0.2, 0.25])
        h = velocity_hessian(spec, X0, v)
        for a in range(4):
            ref = fd_gradient(lambda w: momentum(spec, X0, w)[a], v)
            assert np.max(np.abs(h[a] - ref)) < 1e-6

    def test_position_gradient_matches_fd(self):
        metric = weak_field_metric(4, lambda x: 0.05 * float(np.sin(x[0] - 2 * x[2])))
        spec = LagrangianSpec(metric=metric, mass=1.2, charge=0.8,
                              potential=uniform_magnetic_potential(4, 1.0))
        x = np.array([0.3, 0.7, -0.2, 0.4])
        v = np.array([1.0, 0.2, -0.1, 0.3])
        ref = fd_gradient(lambda y: eval_L(spec, y, v), x)
        assert np.max(np.abs(position_gradient(spec, x, v) - ref)) < 1e-7


class TestNonrelExpansion:
    def test_zero_velocity(self):
        spec = LagrangianSpec(metric=MINK, mass=1.0)
        assert nonrelativistic_expansion(spec, X0, [0, 0, 0]) == (1.0, 1.0)

    def test_hand_taylor_value(self):
        spec = LagrangianSpec(metric=MINK, mass=1.0)
        exact, quad = nonrelativistic_expansion(spec, X0, [0.1, 0, 0])
        assert exact == pytest.approx(math.sqrt(0.99), abs=1e-15)
        assert quad == pytest.approx(0.995, abs=1e-15)
        assert abs(exact - quad) == pytest.approx(1.256e-5, rel=1e-3)

    def test_quartic_remainder_bound(self):
        spec = LagrangianSpec(metric=MINK, mass=1.0, charge=0.6,
                              potential=constant_potential([0.2, 0.1, -0.3, 0.4]))
        rng = np.random.default_rng(9)
        for _ in range(200):
            w = rng.normal(size=3)
            w *= rng.uniform(0.01, 0.3) / np.linalg.norm(w)
            exact, quad = nonrelativistic_expansion(spec, X0, w)
            assert abs(exact - quad) <= 0.2 * float(w @ w) ** 2

    def test_non_one_time_rejected(self):
        spec = LagrangianSpec(metric=constant_diagonal_metric([1, 1, -1, -1]), mass=1.0)
        with pytest.raises(NotOneTimeMetric):
            nonrelativistic_expansion(spec, X0, [0.1, 0, 0])

    def test_unnormalized_time_rejected(self):
        spec = LagrangianSpec(metric=constant_diagonal_metric([2, -1, -1, -1]), mass=1.0)
        with pytest.raises(NotOneTimeMetric):
            nonrelativistic_expansion(spec, X0, [0.1, 0, 0])
