import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repmech.lagrangian as lagrangian
from oracles import assert_guard, entry_array, fd_gradient, per_point, spec_row
from repmech import (
    DimensionMismatch,
    GaugeViolation,
    LagrangianSpec,
    NegativeEvenRadicand,
    NotOneTimeMetric,
    NullVelocity,
    SpacelikeVelocity,
    ZeroRadicand,
    constant_diagonal_metric,
    constant_potential,
    el_system,
    eval_L,
    generalized_momentum,
    hamiltonian_residual,
    homogeneity_residual,
    mass_shell_residual,
    minkowski_metric,
    momentum,
    momentum_fd,
    momentum_position_directional,
    nonrelativistic_expansion,
    position_gradient,
    potential_from_function,
    symmetric_tensor,
    symmetric_tensor_field,
    uniform_magnetic_potential,
    velocity_hessian,
    weak_field_metric,
)
from repmech.geometry import quadratic_form
from repmech.lagrangian import eval_L_and_radicand
from repmech.sweeps import draw_spec_state, run_sweep

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


def curved_spec():
    """rich_spec's tensors with a weak-field metric and a linear potential."""
    metric = weak_field_metric(4, lambda x: 0.05 * np.sin(x[..., 1]) * x[..., 2])
    return LagrangianSpec(metric=metric, mass=1.3, charge=0.7,
                          potential=potential_from_function(4, lambda x: 0.1 * x),
                          extra_terms=rich_spec().extra_terms)


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


class TestEvalLAndRadicand:
    """One pass gives eval_L's value and the mass radicand g(v,v) it took the root of."""

    @pytest.mark.parametrize("spec", [rich_spec(), curved_spec()], ids=["constant", "curved"])
    @pytest.mark.parametrize("batch", [(), (7,), (3, 5)], ids=["point", "batch", "grid"])
    def test_l_is_eval_l_and_the_radicand_is_the_quadratic_form(self, spec, batch):
        rng = np.random.default_rng(20)
        x = rng.normal(size=batch + (4,))
        v = np.concatenate([np.ones(batch + (1,)), 0.3 * rng.uniform(-1, 1, batch + (3,))], -1)
        L, gvv = eval_L_and_radicand(spec, x, v)
        assert np.shape(L) == np.shape(gvv) == batch
        assert np.array_equal(L, eval_L(spec, x, v))
        assert np.array_equal(gvv, quadratic_form(spec.metric(x), v))

    def test_without_a_mass_term_there_is_no_radicand(self):
        spec = LagrangianSpec(metric=MINK, mass=0.0, charge=0.7,
                              potential=constant_potential([0.3, 0.1, -0.2, 0.0]))
        v = np.tile([1.0, 0.2, 0.0, 0.0], (3, 1))
        L, gvv = eval_L_and_radicand(spec, np.zeros((3, 4)), v)
        assert gvv is None and np.array_equal(L, eval_L(spec, np.zeros((3, 4)), v))

    def test_a_spacelike_point_raises_eval_ls_error(self):
        v = np.tile([1.0, 0.2, 0.0, 0.0], (9, 1))
        v[6] = [1.0, 2.0, 0.0, 0.0]
        errors = []
        for kernel in (eval_L, eval_L_and_radicand):
            with pytest.raises(SpacelikeVelocity, match=r"batch index \(6,\)") as info:
                kernel(em_spec(), np.zeros((9, 4)), v)
            errors.append(info.value)
        assert str(errors[0]) == str(errors[1])
        assert errors[0].batch_index == errors[1].batch_index == (6,)


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

    def test_equals_the_fd_momentum_of_the_mass_term(self):
        stack, xs, vs = draw_spec_state(np.random.default_rng(2), 50)
        # one point, and a stacked draw of 50 rows in one call
        for spec, x, v in ((rich_spec(), X0, np.array([1.0, 0.3, 0.1, -0.2])),
                           (stack.spec(), xs, vs)):
            pi_a = generalized_momentum(spec, x, v)
            pi_f = momentum_fd(LagrangianSpec(metric=spec.metric, mass=spec.mass), x, v)
            assert pi_f.shape == v.shape
            assert np.max(np.abs(pi_a - pi_f)) < 1e-7


class TestIdentities:
    def test_euler_identity_trivial(self):
        spec = LagrangianSpec(metric=MINK, mass=2.0)
        assert hamiltonian_residual(spec, X0, [1, 0, 0, 0]) == 0.0

    def test_euler_identity_random(self):
        stack, xs, vs = draw_spec_state(np.random.default_rng(0), 100)
        for i in range(100):
            # relative to |p.v| + |L|
            assert hamiltonian_residual(spec_row(stack, i), xs[i], vs[i]) <= 1e-10

    def test_euler_identity_fd_mode(self):
        stack, xs, vs = draw_spec_state(np.random.default_rng(1), 50)
        for i in range(50):
            assert hamiltonian_residual(spec_row(stack, i), xs[i], vs[i], fd=True) <= 1e-6

    def test_euler_identity_refuses_a_mode_string(self):
        # a mode string sent every value but "analytic", misspellings too, to the FD route
        with pytest.raises(TypeError, match="'mode'"):
            hamiltonian_residual(LagrangianSpec(metric=MINK, mass=2.0), X0, [1, 0, 0, 0],
                                 mode="FD")

    @pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
    @pytest.mark.parametrize("batch", [(2,), (3,), (2, 3)], ids=["b2", "b3", "b2x3"])
    def test_euler_identity_batch_equals_point_loop(self, batch, fd):
        # b3 is a square (3, 3) batch, not one point's matrix
        spec = LagrangianSpec(metric=minkowski_metric(3), mass=1.3, charge=0.4,
                              potential=uniform_magnetic_potential(3, 1.0),
                              extra_terms=((0.3, symmetric_tensor(3, 3, {(0, 0, 0): 1.0})),))
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, size=batch + (3,))
        v = np.concatenate((np.ones(batch + (1,)), rng.uniform(-0.4, 0.4, size=batch + (2,))),
                           axis=-1)
        res = hamiltonian_residual(spec, x, v, fd=fd)
        loop = per_point(lambda xi, vi: hamiltonian_residual(spec, xi, vi, fd=fd), x, v)
        assert res.shape == batch
        # fd: a batch's last-bit differences in L over the momentum step 1e-5
        tol = 1e-10 if fd else 1e-14
        assert np.max(np.abs(res - loop)) <= tol

    def test_mass_shell_hand_value(self):
        spec = LagrangianSpec(metric=MINK, mass=1.0)
        assert mass_shell_residual(spec, X0, [1, 0.6, 0, 0]) == pytest.approx(0.0, abs=1e-14)

    def test_mass_shell_rest(self):
        spec = LagrangianSpec(metric=MINK, mass=2.0)
        assert mass_shell_residual(spec, X0, [1, 0, 0, 0]) == pytest.approx(0.0, abs=1e-14)

    def test_mass_shell_curved_fd(self):
        metric = weak_field_metric(4, lambda x: 0.03 * np.sin(x[..., 0] + x[..., 1]))
        spec = LagrangianSpec(metric=metric, mass=1.3)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=4)
            v = np.concatenate(([1.0], rng.uniform(-0.3, 0.3, size=3)))
            assert abs(mass_shell_residual(spec, x, v)) <= 1e-9
            # the same identity for the finite-difference momentum of the mass term
            pi = momentum_fd(LagrangianSpec(metric=metric, mass=1.3), x, v)
            assert abs(pi @ np.linalg.solve(metric(x), pi) - 1.3 ** 2) <= 1e-9

    @pytest.mark.parametrize("curved", [False, True])
    def test_mass_shell_batch_equals_point_loop(self, curved):
        metric = (weak_field_metric(4, lambda x: 0.05 * np.sin(x[..., 1])) if curved
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
        for result in (run_sweep("euler_identity_fd", 30, 2),
                       run_sweep("mass_shell_identity", 30, 3),
                       run_sweep("momentum_vs_fd", 30, 4)):
            assert result.passed, result

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-3, max_value=3), st.integers(0, 2 ** 31 - 1))
    def test_homogeneity_property(self, log_lam, seed):
        lam = math.exp(log_lam)
        stack, xs, vs = draw_spec_state(np.random.default_rng(seed), 1)
        spec, x, v = spec_row(stack, 0), xs[0], vs[0]
        # relative to lam max(|L(x, v)|, 1)
        assert homogeneity_residual(spec, x, v, lam) <= 1e-11

    def test_homogeneity_small_scale(self):
        spec = rich_spec()
        v = np.array([1.0, 0.25, -0.1, 0.05])
        for lam in (2.0, 1e-3):
            assert homogeneity_residual(spec, X0, v, lam) <= 1e-12

    def test_homogeneity_value(self, monkeypatch):
        # L = 2 sqrt(g(v, v)) = 1.6 at v = (1, 0.6). L + 0.01 is not homogeneous:
        # at lam = 2 it is off by 0.01, relative to lam max(|L + 0.01|, 1) = 3.22
        spec = LagrangianSpec(metric=MINK, mass=2.0)
        v = np.array([1.0, 0.6, 0.0, 0.0])
        assert homogeneity_residual(spec, X0, v, 2.0) == 0.0
        original = lagrangian.eval_L
        monkeypatch.setattr(lagrangian, "eval_L", lambda *args: original(*args) + 0.01)
        assert homogeneity_residual(spec, X0, v, 2.0) == pytest.approx(0.01 / 3.22, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, [1.0, np.nan]],
                             ids=["zero", "negative", "nan", "nan_in_batch"])
    def test_homogeneity_scale_must_be_positive(self, lam):
        v = np.array([[1.0, 0.25, -0.1, 0.05]] * 2)
        with pytest.raises(DimensionMismatch, match="scale must be positive"):
            homogeneity_residual(rich_spec(), np.zeros((2, 4)), v, lam)


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
        # the second spec adds a position-dependent rank-3 term, whose dL/dx
        # is B.v with B from the one finite difference of a tensor in x
        metric = weak_field_metric(4, lambda x: 0.05 * np.sin(x[..., 0] - 2 * x[..., 2]))
        x = np.array([0.3, 0.7, -0.2, 0.4])
        v = np.array([1.0, 0.2, -0.1, 0.3])
        for terms in ((), EL_TENSORS["varying"][:1]):
            spec = LagrangianSpec(metric=metric, mass=1.2, charge=0.8,
                                  potential=uniform_magnetic_potential(4, 1.0), extra_terms=terms)
            ref = fd_gradient(lambda y: eval_L(spec, y, v), x)
            assert np.max(np.abs(position_gradient(spec, x, v) - ref)) < 1e-7


def _user_potential(x):
    return np.stack([0.2 * np.sin(x[..., 1]), 0.3 * x[..., 0] * x[..., 2],
                     -0.1 * x[..., 3] ** 2, 0.25 * np.cos(x[..., 0])], axis=-1)


EL_METRICS = {
    "constant": MINK,
    "weak_field": weak_field_metric(4, lambda x: 0.05 * np.sin(x[..., 0] - 2 * x[..., 2])),
}
EL_POTENTIALS = {
    "magnetic": uniform_magnetic_potential(4, 1.3),
    "user_fd": potential_from_function(4, _user_potential),
}
EL_TENSORS = {
    "none": (),
    "constant": (
        (0.5, symmetric_tensor(3, 4, {(0, 0, 0): 0.4, (0, 1, 2): -0.2, (1, 1, 3): 0.3})),
        (0.4, symmetric_tensor(4, 4, {(0, 0, 0, 0): 0.5, (0, 0, 1, 1): 0.1}))),
    "varying": (
        (0.5, symmetric_tensor_field(3, 4, lambda y: entry_array(3, 4, {
            (0, 0, 0): 0.4 + 0.1 * np.sin(y[..., 1]), (0, 1, 2): -0.2 * np.cos(y[..., 0]),
            (1, 1, 3): 0.3}))),
        (0.4, symmetric_tensor_field(4, 4, lambda y: entry_array(4, 4, {
            (0, 0, 0, 0): 0.5 + 0.1 * y[..., 2] ** 2, (0, 0, 1, 1): 0.1 * np.cos(y[..., 3])})))),
}


def _el_spec(metric, potential, tensors):
    return LagrangianSpec(metric=EL_METRICS[metric], mass=1.2, charge=0.8,
                          potential=EL_POTENTIALS[potential], extra_terms=EL_TENSORS[tensors])


def _el_batch(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (5, 4))
    v = np.hstack([np.ones((5, 1)), rng.uniform(-0.4, 0.4, (5, 3))])
    return x, v


class TestELSystem:
    """el_system's H = L_vv and B = L_xv on batches, against finite differences
    of the momentum, and Euler's identity at second order: dL/dx = B.v."""

    @pytest.mark.parametrize("tensors", EL_TENSORS)
    @pytest.mark.parametrize("potential", EL_POTENTIALS)
    @pytest.mark.parametrize("metric", EL_METRICS)
    def test_b_contracts_v_to_the_position_gradient(self, metric, potential, tensors):
        # L = p.v, so dL/dx^c = (dp_a/dx^c) v^a: position_gradient is that
        # product of the B that el_system returns, bit for bit
        spec = _el_spec(metric, potential, tensors)
        x, v = _el_batch(4)
        _, B, _, _ = el_system(spec, x, v)
        assert np.array_equal(np.matvec(B, v), position_gradient(spec, x, v))

    @pytest.mark.parametrize("tensors", EL_TENSORS)
    @pytest.mark.parametrize("potential", EL_POTENTIALS)
    @pytest.mark.parametrize("metric", EL_METRICS)
    def test_hessian_and_gauge_row_on_a_batch(self, metric, potential, tensors):
        spec = _el_spec(metric, potential, tensors)
        x, v = _el_batch(6)
        H, _, gv, row = el_system(spec, x, v)
        assert H.shape == (5, 4, 4) and gv.shape == (5, 4) and row.shape == (5,)
        assert np.max(np.abs(gv - np.matvec(spec.metric(x), v))) <= 1e-15
        dgvvv = np.einsum("...cab,...c,...a,...b->...", spec.metric.gradient(x), v, v, v)
        assert np.max(np.abs(row + 0.5 * dgvvv)) <= 1e-15
        for xi, vi, h in zip(x, v, H):
            ref = np.array([fd_gradient(lambda w: momentum(spec, xi, w)[a], vi)
                            for a in range(4)])
            assert np.max(np.abs(h - ref)) <= 1e-7 * np.max(np.abs(ref))

    @pytest.mark.parametrize("tensors", EL_TENSORS)
    @pytest.mark.parametrize("potential", EL_POTENTIALS)
    @pytest.mark.parametrize("metric", EL_METRICS)
    def test_force_is_the_gradient_less_the_transposed_block(self, metric, potential, tensors):
        # F = (B - B^T).v, the Euler-Lagrange rows at zero acceleration, against
        # position_gradient - v.B and against FD of eval_L in x and of p along v
        spec = _el_spec(metric, potential, tensors)
        x, v = _el_batch(7)
        _, B, _, _ = el_system(spec, x, v)
        F = np.matvec(B - np.swapaxes(B, -1, -2), v)
        grad = position_gradient(spec, x, v)
        assert np.array_equal(grad, np.matvec(B, v))
        ref = grad - np.vecmat(v, B)
        assert np.max(np.abs(F - ref)) <= 1e-14 * np.max(np.abs(ref))
        for xi, vi, f in zip(x, v, F):
            h = 1e-6
            dpv = (momentum(spec, xi + h * vi, vi) - momentum(spec, xi - h * vi, vi)) / (2 * h)
            fd = fd_gradient(lambda y: eval_L(spec, y, vi), xi) - dpv
            assert np.max(np.abs(f - fd)) <= 1e-7 * np.max(np.abs(fd))

    @pytest.mark.parametrize("tensors", EL_TENSORS)
    @pytest.mark.parametrize("potential", EL_POTENTIALS)
    @pytest.mark.parametrize("metric", EL_METRICS)
    def test_mixed_block_rows_are_the_position_derivatives_of_the_momentum(
            self, metric, potential, tensors):
        # B on a batch: its points' own blocks, and row c is FD of momentum in x^c
        spec = _el_spec(metric, potential, tensors)
        x, v = _el_batch(5)
        mixed = el_system(spec, x, v)[1]
        assert mixed.shape == (5, 4, 4)
        w = np.array([0.3, -0.5, 0.2, 0.7])
        for xi, vi, block in zip(x, v, mixed):
            one = el_system(spec, xi, vi)[1]
            assert np.max(np.abs(block - one)) <= 1e-14 * np.max(np.abs(block))
            assert np.array_equal(momentum_position_directional(spec, xi, vi, w), w @ one)
            assert np.array_equal(momentum_position_directional(spec, x, v, w), w @ mixed)
            ref = np.array([fd_gradient(lambda y: momentum(spec, y, vi)[a], xi)
                            for a in range(4)]).T
            assert np.max(np.abs(block - ref)) <= 1e-7 * np.max(np.abs(ref))

    @pytest.mark.parametrize("error,mass,extra,v", [
        (SpacelikeVelocity, 1.0, (), [0.5, 1.0, 0.0, 0.0]),
        (NullVelocity, 1.0, (), [1.0, 1.0, 0.0, 0.0]),
        (ZeroRadicand, 0.0, "rank3", [0.0, 1.0, 0.3, 0.0]),
        (NegativeEvenRadicand, 0.0, "rank4", [1.0, 0.3, 0.0, 0.0]),
        (NegativeEvenRadicand, 1.0, "rank4", [1.0, 0.3, 0.0, 0.0]),
    ], ids=["spacelike", "null", "zero_radicand", "negative_radicand", "negative_with_mass"])
    @pytest.mark.parametrize("varying", [False, True], ids=["constant", "varying"])
    def test_raises_what_the_separate_kernels_raise(self, error, mass, extra, v, varying):
        entries = {"rank3": (3, {(0, 0, 0): 0.4}), "rank4": (4, {(0, 0, 0, 0): -0.5})}
        terms = ()
        if extra:
            rank, values = entries[extra]
            tensor = (symmetric_tensor_field(rank, 4, lambda y: (1.0 + 0.1 * y[..., :1]) *
                                             entry_array(rank, 4, values))
                      if varying else symmetric_tensor(rank, 4, values))
            terms = ((0.3, tensor),)
        metric = EL_METRICS["weak_field" if varying else "constant"]
        spec = LagrangianSpec(metric=metric, mass=mass, charge=0.5,
                              potential=EL_POTENTIALS["user_fd"], extra_terms=terms)
        x = np.array([0.0, 0.2, 0.0, 0.3])  # where the weak field's phi vanishes
        v = np.asarray(v, dtype=float)
        with pytest.raises(error):
            velocity_hessian(spec, x, v)
        with pytest.raises(error):
            el_system(spec, x, v)
        if extra != "rank3" or varying:  # a constant odd-rank L is defined at c = 0
            with pytest.raises(error):
                position_gradient(spec, x, v)
            with pytest.raises(error):
                momentum_position_directional(spec, x, v, v)

    def test_a_negative_constant_even_rank_term_raises_in_the_position_gradient(self):
        # a constant term adds nothing to B, yet L is undefined where its radicand is negative
        spec = LagrangianSpec(metric=minkowski_metric(3), mass=0.0, charge=1.0,
                              potential=uniform_magnetic_potential(3, 1.0),
                              extra_terms=((1.0, symmetric_tensor(4, 3, {(0, 0, 0, 0): -1.0})),))
        x, v = np.zeros(3), np.array([1.0, 0.2, 0.0])
        for kernel in (eval_L, position_gradient):
            with pytest.raises(NegativeEvenRadicand, match="rank-4 radicand is negative"):
                kernel(spec, x, v)

    @pytest.mark.parametrize("batch", [(), (5,)], ids=["point", "batch"])
    def test_a_spacelike_velocity_raises_in_the_position_derivatives(self, batch):
        # a constant metric adds nothing to B, yet the mass term is still undefined there
        spec = LagrangianSpec(metric=minkowski_metric(3), mass=1.0, charge=1.0,
                              potential=uniform_magnetic_potential(3, 1.0))
        x = np.zeros(batch + (3,))
        v = np.broadcast_to([1.0, 2.0, 0.0], batch + (3,))
        for kernel in (eval_L, momentum, position_gradient,
                       lambda s, y, w: momentum_position_directional(s, y, w, [1.0, 0.0, 0.0])):
            with pytest.raises(SpacelikeVelocity, match=re.escape("g(v,v) = -3.0 < 0")):
                kernel(spec, x, v)

    @pytest.mark.parametrize("batch", [(), (3,), (2, 3)], ids=["point", "batch", "grid"])
    @pytest.mark.parametrize("spec", [rich_spec(), curved_spec()], ids=["constant", "curved"])
    def test_batch_shapes(self, spec, batch):
        x = np.zeros(batch + (4,))
        v = np.broadcast_to([1.0, 0.2, 0.0, 0.1], batch + (4,))
        H, B, gv, row = el_system(spec, x, v)
        assert (H.shape, B.shape, gv.shape, np.shape(row)) == (
            batch + (4, 4), batch + (4, 4), batch + (4,), batch)
        H0, B0, gv0, row0 = el_system(spec, x.reshape(-1, 4)[0], v.reshape(-1, 4)[0])
        for got, one in ((H, H0), (B, B0), (gv, gv0), (row, row0)):
            assert np.max(np.abs(got - one)) <= 1e-14 * max(1.0, np.max(np.abs(one)))


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

    def test_timelike_velocity_beyond_unit_speed(self):
        # g = diag(1, -1/4, -1/4): omega = (1.5, 0) has g(v, v) = 0.4375 > 0 although |omega| > 1
        spec = LagrangianSpec(metric=constant_diagonal_metric([1.0, -0.25, -0.25]), mass=1.0)
        exact, quad = nonrelativistic_expansion(spec, np.zeros(3), [1.5, 0.0])
        assert exact == pytest.approx(math.sqrt(0.4375), rel=1e-15)
        assert quad == pytest.approx(1.0 - 0.5 * 0.25 * 2.25, rel=1e-15)

    def test_spacelike_velocity_raises_only_with_a_mass_term(self):
        metric = constant_diagonal_metric([1.0, -0.25, -0.25])
        with pytest.raises(SpacelikeVelocity):
            nonrelativistic_expansion(LagrangianSpec(metric=metric, mass=1.0),
                                      np.zeros(3), [2.5, 0.0])
        spec = LagrangianSpec(metric=metric, charge=0.5,
                              potential=constant_potential([1.0, 2.0, 0.0]))
        assert nonrelativistic_expansion(spec, np.zeros(3), [2.5, 0.0]) == (3.0, 3.0)

    def test_unnormalized_time_rejected(self):
        spec = LagrangianSpec(metric=constant_diagonal_metric([2, -1, -1, -1]), mass=1.0)
        with pytest.raises(NotOneTimeMetric):
            nonrelativistic_expansion(spec, X0, [0.1, 0, 0])


class TestFirstBadPoint:
    @staticmethod
    def _counting_spec(calls, fail_on_batches=False):
        def potential(x):
            calls.append(x.shape)
            if fail_on_batches and x.ndim > 1:
                raise GaugeViolation("fails on every batch")
            return 0.1 * x
        return LagrangianSpec(metric=MINK, mass=1.0, charge=0.5,
                              potential=potential_from_function(4, potential))

    @pytest.mark.parametrize("shape,bad", [((4096,), (3999,)), ((64, 64), (62, 31))])
    def test_a_late_bad_point_is_found_by_bisection(self, shape, bad):
        calls = []
        spec = self._counting_spec(calls)
        x = np.zeros(shape + (4,))
        v = np.broadcast_to([1.0, 0.3, 0.0, 0.0], shape + (4,)).copy()
        v[bad] = [1.0, 2.0, 0.0, 0.0]
        v[shape[0] - 1] = [1.0, 0.0, 3.0, 0.0]  # a later spacelike point
        with pytest.raises(SpacelikeVelocity, match=re.escape(f"batch index {bad}")) as info:
            eval_L(spec, x, v)
        assert info.value.batch_index == bad
        # the whole batch, one halving call per level, and the point alone
        assert len(calls) <= math.log2(math.prod(shape)) + 3
        assert calls[-1] == (4,)

    def test_a_batch_whose_points_pass_alone_raises_its_own_error(self):
        calls = []
        spec = self._counting_spec(calls, fail_on_batches=True)
        x = np.zeros((8, 4))
        v = np.tile([1.0, 0.3, 0.0, 0.0], (8, 1))
        with pytest.raises(GaugeViolation, match="^fails on every batch$") as info:
            eval_L(spec, x, v)
        assert info.value.batch_index is None
        assert len(calls) == 1 + 3 + 1

    @pytest.mark.parametrize("bad, error, message", [
        ([1.0, 2.0, 0.0, 0.0], SpacelikeVelocity, "g(v,v) = -3.0 < 0"),
        ([1.0, 1.0, 0.0, 0.0], NullVelocity, "undefined on the light cone"),
    ], ids=["spacelike", "null"])
    def test_a_stacked_batch_raises_by_its_least_radicand(self, bad, error, message):
        # per-point masses keep the batch whole, so its own error must name the worst point
        spec = LagrangianSpec(metric=MINK, mass=np.linspace(1.0, 2.0, 5))
        v = np.tile([1.0, 0.2, 0.0, 0.0], (5, 1))
        v[1] = [1.0, 1.0, 0.0, 0.0]
        v[3] = bad
        with pytest.raises(error, match=re.escape(message)):
            momentum(spec, np.zeros((5, 4)), v)


def test_terms_of_one_rank_add():
    a = symmetric_tensor(3, 4, {(0, 0, 0): 1.0, (0, 1, 2): 0.3})
    b = symmetric_tensor(3, 4, {(0, 0, 0): 0.5, (1, 1, 3): -0.2})
    x = np.zeros(4)
    v = np.array([1.0, 0.2, -0.1, 0.3])
    both = LagrangianSpec(metric=MINK, mass=1.0, extra_terms=((0.4, a), (-0.3, b)))
    parts = [LagrangianSpec(metric=MINK, mass=m, extra_terms=t)
             for m, t in ((1.0, ()), (0.0, ((0.4, a),)), (0.0, ((-0.3, b),)))]
    assert eval_L(both, x, v) == pytest.approx(sum(eval_L(p, x, v) for p in parts), rel=1e-15)
    assert np.allclose(momentum(both, x, v), sum(momentum(p, x, v) for p in parts),
                       rtol=1e-14, atol=1e-15)


# guard -> (call, error, message): input checks that no other test reaches
GUARDS = {
    "negative_mass": (lambda: LagrangianSpec(metric=MINK, mass=-1.0), DimensionMismatch,
                      "mass must be nonnegative"),
    "potential_of_another_dim": (
        lambda: LagrangianSpec(metric=MINK, mass=1.0, potential=constant_potential(np.zeros(3))),
        DimensionMismatch, "potential and metric dimensions differ"),
    "tensor_of_another_dim": (
        lambda: LagrangianSpec(metric=MINK, mass=1.0, extra_terms=(
            (0.1, symmetric_tensor(3, 3, {(0, 0, 0): 1.0})),)),
        DimensionMismatch, "tensor term dimension differs from metric"),
    "omega_of_another_length": (
        lambda: nonrelativistic_expansion(LagrangianSpec(metric=MINK, mass=1.0), X0, [0.1, 0.0]),
        DimensionMismatch, "expected 3 spatial velocity components"),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_each_guard_raises_its_error(guard):
    assert_guard(GUARDS, guard)
