import numpy as np
import pytest

from oracles import fd_gradient
from repmech import (
    CausalityKind,
    DegenerateMetric,
    DimensionMismatch,
    SignatureReport,
    causality_class,
    constant_diagonal_metric,
    constant_metric,
    euclidean_metric,
    metric_from_function,
    minkowski_metric,
    quadratic_form,
    signature,
    weak_field_metric,
)
from repmech.geometry import central_difference

MINK = np.diag([1.0, -1.0, -1.0, -1.0])


class TestQuadraticForm:
    def test_unit_time_velocity(self):
        assert quadratic_form(MINK, [1, 0, 0, 0]) == 1.0

    def test_null_vector(self):
        assert quadratic_form(MINK, [1, 1, 0, 0]) == 0.0

    def test_two_time_hand_contraction(self):
        assert quadratic_form(np.diag([1.0, 1.0, -1.0, -1.0]), [1, 0, 2, 0]) == -3.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            quadratic_form(MINK, [1, 0, 0])


class TestSignature:
    def test_minkowski(self):
        sig = signature(MINK)
        assert (sig.n_plus, sig.n_minus, sig.n_zero) == (1, 3, 0)

    def test_negative_definite(self):
        sig = signature(np.diag([-1.0, -1.0, -1.0]))
        assert (sig.n_plus, sig.n_minus, sig.n_zero) == (0, 3, 0)

    def test_two_time(self):
        sig = signature(np.diag([1.0, 1.0, -1.0, -1.0]))
        assert (sig.n_plus, sig.n_minus, sig.n_zero) == (2, 2, 0)

    def test_degenerate_direction_counted(self):
        sig = signature(np.diag([1.0, 0.0, -1.0]))
        assert sig.n_zero == 1

    def test_sylvester_congruence_invariance(self):
        # signature must survive congruence by any invertible matrix
        rng = np.random.default_rng(42)
        for diag in ([1, -1, -1, -1], [1, 1, -1, -1], [-1, -1, -1], [1, 1, 1]):
            g = np.diag(np.asarray(diag, dtype=float))
            base = signature(g)
            count = 0
            while count < 100:
                m = rng.normal(size=g.shape)
                if abs(np.linalg.det(m)) < 0.1:
                    continue
                count += 1
                sig = signature(m.T @ g @ m, tol=1e-9)
                assert (sig.n_plus, sig.n_minus, sig.n_zero) == \
                    (base.n_plus, base.n_minus, base.n_zero)


class TestCausality:
    def test_no_time_infeasible(self):
        cls = causality_class(signature(-np.eye(3)))
        assert cls.kind is CausalityKind.NO_TIME_INFEASIBLE
        assert cls.witness is None

    def test_one_time_bounded(self):
        cls = causality_class(signature(MINK))
        assert cls.kind is CausalityKind.ONE_TIME_BOUNDED

    def test_multi_time_witness_validity(self):
        g = np.diag([1.0, 1.0, -1.0, -1.0])
        cls = causality_class(signature(g))
        assert cls.kind is CausalityKind.MULTI_TIME_UNBOUNDED
        assert quadratic_form(g, cls.witness) >= 0.0
        assert cls.spatial_speed_sq > 1.0

    def test_multi_time_witness_on_congruenced_metric(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.normal(size=(5, 5))
            if abs(np.linalg.det(m)) < 0.1:
                continue
            g = m.T @ np.diag([1.0, 1.0, 1.0, -1.0, -1.0]) @ m
            cls = causality_class(signature(g))
            assert cls.kind is CausalityKind.MULTI_TIME_UNBOUNDED
            assert quadratic_form(g, cls.witness) >= -1e-10
            assert cls.spatial_speed_sq > 1.0

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMetric):
            causality_class(signature(np.diag([1.0, 0.0, -1.0])))

    def test_report_from_bare_counts(self):
        cls = causality_class(SignatureReport(2, 2, 0, 1e-10))
        assert cls.kind is CausalityKind.MULTI_TIME_UNBOUNDED
        model_g = np.diag([1.0, 1.0, -1.0, -1.0])
        assert quadratic_form(model_g, cls.witness) >= 0.0

    def test_bounded_speed_by_rejection_sampling(self):
        # one-time diagonal metrics: every causal v with v^0 = 1 obeys
        # sum |g_ii| (v^i)^2 / g_00 <= 1
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = np.concatenate(([rng.uniform(0.5, 2.0)], -rng.uniform(0.5, 2.0, size=3)))
            g = np.diag(d)
            kept = 0
            while kept < 50:
                v = np.concatenate(([1.0], rng.uniform(-1.5, 1.5, size=3)))
                if quadratic_form(g, v) < 0.0:
                    continue
                kept += 1
                assert np.sum(np.abs(d[1:]) * v[1:] ** 2) / d[0] <= 1.0 + 1e-12


class TestMetricField:
    def test_builtin_library(self):
        assert np.allclose(minkowski_metric(4)(np.zeros(4)), MINK)
        assert np.allclose(euclidean_metric(3)(np.zeros(3)), np.eye(3))
        assert np.allclose(constant_diagonal_metric([2.0, -1.0])(np.zeros(2)),
                           np.diag([2.0, -1.0]))

    def test_weak_field_family(self):
        phi = lambda x: 0.01 * float(np.sin(x[1]))
        g = weak_field_metric(4, phi)
        x = np.array([0.0, 0.5, 0.0, 0.0])
        out = g(x)
        assert out[0, 0] == pytest.approx(1.0 + 0.02 * np.sin(0.5))
        assert np.allclose(np.diag(out)[1:], -1.0)

    def test_weak_field_gradient_matches_fd(self):
        phi = lambda x: 0.02 * float(np.sin(x[0] + 2 * x[1]))
        phi_grad = lambda x: 0.02 * np.cos(x[0] + 2 * x[1]) * np.array([1.0, 2.0, 0.0, 0.0])
        g_an = weak_field_metric(4, phi, phi_grad)
        g_fd = weak_field_metric(4, phi)
        x = np.array([0.3, -0.2, 0.1, 0.0])
        assert np.max(np.abs(g_an.gradient(x) - g_fd.gradient(x))) < 1e-9

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMetric):
            constant_metric(np.diag([1.0, 0.0]))

    def test_nonsymmetric_evaluator_rejected(self):
        bad = metric_from_function(2, lambda x: np.array([[1.0, 0.5], [0.0, -1.0]]))
        with pytest.raises(DegenerateMetric):
            bad(np.zeros(2))

    def test_constant_metric_symmetrized_input(self):
        with pytest.raises(DegenerateMetric):
            constant_metric(np.array([[1.0, 0.3], [0.0, -1.0]]))


class TestCentralDifference:
    def test_relative_steps_equal_the_oracle_bit_for_bit(self):
        fn = lambda x: float(np.sin(x[0]) * x[1] ** 3 + np.exp(0.3 * x[2]) * x[0])
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.uniform(-4.0, 4.0, size=3)
            out = central_difference(fn, x, 1e-6 * np.maximum(1.0, np.abs(x)))
            assert np.array_equal(out, fd_gradient(fn, x))

    def test_batch_with_per_axis_steps_equals_row_by_row(self):
        def fn(x):
            return np.stack([np.sin(x[..., 0]) * x[..., 1], x[..., 2] ** 2,
                             x[..., 0] * x[..., 1] * x[..., 2]], axis=-1)

        x = np.random.default_rng(12).uniform(-2.0, 2.0, size=(4, 5, 3))
        step = np.array([1e-6, 2e-5, 3e-4])
        batch = central_difference(fn, x, step)
        assert batch.shape == (4, 5, 3, 3)
        rows = np.array([[central_difference(fn, xi, step) for xi in row] for row in x])
        assert np.array_equal(batch, rows)

    def test_matrix_valued_fn_puts_the_derivative_axis_last(self):
        x = np.array([0.5, -1.5, 2.0])
        out = central_difference(lambda y: np.outer(y, y)[:2], x, np.full(3, 1e-5))
        assert out.shape == (2, 3, 3)
        # d(x_i x_j)/dx_c = delta_ic x_j + x_i delta_jc
        eye = np.eye(3)
        exact = eye[:2, None, :] * x[None, :, None] + x[:2, None, None] * eye[None, :, :]
        assert np.max(np.abs(out - exact)) < 1e-9

    def test_one_step_per_axis_required(self):
        with pytest.raises(DimensionMismatch):
            central_difference(np.sum, np.zeros(3), np.full(2, 1e-6))
