import itertools
import math

import numpy as np
import pytest

from oracles import assert_guard, fd_gradient, per_point, spec_row
from repmech import (
    CausalityKind,
    LagrangianSpec,
    DegenerateMetric,
    DimensionMismatch,
    NoSpatialDirection,
    SignatureReport,
    causality_class,
    constant_diagonal_metric,
    constant_metric,
    euclidean_metric,
    eval_L,
    metric_from_function,
    minkowski_metric,
    position_gradient,
    quadratic_form,
    signature,
    symmetric_tensor_field,
    weak_field_metric,
)
from repmech.geometry import MetricField, _minors, central_difference, compound_metric
from repmech.sweeps import random_spec

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


@pytest.mark.parametrize("build", [minkowski_metric, euclidean_metric])
@pytest.mark.parametrize("dim", [0, -2])
def test_a_metric_dimension_below_1_is_refused(build, dim):
    with pytest.raises(DimensionMismatch, match=rf"^metric dimension must be >= 1, got {dim}$"):
        build(dim)


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

    @pytest.mark.parametrize("tol", [-2.0, -1e-300, math.nan, math.inf])
    def test_a_negative_or_non_finite_tolerance_is_refused(self, tol):
        # a negative tol would count each eigenvalue in (tol, -tol) twice
        with pytest.raises(DimensionMismatch, match="tolerance must be finite and >= 0"):
            signature(np.diag([1.0, 1.0, -1.0, -1.0]), tol=tol)
        assert signature(MINK, tol=0.0).n_zero == 0


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

    @pytest.mark.parametrize("g", [np.eye(2), np.eye(3), np.diag([1.0, 2.0, 3.0, 4.0, 5.0])],
                             ids=["euclidean_2", "euclidean_3", "diagonal_5"])
    def test_no_spatial_direction_has_no_class(self, g):
        n = len(g)
        with pytest.raises(NoSpatialDirection, match=rf"\(n_plus={n}, n_minus=0\)"):
            causality_class(signature(g))
        with pytest.raises(NoSpatialDirection):
            causality_class(SignatureReport(n, 0, 0, 1e-10))

    def test_one_positive_direction_alone_is_bounded(self):
        # dim 1: the one time direction and no spatial one, so every speed is 0
        assert causality_class(signature(np.eye(1))).kind is CausalityKind.ONE_TIME_BOUNDED

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
        phi = lambda x: 0.01 * np.sin(x[..., 1])
        g = weak_field_metric(4, phi)
        x = np.array([0.0, 0.5, 0.0, 0.0])
        out = g(x)
        assert out[0, 0] == pytest.approx(1.0 + 0.02 * np.sin(0.5))
        assert np.allclose(np.diag(out)[1:], -1.0)

    def test_weak_field_gradient_matches_fd(self):
        phi = lambda x: 0.02 * np.sin(x[..., 0] + 2 * x[..., 1])
        phi_grad = lambda x: (0.02 * np.cos(x[..., 0] + 2 * x[..., 1])[..., None]
                              * np.array([1.0, 2.0, 0.0, 0.0]))
        g_an = weak_field_metric(4, phi, phi_grad)
        g_fd = weak_field_metric(4, phi)
        x = np.array([0.3, -0.2, 0.1, 0.0])
        assert np.max(np.abs(g_an.gradient(x) - g_fd.gradient(x))) < 1e-9

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMetric):
            constant_metric(np.diag([1.0, 0.0]))

    def test_a_scaled_minkowski_metric_is_not_degenerate(self):
        g = 1e-6 * MINK
        assert np.array_equal(constant_metric(g)(np.zeros(4)), g)
        assert np.array_equal(metric_from_function(4, lambda x: g)(np.zeros(4)), g)

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_a_rank_deficient_metric_is_degenerate_at_any_scale(self, scale):
        u, v = np.array([1.0, 2.0, -1.0]), np.array([0.5, -1.0, 3.0])
        g = scale * (np.outer(u, u) - np.outer(v, v))
        with pytest.raises(DegenerateMetric):
            constant_metric(g)
        with pytest.raises(DegenerateMetric):
            metric_from_function(3, lambda x: g)(np.zeros(3))

    def test_nonsymmetric_evaluator_rejected(self):
        bad = metric_from_function(2, lambda x: np.array([[1.0, 0.5], [0.0, -1.0]]))
        with pytest.raises(DegenerateMetric):
            bad(np.zeros(2))

    def test_constant_metric_symmetrized_input(self):
        with pytest.raises(DegenerateMetric):
            constant_metric(np.array([[1.0, 0.3], [0.0, -1.0]]))

    def test_constant_metric_is_stored_symmetric_and_read_only(self):
        g = constant_metric(np.array([[1.0, 0.3], [0.3 + 1e-15, -1.0]]))(np.zeros(2))
        assert np.array_equal(g, g.T)
        assert not g.flags.writeable

    def test_stored_constant_is_not_a_constructor_field(self):
        with pytest.raises(TypeError):
            MetricField(dim=2, kind="user", _eval=lambda x: np.eye(2), _constant=np.eye(2))


class TestMetricBatches:
    @staticmethod
    def _metric(bad=None):
        def g(x):
            out = np.zeros(x.shape[:-1] + (3, 3))
            out[..., 0, 0] = 1.0 + 0.1 * np.sin(x[..., 1])
            out[..., 1, 1] = -1.0
            out[..., 2, 2] = -1.0 - 0.2 * x[..., 0] ** 2
            out[..., 0, 2] = out[..., 2, 0] = 0.05 * x[..., 2]
            if bad is not None:
                out = bad(x, out)
            return out
        return metric_from_function(3, g)

    def test_batch_equals_the_points_bit_for_bit(self):
        x = np.random.default_rng(2).normal(size=(4, 5, 3))
        metric = self._metric()
        batch = metric(x)
        assert batch.shape == (4, 5, 3, 3)
        assert np.array_equal(batch, per_point(metric, x))

    @pytest.mark.parametrize("bad,error", [
        (lambda x, g: np.where((x[..., 0] > 0.5)[..., None, None], np.diag([1.0, 0.0, -1.0]), g),
         DegenerateMetric),
        (lambda x, g: g + (x[..., 0] > 0.5)[..., None, None] * np.triu(np.ones((3, 3)), 1),
         DegenerateMetric),
        (lambda x, g: g[..., :2, :2] if np.any(x[..., 0] > 0.5) else g, DimensionMismatch),
    ], ids=["degenerate", "nonsymmetric", "shape"])
    def test_batch_raises_the_first_bad_points_error(self, bad, error):
        x = np.zeros((6, 3))
        x[[2, 4], 0] = [0.7, 0.9]
        metric = self._metric(bad)
        with pytest.raises(error) as batch_err:
            metric(x)
        with pytest.raises(error) as point_err:
            metric(x[2])
        assert str(batch_err.value) == str(point_err.value)


class TestBatchAgainstPoints:
    """One evaluator call on a batch against the per-point reference."""

    @staticmethod
    def _weak_field(seed):
        return spec_row(random_spec(np.random.default_rng(seed), 1, curved=True), 0).metric

    @pytest.mark.parametrize("seed", range(5))
    def test_builtin_weak_field_is_bit_identical(self, seed):
        metric = self._weak_field(seed)
        x = np.random.default_rng(100 + seed).uniform(-1.0, 1.0, size=(6, 7, 4))
        assert np.array_equal(metric(x), per_point(metric, x))
        assert np.array_equal(metric.gradient(x), per_point(metric.gradient, x))

    @staticmethod
    def _close(batch, ref):
        assert batch.shape == ref.shape
        assert np.max(np.abs(batch - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_finite_difference_gradient(self):
        phi = lambda x: 0.02 * np.sin(x[..., 0] + 2 * x[..., 1]) * np.cos(x[..., 3])
        x = np.random.default_rng(7).uniform(-3.0, 3.0, size=(5, 8, 4))
        for metric in (weak_field_metric(4, phi), TestMetricBatches._metric()):
            x3 = x[..., :metric.position_dim]
            self._close(metric.gradient(x3), per_point(metric.gradient, x3))

    @pytest.mark.parametrize("d", [2, 3])
    def test_compound_of_a_varying_metric(self, d):
        x = np.random.default_rng(8).uniform(-1.0, 1.0, size=(9, 4))
        for metric in (self._weak_field(1), TestMetricBatches._metric()):
            G = compound_metric(metric, d)
            x_g = x[..., :metric.position_dim]
            self._close(G(x_g), per_point(G, x_g))
            self._close(G.gradient(x_g), per_point(G.gradient, x_g))


class TestEvaluatorShapes:
    """A field evaluator returns the batch shape followed by the field's own shape."""

    def test_a_wrongly_shaped_analytic_gradient_is_a_dimension_mismatch(self):
        metric = metric_from_function(3, lambda x: np.broadcast_to(np.diag([1.0, -1.0, -1.0]),
                                                                    x.shape[:-1] + (3, 3)),
                                      grad=lambda x: np.zeros(x.shape[:-1] + (3, 3)))
        x = np.array([0.1, 0.2, 0.3])
        for points in (x, np.tile(x, (5, 1))):
            with pytest.raises(DimensionMismatch, match="metric gradient"):
                metric.gradient(points)
        # which escaped position_gradient as a numpy broadcasting error
        with pytest.raises(DimensionMismatch, match="metric gradient"):
            position_gradient(LagrangianSpec(metric=metric, mass=1.0), x, np.array([1.0, 0.2, 0.0]))

    def test_a_value_that_is_not_numbers_is_a_dimension_mismatch(self):
        # a mapping (the old tensor entry format) or a string escaped as a bare TypeError
        # or ValueError from the float conversion
        tensor = symmetric_tensor_field(3, 2, lambda y: {(0, 0, 0): 1.0})
        metric = metric_from_function(3, lambda y: "diag(1, -1, -1)")
        for points in (np.zeros(2), np.zeros((5, 2))):
            with pytest.raises(DimensionMismatch, match="tensor evaluator returned dict"):
                tensor.contraction(points, np.ones(2))
        with pytest.raises(DimensionMismatch, match="metric evaluator returned str"):
            metric(np.zeros(3))
        with pytest.raises(DimensionMismatch, match="metric evaluator returned str"):
            eval_L(LagrangianSpec(metric=metric, mass=1.0), np.zeros((4, 3)), np.ones((4, 3)))

    def test_weak_field_phi_and_phi_grad_shapes(self):
        x = np.random.default_rng(9).uniform(-1.0, 1.0, size=(5, 4))
        # written for one point: on a batch they return the values of row 1 or of the
        # columns, shape (4,), which broadcast silently into wrong metrics and gradients
        per_point_phi = lambda y: 0.01 * np.sin(y[1])
        per_point_grad = lambda y: 0.02 * np.cos(y[0] + 2 * y[1]) * np.array([1.0, 2.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatch, match="phi returned shape"):
            weak_field_metric(4, per_point_phi)(x)
        with pytest.raises(DimensionMismatch, match="phi_grad returned shape"):
            weak_field_metric(4, lambda y: 0.01 * np.sin(y[..., 1]), per_point_grad).gradient(x)
        # and at a single point, a gradient of the wrong length or a scalar
        for grad in (lambda y: np.zeros(3), lambda y: 0.5):
            with pytest.raises(DimensionMismatch, match="phi_grad returned shape"):
                weak_field_metric(4, lambda y: 0.01 * np.sin(y[..., 1]), grad).gradient(x[0])
        with pytest.raises(DimensionMismatch, match="phi returned shape"):
            weak_field_metric(4, lambda y: np.zeros(2))(x[0])


@pytest.mark.parametrize("dim_m,d", [(3, 1), (3, 2), (4, 2), (4, 3), (3, 3)])
def test_minors_of_one_unbatched_matrix(dim_m, d):
    J = np.random.default_rng(10 * dim_m + d).normal(size=(dim_m, d))
    expect = [np.linalg.det(J[list(c), :]) for c in itertools.combinations(range(dim_m), d)]
    w = _minors(J)
    assert w.shape == (math.comb(dim_m, d),)
    assert np.array_equal(w, _minors(J[None])[0])
    assert np.max(np.abs(w - expect)) <= 1e-13 * max(1.0, np.max(np.abs(expect)))


class TestSharedMatrixQuadraticForm:
    def test_broadcast_stack_equals_the_points_to_rounding(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4))
        g = a + a.T
        v = rng.normal(size=(3, 7, 4))
        per_point = np.array([[quadratic_form(g, p) for p in row] for row in v])
        scale = np.einsum("...i,ij,...j->...", np.abs(v), np.abs(g), np.abs(v))
        for shared in (g, np.broadcast_to(g, (3, 7, 4, 4)), np.broadcast_to(g, (7, 4, 4))):
            assert np.all(np.abs(quadratic_form(shared, v) - per_point) <= 4e-16 * scale)

    def test_distinct_matrices_take_the_per_point_product(self):
        rng = np.random.default_rng(6)
        g = rng.normal(size=(5, 3, 3))
        v = rng.normal(size=(5, 3))
        expect = np.array([vk @ gk @ vk for gk, vk in zip(g, v)])
        assert np.allclose(quadratic_form(g, v), expect, rtol=1e-14, atol=1e-14)


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


# guard -> (call, error, message): input checks that no other test reaches
GUARDS = {
    "constant_metric_not_square": (lambda: constant_metric(np.zeros((2, 3))), DimensionMismatch,
                                   "constant metric needs a square matrix"),
    "quadratic_form_not_square": (lambda: quadratic_form(np.zeros((2, 3)), np.zeros(3)),
                                  DimensionMismatch, "expected a square matrix, got shape (2, 3)"),
    "quadratic_form_of_a_vector": (lambda: quadratic_form(np.zeros(3), np.zeros(3)),
                                   DimensionMismatch, "expected a square matrix, got shape (3,)"),
    "signature_not_square": (lambda: signature(np.zeros((2, 3))), DimensionMismatch,
                             "expected a square matrix, got shape (2, 3)"),
    "signature_not_symmetric": (lambda: signature(np.array([[1.0, 1.0], [0.0, -1.0]])),
                                DimensionMismatch, "signature expects a symmetric matrix"),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_each_guard_raises_its_error(guard):
    assert_guard(GUARDS, guard)
