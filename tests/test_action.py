import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repmech.action as action_module
from oracles import (CyclotronOracle, entry_array, fd_gradient, lateral_deviation,
                     reparam_invariance_residual, spec_row)
from repmech import (
    DimensionMismatch,
    DiscretePath,
    GaugeViolation,
    LagrangianSpec,
    NullVelocity,
    RepMechError,
    SingularReducedHessian,
    SpacelikeSegment,
    ZeroRadicand,
    action_gradient,
    constant_diagonal_metric,
    constant_potential,
    discrete_action,
    el_system,
    eval_L,
    extremize,
    minkowski_metric,
    momentum,
    position_gradient,
    potential_from_function,
    straight_chord_path,
    symmetric_tensor,
    symmetric_tensor_field,
    uniform_magnetic_potential,
    velocity_hessian,
    weak_field_metric,
)
from repmech.action import action_hessian
from repmech.sweeps import draw_spec_state

MINK = minkowski_metric(4)
MASS_SPEC = LagrangianSpec(metric=MINK, mass=1.0)
START = np.zeros(4)
END = np.array([1.0, 0.3, 0.0, 0.0])


class TestDiscreteAction:
    def test_proper_length_of_split_chord(self):
        path = straight_chord_path(START, END, 1)
        assert discrete_action(MASS_SPEC, path) == pytest.approx(math.sqrt(0.91), abs=1e-15)

    def test_constant_potential_telescopes(self):
        a = np.array([0.4, 0.2, -0.1, 0.3])
        spec_a = LagrangianSpec(metric=MINK, mass=1.0, charge=1.0,
                                potential=constant_potential(a))
        expect = float(a @ (END - START))
        rng = np.random.default_rng(2)
        for _ in range(20):
            pert = 0.01 * rng.normal(size=(6, 4))
            path = straight_chord_path(START, END, 6, perturbation=pert)
            shift = discrete_action(spec_a, path) - discrete_action(MASS_SPEC, path)
            assert shift == pytest.approx(expect, abs=1e-12)

    def test_trivial_zero_action(self):
        spec = LagrangianSpec(metric=MINK, mass=0.0)
        path = straight_chord_path(START, END, 3)
        assert discrete_action(spec, path) == 0.0

    def test_spacelike_segment_rejected(self):
        path = DiscretePath(START, END, np.array([[0.1, 0.9, 0.0, 0.0]]))
        with pytest.raises(SpacelikeSegment):
            discrete_action(MASS_SPEC, path)


class TestReparamInvariance:
    def test_unit_steps_exact(self):
        path = straight_chord_path(START, END, 9)
        assert reparam_invariance_residual(MASS_SPEC, path, np.ones(10)) == 0.0

    def test_random_steps(self):
        rng = np.random.default_rng(4)
        path = straight_chord_path(START, END, 9)
        s = discrete_action(MASS_SPEC, path)
        for _ in range(50):
            dt = rng.uniform(0.1, 10.0, size=10)
            assert reparam_invariance_residual(MASS_SPEC, path, dt) <= 1e-12 * abs(s)

    def test_sweep_across_specs(self):
        rng = np.random.default_rng(8)
        stack, xs, vs = draw_spec_state(rng, 200, curved=False)
        worst = 0.0
        for i in range(200):
            spec, x, v = spec_row(stack, i), xs[i], vs[i]
            k = int(rng.integers(1, 6))
            scale = rng.uniform(0.05, 0.2)
            start = x
            end = x + v * rng.uniform(0.5, 1.5)
            pert = scale * rng.normal(size=(k, spec.dim)) * 0.02
            try:
                path = straight_chord_path(start, end, k, perturbation=pert)
                s = discrete_action(spec, path)
            except Exception:
                continue
            dt = rng.uniform(0.1, 10.0, size=k + 1)
            res = reparam_invariance_residual(spec, path, dt)
            worst = max(worst, res / max(abs(s), 1.0))
        assert worst <= 1e-11

    def test_nonpositive_steps_rejected(self):
        path = straight_chord_path(START, END, 2)
        for steps in ([1.0, -1.0, 1.0], [1.0, 0.0, 1.0]):
            with pytest.raises(DimensionMismatch, match="parameter steps must be positive"):
                reparam_invariance_residual(MASS_SPEC, path, steps)


class TestExtremize:
    def test_geodesic_recovered_from_perturbed_chord(self):
        rng = np.random.default_rng(1)
        pert = np.zeros((9, 4))
        pert[:, 2] = 0.02 * np.sin(np.linspace(0, np.pi, 9))
        pert[:, 3] = 0.015 * rng.normal(size=9) * 0.5
        path0 = straight_chord_path(START, END, 9, perturbation=pert)
        res = extremize(MASS_SPEC, path0)
        assert res.converged
        assert res.action == pytest.approx(math.sqrt(0.91), abs=1e-6)
        assert lateral_deviation(res.path.interior, START, END) <= 1e-6
        assert res.grad_norm_inf <= 1e-8
        assert res.noether_defect <= 1e-10  # the free chord conserves p_0 exactly

    def test_stationary_input_returns_immediately(self):
        res = extremize(MASS_SPEC, straight_chord_path(START, END, 9))
        assert res.iterations == 0
        assert res.grad_norm_inf <= 1e-10
        assert res.converged

    def test_straight_chord_gradient_is_zero(self):
        grad = action_gradient(MASS_SPEC, straight_chord_path(START, END, 9))
        assert np.max(np.abs(grad)) <= 1e-10

    def test_translation_invariance(self):
        shift = np.array([0.3, -0.2, 0.5, 0.1])
        rng = np.random.default_rng(3)
        pert = 0.015 * rng.normal(size=(5, 4))
        pert[:, 0] = 0.0
        res1 = extremize(MASS_SPEC, straight_chord_path(START, END, 5, pert))
        res2 = extremize(MASS_SPEC, straight_chord_path(START + shift, END + shift, 5, pert))
        assert np.max(np.abs(res2.path.interior - res1.path.interior - shift)) <= 1e-8

    def test_a_mass_past_the_squared_norm_range_takes_the_same_newton_steps(self):
        # at m = 2^996 every gradient, Hessian and action is 2^996 times the
        # one at m = 1, bit for bit, but |spatial grad|^2 overflows; the step
        # comparison must keep each outcome
        scale = 2.0 ** 996
        pert = 0.02 * np.random.default_rng(4).normal(size=(5, 4))
        pert[:, 0] = 0.0
        path0 = straight_chord_path(START, END, 5, pert)
        unit = extremize(MASS_SPEC, path0)
        big = extremize(LagrangianSpec(metric=MINK, mass=scale), path0, grad_tol=scale * 1e-8)
        assert unit.converged and unit.iterations >= 2
        assert (big.converged, big.iterations) == (True, unit.iterations)
        assert big.path.interior.tobytes() == unit.path.interior.tobytes()
        assert big.action == scale * unit.action

    def test_a_gradient_at_its_rounding_floor_stalls_with_its_message(self):
        # no tolerance is reachable, so the Newton steps run until no halving lowers
        # the gradient, which happens at its rounding level
        pert = 0.02 * np.random.default_rng(0).normal(size=(5, 4))
        pert[:, 0] = 0.0
        res = extremize(MASS_SPEC, straight_chord_path(START, END, 5, pert), grad_tol=0.0)
        assert not res.converged and 0 < res.grad_norm_inf <= 1e-15
        assert res.message == (f"gradient norm {res.grad_norm_inf:.3e} above tol after "
                               f"{res.iterations} steps; no halving of the next Newton step "
                               "lowered it")

    def test_constant_potential_leaves_extremals_unchanged(self):
        a = np.array([0.4, 0.2, -0.1, 0.3])
        spec_a = LagrangianSpec(metric=MINK, mass=1.0, charge=1.0,
                                potential=constant_potential(a))
        rng = np.random.default_rng(5)
        pert = 0.015 * rng.normal(size=(5, 4))
        pert[:, 0] = 0.0
        res1 = extremize(MASS_SPEC, straight_chord_path(START, END, 5, pert))
        res2 = extremize(spec_a, straight_chord_path(START, END, 5, pert))
        assert np.max(np.abs(res2.path.interior - res1.path.interior)) <= 1e-6
        assert res2.action - res1.action == pytest.approx(float(a @ (END - START)), abs=1e-10)


class TestChargedArc:
    def make_problem(self, k):
        orbit = CyclotronOracle()
        spec = LagrangianSpec(metric=MINK, mass=1.0, charge=1.0,
                              potential=uniform_magnetic_potential(4, 1.0))
        t1 = 1.0
        start = np.array([0.0, *orbit.position(0.0), 0.0])
        end = np.array([t1, *orbit.position(t1), 0.0])
        interior = np.array([[t, *orbit.position(t), 0.0]
                             for t in np.linspace(0, t1, k + 2)[1:-1]])
        return orbit, spec, DiscretePath(start, end, interior), t1

    def test_converged_action_matches_analytic(self):
        orbit, spec, path0, t1 = self.make_problem(40)
        res = extremize(spec, path0)
        assert res.converged
        exact = orbit.action(0.0, t1)
        assert abs(res.action - exact) / abs(exact) <= 1e-5

    def test_refinement_order(self):
        actions = {}
        for k in (8, 16, 32):
            _, spec, path0, _ = self.make_problem(k)
            actions[k] = extremize(spec, path0).action
        # successive refinement differences shrink as (K+1)^-2
        d1 = abs(actions[8] - actions[16])
        d2 = abs(actions[16] - actions[32])
        order = math.log2(d1 / d2) / math.log2(2.0)
        assert abs(order - 2.0) <= 0.3


def _user_potential(x):
    return np.stack([0.2 * np.sin(x[..., 1]), 0.3 * x[..., 0] * x[..., 2],
                     -0.1 * x[..., 3] ** 2, 0.25 * np.cos(x[..., 0] + x[..., 1])], axis=-1)


def _user_potential_jacobian(x):
    jac = np.zeros(x.shape + (4,))
    jac[..., 0, 1] = 0.2 * np.cos(x[..., 1])
    jac[..., 1, 0] = 0.3 * x[..., 2]
    jac[..., 1, 2] = 0.3 * x[..., 0]
    jac[..., 2, 3] = -0.2 * x[..., 3]
    jac[..., 3, 0] = jac[..., 3, 1] = -0.25 * np.sin(x[..., 0] + x[..., 1])
    return jac


def _phi(x):
    return 0.05 * np.sin(x[..., 1])


def _phi_grad(x):
    out = np.zeros(x.shape)
    out[..., 1] = 0.05 * np.cos(x[..., 1])
    return out


# specs of the derivative checks: rank-3 and rank-4 terms and a constant
# potential (constant fields: velocity Hessians only), and a magnetic, a
# user and a weak-field spec (varying fields: the mixed and position blocks)
DERIVATIVE_SPECS = {
    "rank3_rank4": LagrangianSpec(metric=MINK, mass=1.0, extra_terms=(
        (0.4, symmetric_tensor(3, 4, {(0, 0, 0): 0.8, (0, 1, 1): -0.1, (1, 2, 3): 0.05})),
        (0.3, symmetric_tensor(4, 4, {(0, 0, 0, 0): 0.6, (0, 0, 2, 2): 0.1})),
    )),
    "constant_potential": LagrangianSpec(metric=MINK, mass=1.0, charge=1.0,
                                         potential=constant_potential([0.4, 0.2, -0.1, 0.3])),
    "magnetic": LagrangianSpec(metric=MINK, mass=1.0, charge=1.0,
                               potential=uniform_magnetic_potential(4, 1.0)),
    "user_potential": LagrangianSpec(metric=MINK, mass=1.0, charge=0.8, potential=(
        potential_from_function(4, _user_potential, _user_potential_jacobian))),
    "weak_field": LagrangianSpec(metric=weak_field_metric(4, _phi, _phi_grad), mass=1.0),
}


def perturbed_chord(k=5, seed=0):
    pert = 0.02 * np.random.default_rng(seed).normal(size=(k, 4))
    pert[:, 0] = 0.0
    return straight_chord_path(START, END, k, pert)


class TestDerivatives:
    @pytest.mark.parametrize("name", sorted(DERIVATIVE_SPECS))
    def test_gradient_matches_central_differences_of_action(self, name):
        spec, path = DERIVATIVE_SPECS[name], perturbed_chord()
        shape = path.interior.shape
        ref = fd_gradient(lambda z: discrete_action(spec, path.with_interior(z.reshape(shape))),
                          path.interior.ravel())
        grad = action_gradient(spec, path).ravel()
        assert np.max(np.abs(grad - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("name", sorted(DERIVATIVE_SPECS))
    def test_hessian_matches_central_differences_of_gradient(self, name):
        spec, path = DERIVATIVE_SPECS[name], perturbed_chord()
        shape = path.interior.shape
        z0 = path.interior.ravel()
        ref = np.array([
            fd_gradient(lambda z: action_gradient(spec, path.with_interior(z.reshape(shape)))
                        .ravel()[row], z0, step=1e-5)
            for row in range(z0.size)
        ])
        hess = action_hessian(spec, path)
        assert hess.shape == (z0.size, z0.size)
        assert np.max(np.abs(hess - ref)) <= 1e-7 * max(1.0, np.max(np.abs(ref)))


class TestGaugeFixedNewton:
    """Extremals in varying fields: a charge in a uniform magnetic field in
    2+1 and a particle in a weak static field in 3+1, from a chord whose
    spatial components are perturbed by up to 0.2/(K+1)."""

    ROWS = {
        "magnetic": (LagrangianSpec(metric=minkowski_metric(3), mass=1.0, charge=1.0,
                                    potential=uniform_magnetic_potential(3, 1.0)),
                     [2.0, 0.5, 0.3]),
        "weak_field": (DERIVATIVE_SPECS["weak_field"], [2.0, 0.6, 0.2, 0.0]),
    }

    @pytest.mark.parametrize("k", [9, 33, 65])
    @pytest.mark.parametrize("row", ROWS)
    def test_converges_in_a_few_newton_steps(self, row, k):
        spec, end = self.ROWS[row]
        n = len(end)
        pert = np.zeros((k, n))
        pert[:, 1:] = np.random.default_rng(0).uniform(-1, 1, size=(k, n - 1)) * 0.2 / (k + 1)
        path0 = straight_chord_path(np.zeros(n), end, k, pert)
        res = extremize(spec, path0)
        assert res.converged
        assert res.grad_norm_inf <= 1e-8
        assert res.iterations <= 10
        assert np.array_equal(res.path.interior[:, 0], path0.interior[:, 0])
        grad = action_gradient(spec, res.path)
        assert np.max(np.abs(grad[:, 1:])) == res.grad_norm_inf
        assert np.max(np.abs(grad[:, 0])) == res.noether_defect

    def test_one_dimension_has_no_spatial_unknowns(self):
        # every point is frozen, and a degree-one L in one dimension is linear
        # in v > 0, so p_0 is the same on segments of any length
        path0 = DiscretePath([0.0], [1.0], [[0.1], [0.5], [0.9]])
        res = extremize(LagrangianSpec(metric=minkowski_metric(1), mass=1.0), path0)
        assert res.converged and res.iterations == 0
        assert res.grad_norm_inf == 0.0 and res.noether_defect == 0.0

    def test_x0_that_does_not_increase_is_a_gauge_violation(self):
        interior = np.array([[0.3, 0.1, 0.0, 0.0], [0.6, 0.2, 0.0, 0.0], [0.6, 0.25, 0.0, 0.0]])
        with pytest.raises(GaugeViolation, match="^segment 2: x"):
            extremize(MASS_SPEC, DiscretePath(START, END, interior))
        with pytest.raises(GaugeViolation, match="^segment 0: x"):
            extremize(MASS_SPEC, straight_chord_path(END, START, 3))

    def test_singular_reduced_hessian_raises(self):
        # a massless charge in a uniform magnetic field: L = q A(x).v is linear
        # in x and v with an antisymmetric dA, so the one interior point's
        # Hessian vanishes while its gradient does not
        spec = LagrangianSpec(metric=minkowski_metric(3), charge=1.0,
                              potential=uniform_magnetic_potential(3, 1.0))
        path0 = DiscretePath(np.zeros(3), np.array([1.0, 0.5, 0.0]), np.array([[0.5, 0.0, 0.3]]))
        assert np.max(np.abs(action_gradient(spec, path0)[:, 1:])) > 0.1
        with pytest.raises(SingularReducedHessian, match="singular"):
            extremize(spec, path0)

    def test_a_path_too_long_for_a_dense_hessian_is_a_dimension_mismatch(self):
        # 10^5 interior points in dim 4 would ask for a 1.28 TB Hessian; only
        # the (K, N) path and its gradient are built before the error
        k = 10 ** 5
        pert = np.zeros((k, 4))
        pert[:, 1] = 1e-7 * np.random.default_rng(3).normal(size=k)
        path0 = straight_chord_path(START, END, k, perturbation=pert)
        assert np.max(np.abs(action_gradient(MASS_SPEC, path0)[:, 1:])) > 1e-8
        for solve in (action_hessian, extremize):
            with pytest.raises(DimensionMismatch, match="^K = 100000 interior points in dim 4"):
                solve(MASS_SPEC, path0)
        assert (4 * k) ** 2 > action_module.MAX_HESSIAN_ENTRIES


def random_spec(rng, n):
    """A timelike-friendly spec in n dimensions, mixing constant and varying fields."""
    if rng.random() < 0.5:
        metric = constant_diagonal_metric([1.0] + [-1.0] * (n - 1))
    else:
        a = rng.uniform(0.01, 0.05)
        grad = None
        if rng.random() < 0.5:
            def grad(x):
                out = np.zeros(x.shape)
                out[..., 1] = a * np.cos(x[..., 1])
                return out
        metric = weak_field_metric(n, lambda x: a * np.sin(x[..., 1]), grad)
    kind = int(rng.integers(0, 4))
    charge, potential = 0.0, None
    if kind == 1:
        charge, potential = 0.7, constant_potential(rng.uniform(-1, 1, size=n))
    elif kind == 2 and n >= 3:
        charge, potential = 1.0, uniform_magnetic_potential(n, rng.uniform(0.5, 2.0))
    elif kind == 3:
        charge, potential = 0.5, potential_from_function(n, lambda x: 0.2 * np.sin(x))
    terms = []
    if rng.random() < 0.5:
        entries = {(0, 0, 0): 1.0, (0, 1, 1): float(rng.uniform(-0.1, 0.1))}
        if rng.random() < 0.5:
            terms.append((0.3, symmetric_tensor(3, n, entries)))
        else:
            terms.append((0.3, symmetric_tensor_field(
                3, n, lambda x: entry_array(
                    3, n, {**entries, (0, 0, 0): 1.0 + 0.1 * np.sin(x[..., 0])}))))
    if rng.random() < 0.5:
        terms.append((0.2, symmetric_tensor(4, n, {(0, 0, 0, 0): 1.0,
                                                   (0, 0, 1, 1): float(rng.uniform(-0.2, 0.2))})))
    return LagrangianSpec(metric=metric, mass=float(rng.uniform(0.5, 2.0)), charge=charge,
                          potential=potential, extra_terms=tuple(terms))


class TestBatchedKernels:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(2, 5), st.integers(0, 2 ** 31 - 1))
    @example(5, 3, 28)  # a position-dependent rank-3 term
    @example(7, 3, 28)
    def test_batch_equals_single_point_loop(self, k, n, seed):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, n)
        x = rng.uniform(-1.0, 1.0, size=(k, n))
        v = np.hstack([np.ones((k, 1)), rng.uniform(-0.3, 0.3, size=(k, n - 1))])
        for kernel in (eval_L, momentum, velocity_hessian, position_gradient,
                       lambda *point: el_system(*point)[0], lambda *point: el_system(*point)[1]):
            loop = np.array([kernel(spec, xi, vi) for xi, vi in zip(x, v)])
            batch = kernel(spec, x, v)
            assert batch.shape == loop.shape
            assert np.max(np.abs(batch - loop)) <= 1e-14 * max(1.0, np.max(np.abs(loop)))
            # any leading batch shape gives the same values
            nested = kernel(spec, x.reshape(k, 1, n), v.reshape(k, 1, n)).reshape(loop.shape)
            assert np.max(np.abs(nested - loop)) <= 1e-14 * max(1.0, np.max(np.abs(loop)))

    def test_points_are_stacked_once_and_read_only(self):
        path = straight_chord_path(START, END, 3)
        pts = path.points()
        assert pts is path.points()
        assert not pts.flags.writeable
        assert np.array_equal(pts, np.vstack([path.x_start, path.interior, path.x_end]))


class TestBatchedErrors:
    def test_spacelike_segment_names_the_first_bad_one(self):
        # segments 1, 3 and 4 are spacelike
        interior = [[0.2, 0.0, 0, 0], [0.25, 0.5, 0, 0], [0.6, 0.5, 0, 0], [0.65, 1.0, 0, 0]]
        path = DiscretePath(START, END, np.array(interior))
        for fn in (discrete_action, action_gradient, action_hessian):
            with pytest.raises(SpacelikeSegment, match="segment 1 is spacelike"):
                fn(MASS_SPEC, path)

    def test_the_three_action_functions_raise_one_spacelike_segment_error(self):
        # the Hessian raised the kernel's SpacelikeVelocity here, naming g(v, v)
        spec = LagrangianSpec(metric=minkowski_metric(3), mass=1.0)
        path = DiscretePath(np.zeros(3), np.array([3.0, 0.0, 0.0]),
                            np.array([[1.0, 0.0, 0.0], [1.2, 2.0, 0.0]]))
        for fn in (discrete_action, action_gradient, action_hessian):
            with pytest.raises(SpacelikeSegment) as err:
                fn(spec, path)
            assert str(err.value) == "segment 1 is spacelike while the mass term is on"

    @pytest.mark.parametrize("name", ["mass", "magnetic"])
    def test_null_segment_raises_null_velocity(self, name):
        spec = MASS_SPEC if name == "mass" else DERIVATIVE_SPECS["magnetic"]
        path = DiscretePath(START, np.array([1.0, 0.6, 0, 0]), np.array([[0.5, 0.5, 0, 0]]))
        assert math.isfinite(discrete_action(spec, path))
        with pytest.raises(NullVelocity):
            action_gradient(spec, path)
        with pytest.raises(NullVelocity):
            action_hessian(spec, path)

    def test_vanishing_rank3_contraction_raises_zero_radicand(self):
        # S(v,v,v) = 3 v0 v1^2 vanishes on segment 1, where v1 = 0
        spec = LagrangianSpec(metric=MINK, mass=1.0,
                              extra_terms=((0.5, symmetric_tensor(3, 4, {(0, 1, 1): 1.0})),))
        path = DiscretePath(START, END, np.array([[0.5, 0.3, 0.1, 0.0]]))
        assert math.isfinite(discrete_action(spec, path))
        with pytest.raises(ZeroRadicand):
            action_gradient(spec, path)
        with pytest.raises(ZeroRadicand):
            action_hessian(spec, path)

    def test_batch_raises_the_error_of_its_first_failing_point(self):
        # point 0 has a vanishing rank-3 contraction, point 1 a spacelike
        # velocity; the mass term is checked first, but point 0 comes first
        spec = LagrangianSpec(metric=MINK, mass=1.0,
                              extra_terms=((0.5, symmetric_tensor(3, 4, {(0, 1, 1): 1.0})),))
        x = np.zeros((2, 4))
        v = np.array([[1.0, 0.0, 0.2, 0.0], [1.0, 2.0, 0.0, 0.0]])
        for kernel in (momentum, velocity_hessian):
            with pytest.raises(ZeroRadicand, match=r"batch index \(0,\)"):
                kernel(spec, x, v)

    def test_extremize_rejects_a_trial_step_that_raises(self, monkeypatch):
        spec = LagrangianSpec(metric=MINK, mass=1.0, extra_terms=(
            (0.71, symmetric_tensor(3, 4, {(0, 0, 0): 1.0, (0, 1, 1): -0.58})),))
        path0 = straight_chord_path(START, np.array([1.0, 0.67, 0.0, 0.0]), 1,
                                    [[-0.068, 0.035, 0.042, -0.091]])
        raised = []
        gradient = action_module.action_gradient

        def spy(spec, path):
            try:
                return gradient(spec, path)
            except RepMechError as err:
                raised.append(err)
                raise

        monkeypatch.setattr(action_module, "action_gradient", spy)
        res = extremize(spec, path0)
        assert raised and all(isinstance(err, SpacelikeSegment) for err in raised)
        assert res.converged
        assert res.grad_norm_inf <= 1e-8

    def test_extremize_halves_a_step_that_raises_the_gradient_norm(self, monkeypatch):
        # a strong field bends the K = 1 arc: the first full Newton step is
        # uphill in |spatial grad|^2, and its half is accepted
        spec = LagrangianSpec(metric=MINK, mass=1.0, charge=1.0,
                              potential=uniform_magnetic_potential(4, 7.0))
        path0 = straight_chord_path(START, np.array([1.0, 0.62, 0.0, 0.0]), 1,
                                    [[0.095, -0.0095, 0.13, 0.018]])
        norms = []
        gradient = action_module.action_gradient

        def spy(spec, path):
            grad = gradient(spec, path)
            norms.append(float(np.sum(grad[:, 1:] ** 2)))
            return grad

        monkeypatch.setattr(action_module, "action_gradient", spy)
        res = extremize(spec, path0)
        assert res.converged
        assert res.grad_norm_inf <= 1e-8
        assert norms[1] > norms[0] > norms[2]
        assert res.iterations == len(norms) - 2  # every trial but the first full step
