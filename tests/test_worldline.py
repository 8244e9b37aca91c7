import re

import numpy as np
import pytest

from oracles import CyclotronOracle, assert_guard, fit_circle, hamiltonian_orbit
import repmech.worldline as worldline
from repmech import (
    DimensionMismatch,
    GaugeChoice,
    GaugeViolation,
    LagrangianSpec,
    NegativeEvenRadicand,
    NullVelocity,
    SingularReducedHessian,
    SpacelikeVelocity,
    ZeroRadicand,
    constant_diagonal_metric,
    constant_metric,
    constant_potential,
    conserved_drift,
    el_residual,
    energy_drift,
    eval_L,
    integrate,
    metric_from_function,
    minkowski_metric,
    momentum,
    potential_from_function,
    symmetric_tensor,
    symmetric_tensor_field,
    uniform_magnetic_potential,
    weak_field_metric,
    zero_potential,
)

MINK = minkowski_metric(4)


def cyclotron_spec(q=1.0, m=1.0, b=1.0):
    return LagrangianSpec(metric=MINK, mass=m, charge=q,
                          potential=uniform_magnetic_potential(4, b))


class TestELResidual:
    def test_free_particle_zero(self):
        spec = LagrangianSpec(metric=MINK, mass=1.0)
        r = el_residual(spec, np.zeros(4), np.array([1, 0.3, 0, 0.0]), np.zeros(4))
        assert np.max(np.abs(r)) == 0.0

    def test_straight_line_any_constant_velocity(self):
        spec = LagrangianSpec(metric=MINK, mass=2.5)
        for v in ([1, 0.1, -0.5, 0.2], [2.0, 0.3, 0.0, 0.1]):
            r = el_residual(spec, np.ones(4), np.asarray(v, dtype=float), np.zeros(4))
            assert np.max(np.abs(r)) < 1e-14

    def test_cyclotron_solution_satisfies_el(self):
        orbit = CyclotronOracle()
        spec = cyclotron_spec()
        states = [orbit.state4(t) for t in np.linspace(0.0, 5.0, 100)]
        r = el_residual(spec, *(np.array(s) for s in zip(*states)))
        assert r.shape == (100, 4) and np.max(np.abs(r)) <= 1e-8
        # a batch gives each point's own residual
        assert np.max(np.abs(r - [el_residual(spec, *s) for s in states])) <= 1e-15


@pytest.fixture
def no_kernel(monkeypatch):
    """Fail the test if integrate builds a kernel."""
    def refused(*args):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr(worldline, "_kernel", refused)


class TestCoordinateTimeIntegration:
    def test_free_particle_straight_line(self):
        spec = LagrangianSpec(metric=MINK, mass=1.0)
        wl = integrate(spec, GaugeChoice.COORDINATE_TIME,
                       np.zeros(4), np.array([1, 0.3, 0, 0.0]), 10.0, 0.01)
        assert np.max(np.abs(wl.x[-1] - [10, 3, 0, 0])) <= 1e-10
        assert conserved_drift(wl, spec) <= 1e-12

    @pytest.mark.parametrize("couplings", [{"mass": np.array([1.0, 2.0])},
                                           {"mass": 1.0, "charge": np.array([0.5, 1.0])}])
    def test_stacked_spec_is_a_dimension_mismatch(self, couplings):
        spec = LagrangianSpec(metric=minkowski_metric(2), **couplings)
        with pytest.raises(DimensionMismatch, match="one spec"):
            integrate(spec, GaugeChoice.COORDINATE_TIME, np.zeros(2), np.array([1.0, 0.3]),
                      1.0, 0.1)

    @pytest.mark.parametrize("gauge", list(GaugeChoice))
    @pytest.mark.parametrize("tau_end, step", [(1.0e300, 1.0e-300), (np.inf, 0.1),
                                               (1.0, np.nan), (np.nan, 0.1)])
    def test_a_step_count_that_is_not_finite_is_a_dimension_mismatch(self, gauge, tau_end,
                                                                     step):
        spec = LagrangianSpec(metric=MINK, mass=1.0)
        with pytest.raises(DimensionMismatch, match="is not finite"):
            integrate(spec, gauge, np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]), tau_end, step)

    @pytest.mark.parametrize("gauge", list(GaugeChoice))
    def test_a_step_count_above_the_cap_fails_before_any_kernel_is_built(self, gauge,
                                                                          monkeypatch):
        spec = LagrangianSpec(metric=MINK, mass=1.0)
        v0 = np.array([1.0, 0.0, 0.0, 0.0])

        def no_kernel(*args):
            raise AssertionError("a kernel was built")

        monkeypatch.setattr(worldline, "_kernel", no_kernel)
        with pytest.raises(DimensionMismatch,
                           match=r"^step count 10000001 is above the cap of 10000000 steps$"):
            integrate(spec, gauge, np.zeros(4), v0, 10_000_001 * 0.5, 0.5)
        monkeypatch.undo()
        monkeypatch.setattr(worldline, "MAX_STEPS", 5)
        assert len(integrate(spec, gauge, np.zeros(4), v0, 5.0, 1.0)) == 6
        with pytest.raises(DimensionMismatch, match="step count 6 is above the cap of 5"):
            integrate(spec, gauge, np.zeros(4), v0, 6.0, 1.0)

    @pytest.mark.parametrize("gauge", list(GaugeChoice))
    @pytest.mark.parametrize("x0, v0", [([0.0, np.nan, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
                                        ([np.inf, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
                                        ([0.0, 0.0, 0.0, 0.0], [1.0, 0.0, -np.inf, 0.0])],
                             ids=["nan-position", "infinite-time", "infinite-velocity"])
    def test_initial_data_that_is_not_finite_fails_before_any_kernel_is_built(
            self, gauge, x0, v0, no_kernel):
        with pytest.raises(DimensionMismatch, match=r"^initial data must be finite, got x0 = "):
            integrate(cyclotron_spec(), gauge, x0, v0, 1.0, 0.1)

    @pytest.mark.parametrize("gauge", list(GaugeChoice))
    def test_a_one_dimensional_spec_fails_before_any_kernel_is_built(self, gauge, no_kernel):
        spec = LagrangianSpec(metric=minkowski_metric(1), mass=1.0)
        with pytest.raises(DimensionMismatch,
                           match=r"^a world line needs dimension >= 2, got 1$"):
            integrate(spec, gauge, [0.0], [1.0], 1.0, 0.1)

    @pytest.mark.parametrize("t0, tau_end, step", [(1.0e16, 2.0, 0.5),
                                                   (1.7e308, 1.0e308, 0.5e308)],
                             ids=["below-the-spacing", "overflow"])
    def test_a_time_grid_that_cannot_increase_fails_before_any_kernel_is_built(
            self, t0, tau_end, step, no_kernel):
        grid = re.escape(f"the grid x^0 = {t0} + k * {step}, k = 0..")
        with pytest.raises(DimensionMismatch, match=rf"^{grid}\d+, does not increase strictly"):
            integrate(cyclotron_spec(), GaugeChoice.COORDINATE_TIME, [t0, 0.0, 0.0, 0.0],
                      [1.0, 0.6, 0.0, 0.0], tau_end, step)

    def test_cyclotron_radius_and_drift(self):
        orbit = CyclotronOracle()
        wl = integrate(cyclotron_spec(), GaugeChoice.COORDINATE_TIME,
                       np.zeros(4), np.array([1, 0.6, 0, 0.0]), 10.0, 1e-3)
        _, radius = fit_circle(wl.x[:, 1:3])
        assert abs(radius - 0.75) <= 1e-6
        assert orbit.radius == pytest.approx(0.75)
        assert conserved_drift(wl, cyclotron_spec()) <= 1e-8

    def test_cyclotron_positions_match_analytic(self):
        orbit = CyclotronOracle()
        wl = integrate(cyclotron_spec(), GaugeChoice.COORDINATE_TIME,
                       np.zeros(4), np.array([1, 0.6, 0, 0.0]), 5.0, 1e-3)
        pos = orbit.position(wl.tau[-1])
        assert np.max(np.abs(wl.x[-1][1:3] - pos)) < 1e-10

    def test_rk4_convergence_order(self):
        orbit = CyclotronOracle()
        spec = cyclotron_spec()
        steps = [0.04, 0.02, 0.01, 0.005, 0.0025]
        errs = []
        for h in steps:
            wl = integrate(spec, GaugeChoice.COORDINATE_TIME,
                           np.zeros(4), np.array([1, 0.6, 0, 0.0]), 2.0, h)
            errs.append(np.max(np.abs(wl.x[-1][1:3] - orbit.position(2.0))))
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert abs(slope - 4.0) <= 0.2

    def test_charge_sign_symmetry(self):
        # q -> -q, B -> -B is an exact input symmetry
        wl1 = integrate(cyclotron_spec(q=1.0, b=1.0), GaugeChoice.COORDINATE_TIME,
                        np.zeros(4), np.array([1, 0.6, 0, 0.0]), 3.0, 1e-2)
        wl2 = integrate(cyclotron_spec(q=-1.0, b=-1.0), GaugeChoice.COORDINATE_TIME,
                        np.zeros(4), np.array([1, 0.6, 0, 0.0]), 3.0, 1e-2)
        assert np.max(np.abs(wl1.x - wl2.x)) <= 1e-12

    def test_fast_and_generic_paths_agree(self):
        # a user-kind potential (no analytic jacobian) forces the generic path
        b = 1.0
        pot_user = potential_from_function(
            4, lambda x: np.stack([np.zeros(x.shape[:-1]), 0.5 * b * x[..., 2],
                                   -0.5 * b * x[..., 1], np.zeros(x.shape[:-1])], axis=-1))
        spec_fast = cyclotron_spec()
        spec_gen = LagrangianSpec(metric=MINK, mass=1.0, charge=1.0, potential=pot_user)
        args = (np.zeros(4), np.array([1, 0.6, 0, 0.0]), 1.0, 1e-2)
        wl_f = integrate(spec_fast, GaugeChoice.COORDINATE_TIME, *args)
        wl_g = integrate(spec_gen, GaugeChoice.COORDINATE_TIME, *args)
        assert np.max(np.abs(wl_f.x - wl_g.x)) < 1e-11

    def test_curved_metric_runs_and_conserves_identity(self):
        metric = weak_field_metric(4, lambda x: 0.01 * np.sin(x[..., 1]))
        spec = LagrangianSpec(metric=metric, mass=1.0)
        wl = integrate(spec, GaugeChoice.COORDINATE_TIME,
                       np.zeros(4), np.array([1, 0.2, 0.1, 0.0]), 1.0, 1e-2)
        assert conserved_drift(wl, spec) <= 1e-9

    def test_massless_spec_rejected(self):
        s3 = symmetric_tensor(3, 4, {(0, 0, 0): 1.0})
        spec = LagrangianSpec(metric=MINK, mass=0.0, extra_terms=((1.0, s3),))
        with pytest.raises(SingularReducedHessian):
            integrate(spec, GaugeChoice.COORDINATE_TIME,
                      np.zeros(4), np.array([1, 0.1, 0, 0.0]), 1.0, 0.01)

    def test_gauge_precondition_enforced(self):
        spec = LagrangianSpec(metric=MINK, mass=1.0)
        with pytest.raises(GaugeViolation):
            integrate(spec, GaugeChoice.COORDINATE_TIME,
                      np.zeros(4), np.array([1.5, 0.1, 0, 0.0]), 1.0, 0.01)


S3 = symmetric_tensor(3, 4, {(0, 0, 0): 1.0, (0, 1, 1): 0.1, (0, 2, 3): -0.05,
                             (1, 2, 3): 0.2})
S3_NEGATIVE = symmetric_tensor(3, 4, {(0, 0, 0): -1.0, (0, 1, 1): 0.1, (1, 2, 3): 0.2})
S4 = symmetric_tensor(4, 4, {(0, 0, 0, 0): 1.0, (0, 0, 1, 1): 0.1, (1, 2, 2, 3): -0.05})


STEP = 0.01


def constant_field_and_generic(spec, gauge):
    """One RK4 step from a state z at t, as step(t, z), of the constant-field
    march and of the generic one; a user-kind copy of the potential, with its
    exact Jacobian, forces the generic path."""
    potential = potential_from_function(spec.dim, spec.potential, spec.potential.jacobian)
    generic = LagrangianSpec(metric=spec.metric, mass=spec.mass, charge=spec.charge,
                             potential=potential, extra_terms=spec.extra_terms)
    assert not worldline._constant_fields(generic)
    steps = []
    for s in (spec, generic):
        march = worldline._compiled_march(s, gauge)
        if gauge is GaugeChoice.COORDINATE_TIME:
            steps.append(lambda t, z, march=march: march(t, z, 1, STEP)[len(z):])
        else:
            steps.append(lambda t, z, march=march: march(t, z, 1, STEP)[0][len(z):])
    return steps


def state(gauge, rng, metric):
    """A random state z of the gauge: (x^i, u^i), or (x^a, v^a) with g(v, v) = 1
    on the metric; timelike on every metric below."""
    if gauge is GaugeChoice.COORDINATE_TIME:
        return rng.uniform(-1.0, 1.0, 3).tolist() + rng.uniform(-0.3, 0.3, 3).tolist()
    x = rng.uniform(-1.0, 1.0, 4)
    v = np.concatenate(([rng.uniform(0.9, 1.3)], rng.uniform(-0.3, 0.3, 3)))
    return x.tolist() + (v / np.sqrt(v @ metric(x) @ v)).tolist()


class TestConstantFieldDerivative:
    @pytest.mark.parametrize("gauge", list(GaugeChoice), ids=lambda g: g.value)
    @pytest.mark.parametrize("terms", [(), ((0.2, S3),), ((0.2, S3_NEGATIVE),), ((-0.3, S4),)],
                             ids=["em", "rank3", "rank3-negative", "rank4"])
    @pytest.mark.parametrize("metric", [MINK, constant_diagonal_metric([2, -1, -3, -0.5]),
                                        constant_metric([[1.5, 0.2, 0, 0], [0.2, -1, 0.1, 0],
                                                         [0, 0.1, -2, 0], [0, 0, 0, -1]])],
                             ids=["minkowski", "diagonal", "full"])
    @pytest.mark.parametrize("potential", [zero_potential(4),
                                           constant_potential([0.3, -0.2, 0.5, 0.1]),
                                           uniform_magnetic_potential(4, 1.1)],
                             ids=["zero", "constant", "magnetic"])
    def test_constant_field_and_generic_steps_agree(self, potential, metric, terms, gauge):
        spec = LagrangianSpec(metric=metric, mass=1.3, charge=0.7, potential=potential,
                              extra_terms=terms)
        assert worldline._constant_fields(spec)
        fast, generic = constant_field_and_generic(spec, gauge)
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = float(rng.uniform(-2.0, 2.0))
            z = state(gauge, rng, metric)
            # the two increments over one step, per unit step
            assert np.max(np.abs(np.subtract(fast(t, z), generic(t, z)))) / STEP <= 1e-13

    def test_varying_fields_take_the_generic_path(self, monkeypatch):
        user = potential_from_function(4, lambda x: 0.1 * x)
        weak = weak_field_metric(4, lambda x: 0.05 * np.sin(x[..., 1]))
        varying = symmetric_tensor_field(3, 4, lambda x: np.broadcast_to(
            S3.entries, x.shape[:-1] + S3.entries.shape) * (1.0 + 0.1 * x[..., 1:2]))
        varying_specs = (LagrangianSpec(metric=MINK, mass=1.0, charge=0.5, potential=user),
                         LagrangianSpec(metric=weak, mass=1.0),
                         LagrangianSpec(metric=MINK, mass=1.0, extra_terms=((0.2, varying),)))
        assert not worldline._constant_fields(
            LagrangianSpec(metric=MINK, mass=0.0, extra_terms=((0.2, S3),)))

        def refused(*_):
            raise AssertionError("took the wrong path")

        x0, u = np.array([0.1, 0.2, -0.1, 0.3]), np.array([1.0, 0.3, 0.1, -0.2])
        for spec, generic in [(s, True) for s in varying_specs] + [(curved_spec(), True),
                                                                   (cyclotron_spec(), False)]:
            assert worldline._constant_fields(spec) is not generic
            with monkeypatch.context() as patch:
                if generic:
                    patch.setattr(worldline, "_constant_field_pattern", refused)
                else:  # every stage of the generic march calls _el_rows
                    patch.setattr(worldline, "_el_rows", refused)
                integrate(spec, GaugeChoice.COORDINATE_TIME, x0, u, 0.1, 0.05)
                integrate(spec, GaugeChoice.PROPER_TIME, x0,
                          u / np.sqrt(u @ spec.metric(x0) @ u), 0.1, 0.05)

    @pytest.mark.parametrize("gauge", list(GaugeChoice), ids=lambda g: g.value)
    @pytest.mark.parametrize("terms, v, error", [
        ((), [1.0, 1.5, 0.0, 0.0], SpacelikeVelocity),
        ((), [1.0, 1.0, 0.0, 0.0], NullVelocity),
        (((0.2, S3),), [1.0, 1.5, 0.0, 0.0], SpacelikeVelocity),
        (((0.2, S3),), [1.0, 0.0, 1.0, 0.0], NullVelocity),
        (((0.2, symmetric_tensor(3, 4, {(0, 0, 0): 1.0, (1, 1, 1): -8.0})),),
         [1.0, 0.5, 0.0, 0.0], ZeroRadicand),
        (((0.2, symmetric_tensor(4, 4, {(0, 0, 0, 0): 1.0, (1, 1, 1, 1): -32.0})),),
         [1.0, 0.5, 0.0, 0.0], NegativeEvenRadicand),
        # the tensor Hessian cancels the mass term's row 1: H_11 = -1 + 2 * 0.5
        (((1.0, symmetric_tensor(3, 4, {(0, 0, 0): 1.0, (0, 1, 1): 0.5})),),
         [1.0, 0.0, 0.0, 0.0], SingularReducedHessian),
    ], ids=["spacelike", "null", "tensor-spacelike", "tensor-null", "zero-radicand",
            "negative-even-radicand", "singular"])
    def test_domain_checks_raise_as_the_generic_path_does(self, terms, v, error, gauge):
        spec = LagrangianSpec(metric=MINK, mass=1.0, charge=0.5,
                              potential=uniform_magnetic_potential(4, 1.0), extra_terms=terms)
        x = [0.5, 0.1, -0.2, 0.3]
        z = x[1:] + v[1:] if gauge is GaugeChoice.COORDINATE_TIME else x + v
        for step in constant_field_and_generic(spec, gauge):
            with pytest.raises(error):
                step(x[0], z)

    @pytest.mark.parametrize("gauge, v0", [
        (GaugeChoice.COORDINATE_TIME, [1.0, 0.6, 0.0, 0.0]),
        (GaugeChoice.PROPER_TIME, [1.25, 0.75, 0.0, 0.0])], ids=["coordinate", "proper"])
    @pytest.mark.parametrize("terms", [(), ((0.3, symmetric_tensor(3, 4, {(0, 0, 0): 1.3})),),
                                       ((0.2, S3),)], ids=["em", "linear", "rank3"])
    def test_orbits_match_the_generic_path(self, terms, gauge, v0):
        # a user-kind copy of the magnetic potential, with its exact Jacobian,
        # forces the generic path
        b = -1.1
        magnetic = uniform_magnetic_potential(4, b)
        user = potential_from_function(4, magnetic, magnetic.jacobian)
        fast = LagrangianSpec(metric=MINK, mass=1.2, charge=0.9,
                              potential=magnetic, extra_terms=terms)
        generic = LagrangianSpec(metric=MINK, mass=1.2, charge=0.9, potential=user,
                                 extra_terms=terms)
        args = (np.array([2.0, 0.1, -0.2, 0.7]), np.array(v0), 2.0, 0.05)
        wl_f = integrate(fast, gauge, *args)
        wl_g = integrate(generic, gauge, *args)
        assert np.max(np.abs(wl_f.x - wl_g.x)) <= 1e-14
        assert np.max(np.abs(wl_f.v - wl_g.v)) <= 1e-14
        if not terms or len(terms[0][1].entries.nonzero()[0]) == 1:
            # in-plane dynamics: the out-of-plane coordinate never moves
            assert np.all(wl_f.x[:, 3] == 0.7)


class TestStageFieldCalls:
    @staticmethod
    def _counted_spec(calls):
        def counted(name, fn):
            def wrapped(x):
                calls[name] += 1
                return fn(x)
            return wrapped

        metric = weak_field_metric(
            4, counted("phi", lambda x: 0.05 * np.sin(x[..., 1])),
            counted("phi_grad", lambda x: 0.05 * np.cos(x[..., 1:2]) * np.array([0.0, 1.0, 0, 0])))
        jac = np.zeros((4, 4))
        jac[1, 2], jac[2, 1] = 0.45, -0.45
        potential = potential_from_function(
            4, counted("potential", lambda x: np.matvec(jac, x)),
            counted("potential_jacobian", lambda x: np.broadcast_to(jac, x.shape[:-1] + (4, 4))))
        s3 = symmetric_tensor(3, 4, {(0, 0, 0): 1.0, (0, 1, 1): 0.1})
        return LagrangianSpec(metric=metric, mass=1.0, charge=0.8, potential=potential,
                              extra_terms=((0.2, s3),))

    def test_one_stage_evaluates_each_field_once(self):
        calls = dict.fromkeys(["phi", "phi_grad", "potential", "potential_jacobian"], 0)
        spec = self._counted_spec(calls)
        worldline._coordinate_accel(spec, 0.1, [0.2, -0.1, 0.3], [0.3, 0.1, -0.2])
        assert calls == {"phi": 1, "phi_grad": 1, "potential": 0, "potential_jacobian": 1}
        calls.update(dict.fromkeys(calls, 0))
        worldline._proper_accel(spec, np.array([0.1, 0.2, -0.1, 0.3]),
                                np.array([1.1, 0.3, 0.1, -0.2]))
        assert calls == {"phi": 1, "phi_grad": 1, "potential": 0, "potential_jacobian": 1}


def curved_spec():
    """Static weak field with an analytic phi_grad, a magnetic field and a rank-3 term."""
    metric = weak_field_metric(
        4, lambda x: 0.05 * np.sin(x[..., 1]) + 0.03 * np.cos(x[..., 2]),
        lambda x: np.stack([np.zeros(x.shape[:-1]), 0.05 * np.cos(x[..., 1]),
                            -0.03 * np.sin(x[..., 2]), np.zeros(x.shape[:-1])], axis=-1))
    s3 = symmetric_tensor(3, 4, {(0, 0, 0): 1.0, (0, 1, 1): 0.1, (0, 2, 3): -0.05})
    return LagrangianSpec(metric=metric, mass=1.0, charge=0.8,
                          potential=uniform_magnetic_potential(4, 0.9),
                          extra_terms=((0.2, s3),))


class TestProperTimeIntegration:
    def test_free_particle_exact(self):
        spec = LagrangianSpec(metric=MINK, mass=1.0)
        gamma = 1.25
        v0 = gamma * np.array([1.0, 0.6, 0.0, 0.0])
        wl = integrate(spec, GaugeChoice.PROPER_TIME, np.zeros(4), v0, 2.0, 1e-2)
        assert np.max(np.abs(wl.x[-1] - 2.0 * v0)) < 1e-10
        assert np.max(wl.gauge_residual) < 1e-12

    def test_gauge_consistency_with_coordinate_time(self):
        # same physical curve from matched initial data in both gauges
        spec = cyclotron_spec()
        gamma = 1.25
        wlp = integrate(spec, GaugeChoice.PROPER_TIME, np.zeros(4),
                        gamma * np.array([1, 0.6, 0, 0.0]), 2.0, 2e-3)
        wlc = integrate(spec, GaugeChoice.COORDINATE_TIME, np.zeros(4),
                        np.array([1, 0.6, 0, 0.0]), float(wlp.x[-1, 0]), 1e-3)
        t_common = np.linspace(0.1, wlp.x[-1, 0] - 0.1, 40)
        worst = 0.0
        for i in (1, 2, 3):
            ci = np.interp(t_common, wlc.x[:, 0], wlc.x[:, i])
            pi = np.interp(t_common, wlp.x[:, 0], wlp.x[:, i])
            worst = max(worst, float(np.max(np.abs(ci - pi))))
        assert worst <= 1e-6

    def test_bordered_acceleration_solves_el_and_gauge_row(self):
        spec = curved_spec()
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, 4)
            v = np.concatenate(([1.0], rng.uniform(-0.4, 0.4, 3)))
            g = spec.metric(x)
            v /= np.sqrt(v @ g @ v)
            a = worldline._proper_accel(spec, x, v)
            assert np.max(np.abs(el_residual(spec, x, v, a))) <= 1e-12
            # d/dtau g(v, v) = 2 g(v, a) + d_c g_ab v^c v^a v^b = 0
            gauge_row = 2.0 * (g @ v) @ a + np.einsum("cab,c,a,b->", spec.metric.gradient(x),
                                                      v, v, v)
            assert abs(gauge_row) <= 1e-14

    def test_curved_gauges_agree(self):
        # proper time run for tau = 1, then coordinate time to the same x^0 in
        # as many steps: the two end states are the same physical point (the
        # end states differ by 3.8e-12 at 100 steps, falling as step^4)
        spec = curved_spec()
        x0 = np.array([0.0, 0.2, -0.1, 0.3])
        u = np.array([1.0, 0.4, -0.2, 0.1])
        v0 = u / np.sqrt(u @ spec.metric(x0) @ u)
        n = 100
        wlp = integrate(spec, GaugeChoice.PROPER_TIME, x0, v0, 1.0, 1.0 / n)
        t_end = float(wlp.x[-1, 0])
        wlc = integrate(spec, GaugeChoice.COORDINATE_TIME, x0, u, t_end, t_end / n)
        assert len(wlc) == n + 1 and wlc.x[-1, 0] == pytest.approx(t_end, abs=1e-14)
        assert np.max(np.abs(wlc.x[-1] - wlp.x[-1])) <= 1e-9
        assert np.max(np.abs(wlc.v[-1] - wlp.v[-1] / wlp.v[-1, 0])) <= 1e-9
        assert np.max(wlp.gauge_residual) <= 1e-8

    def test_singular_bordered_system_raises(self, monkeypatch):
        el_system = worldline.el_system
        monkeypatch.setattr(worldline, "el_system", lambda spec, x, v: (
            np.zeros((spec.dim, spec.dim)),) + el_system(spec, x, v)[1:])
        # curved_spec takes the generic path, the one that calls el_system
        spec = curved_spec()
        u = np.array([1.0, 0.6, 0.0, 0.0])
        with pytest.raises(SingularReducedHessian):
            integrate(spec, GaugeChoice.PROPER_TIME, np.zeros(4),
                      u / np.sqrt(u @ spec.metric(np.zeros(4)) @ u), 0.1, 0.01)

    def test_bad_normalization_rejected(self):
        spec = LagrangianSpec(metric=MINK, mass=1.0)
        with pytest.raises(GaugeViolation):
            integrate(spec, GaugeChoice.PROPER_TIME, np.zeros(4),
                      np.array([1.0, 0.6, 0, 0.0]), 1.0, 0.01)


class TestDriftInstruments:
    def test_identity_drift_stays_at_rounding_for_any_step(self):
        # the mass-shell residual is an algebraic identity of (x, v), so the
        # drift log cannot grow with integration error
        spec = cyclotron_spec()
        for h in (0.1, 0.05):
            wl = integrate(spec, GaugeChoice.COORDINATE_TIME,
                           np.zeros(4), np.array([1, 0.6, 0, 0.0]), 4.0, h)
            assert conserved_drift(wl, spec) < 1e-12

    # (steps, duration) of the cyclotron drift law per gauge. In proper time
    # one step of h = 0.15 already drifts from g(v, v) = 1 by more than
    # GAUGE_TOL, and at h = 0.0025 the drift, 1.4e-14, is at the rounding floor.
    CYCLOTRON_STEPS = {GaugeChoice.COORDINATE_TIME: ([0.4, 0.2, 0.1, 0.05], 8.0),
                       GaugeChoice.PROPER_TIME: ([0.08, 0.04, 0.02, 0.01], 20.0)}

    @pytest.mark.parametrize("gauge", list(GaugeChoice), ids=lambda g: g.value)
    def test_energy_drift_converges_at_fourth_order(self, gauge):
        # p_0 is the step-sensitive conserved quantity of x^0-independent
        # fields; RK4 bounds its drift by h^4, and a pure rotation does better
        def drift_law(spec, u, steps, T):
            drifts = []
            for h in steps:
                v0 = np.asarray(u, dtype=float)
                if gauge is GaugeChoice.PROPER_TIME:
                    v0 = v0 / np.sqrt(v0 @ spec.metric(np.zeros(4)) @ v0)
                wl = integrate(spec, gauge, np.zeros(4), v0, T, h)
                drifts.append(energy_drift(wl, spec))
            slope = np.polyfit(np.log(steps), np.log(drifts), 1)[0]
            ratios = [drifts[i] / drifts[i + 1] for i in range(len(drifts) - 1)]
            return drifts, slope, ratios

        # Cyclotron orbit: each RK4 step rotates the velocity with amplitude
        # |R(iz)| = 1 - z^6/144 + O(z^8), z = omega*h, so the speed, and with
        # it p_0 = gamma*m, decays at order h^5: halving the step cuts drift ~32x.
        # Per unit proper time omega is qB/m, and each step's projection onto
        # g(v, v) = 1 turns the lost spatial speed gamma*u into a p_0 change
        # u times as large, which gives the same law.
        q, m, b, u = 1.0, 1.0, 1.0, 0.6
        steps, T = self.CYCLOTRON_STEPS[gauge]
        drifts, slope, ratios = drift_law(cyclotron_spec(q, m, b), [1, u, 0, 0], steps, T)
        assert abs(slope - 5.0) <= 0.3
        assert all(r > 24.0 for r in ratios)
        gamma = 1.0 / np.sqrt(1.0 - u * u)
        if gauge is GaugeChoice.COORDINATE_TIME:
            predicted = T * steps[-1] ** 5 * (q * b / (gamma * m)) ** 6 * gamma ** 3 * m * u * u
        else:
            predicted = T * steps[-1] ** 5 * (q * b / m) ** 6 * gamma * m * u * u
        assert 0.5 < drifts[-1] / (predicted / 144.0) < 2.0

        # Static weak field: no rotational cancellation, so the drift keeps
        # RK4's global h^4 error: halving the step cuts drift ~16x. The metric
        # gradient is analytic: central differences of g would put a rounding
        # floor under the smallest drift.
        spec = LagrangianSpec(
            metric=weak_field_metric(4, lambda x: 0.05 * np.sin(x[..., 1]),
                                     lambda x: np.stack([np.zeros(x.shape[:-1]),
                                                         0.05 * np.cos(x[..., 1]),
                                                         np.zeros(x.shape[:-1]),
                                                         np.zeros(x.shape[:-1])], axis=-1)),
            mass=1.0)
        drifts, slope, ratios = drift_law(spec, [1, 0.3, 0.1, 0], [0.4, 0.2, 0.1, 0.05], 8.0)
        assert abs(slope - 4.0) <= 0.1
        assert all(r > 14.0 for r in ratios)

    @pytest.mark.parametrize("h", [0.2, 0.1, 0.05, 0.025])
    def test_energy_drift_is_the_reduced_hamiltonian_drift_in_coordinate_time(self, h):
        # Euler's theorem L = p.v with v^0 = 1 makes p_i u^i - L = -p_0
        spec = cyclotron_spec()
        wl = integrate(spec, GaugeChoice.COORDINATE_TIME,
                       np.zeros(4), np.array([1, 0.6, 0, 0.0]), 8.0, h)
        p = momentum(spec, wl.x, wl.v)
        energies = np.vecdot(p[:, 1:], wl.v[:, 1:]) - eval_L(spec, wl.x, wl.v)
        assert abs(np.max(np.abs(energies - energies[0])) - energy_drift(wl, spec)) <= 1e-15

    def test_exact_samples_have_tiny_drift(self):
        spec = cyclotron_spec()
        orbit = CyclotronOracle()
        xs, vs = [], []
        for t in np.linspace(0, 3, 50):
            x, v, _ = orbit.state4(t)
            xs.append(x)
            vs.append(v)
        from repmech.worldline import Worldline
        wl = Worldline(tau=np.linspace(0, 3, 50), x=np.array(xs), v=np.array(vs),
                       gauge=GaugeChoice.COORDINATE_TIME, gauge_residual=np.zeros(50))
        assert conserved_drift(wl, spec) <= 1e-10


def schwarzschild_fields(M=1.0):
    """g, d_c g_ab, A and d_c A_a of Schwarzschild in (t, r, theta, phi), with
    A_0 = 0.5 / r: the maps that hamiltonian_orbit takes, each closed form."""
    def g(x):
        r, th = x[..., 1], x[..., 2]
        f = 1.0 - 2.0 * M / r
        out = np.zeros(x.shape[:-1] + (4, 4))
        out[..., 0, 0], out[..., 1, 1] = f, -1.0 / f
        out[..., 2, 2], out[..., 3, 3] = -r * r, -(r * np.sin(th)) ** 2
        return out

    def dg(x):
        r, th = x[..., 1], x[..., 2]
        out = np.zeros(x.shape[:-1] + (4, 4, 4))
        out[..., 1, 0, 0] = 2.0 * M / r ** 2
        out[..., 1, 1, 1] = 2.0 * M / (r - 2.0 * M) ** 2
        out[..., 1, 2, 2] = -2.0 * r
        out[..., 1, 3, 3] = -2.0 * r * np.sin(th) ** 2
        out[..., 2, 3, 3] = -2.0 * r * r * np.sin(th) * np.cos(th)
        return out

    def A(x):
        out = np.zeros(x.shape)
        out[..., 0] = 0.5 / x[..., 1]
        return out

    def dA(x):
        out = np.zeros(x.shape + (4,))
        out[..., 0, 1] = -0.5 / x[..., 1] ** 2
        return out

    return g, dg, A, dA


class TestHamiltonianRoute:
    def test_integrate_and_the_mass_shell_hamiltonian_agree_at_fourth_order(self):
        # A charged orbit in Schwarzschild (M = 1, q = 0.3, m = 1) from r = 10
        # at 1.1x the circular angular velocity, marched by integrate in proper
        # time and by RK4 over (x, p) of H = 1/2 (g^{ab} pi_a pi_b - m^2). The
        # two share the fields and the start's momentum, no kernel. Measured at
        # T = 40: end-position errors 8.0e-10 -> 3.2e-12 (integrate) and
        # 1.5e-9 -> 5.8e-12 (route), max |H| 1.3e-12 -> 5.3e-15, each ratio 16.
        g, dg, A, dA = schwarzschild_fields()
        q, m, T = 0.3, 1.0, 40.0
        spec = LagrangianSpec(metric=metric_from_function(4, g, dg), mass=m, charge=q,
                              potential=potential_from_function(4, A, dA))
        x0 = np.array([0.0, 10.0, np.pi / 2, 0.0])
        u = np.array([1.0, 0.02, 0.0, 1.1 * 10.0 ** -1.5])
        v0 = u / np.sqrt(u @ g(x0) @ u)
        p0 = momentum(spec, x0, v0)

        def route(h):
            return hamiltonian_orbit(g, dg, A, dA, q, m, x0, p0, round(T / h), h)

        x_ref = route(0.025)[0][-1]
        steps = [0.4, 0.2, 0.1]
        errors = {"integrate": [], "route": [], "H": [], "p(T)": [], "p_0 drift": []}
        for h in steps:
            wl = integrate(spec, GaugeChoice.PROPER_TIME, x0, v0, T, h)
            xs, ps, H = route(h)
            errors["integrate"].append(np.max(np.abs(wl.x[-1] - x_ref)))
            errors["route"].append(np.max(np.abs(xs[-1] - x_ref)))
            errors["H"].append(np.max(np.abs(H)))
            errors["p(T)"].append(np.max(np.abs(ps[-1] - momentum(spec, wl.x[-1], wl.v[-1]))))
            errors["p_0 drift"].append(energy_drift(wl, spec))
        assert errors["integrate"][-1] <= 1e-11 and errors["route"][-1] <= 1e-11
        for name, errs in errors.items():
            slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
            assert abs(slope - 4.0) <= 0.2, (name, errs)


def _worldline(tau, rows=3):
    return worldline.Worldline(tau=np.asarray(tau, dtype=float), x=np.zeros((rows, 4)),
                               v=np.zeros((3, 4)), gauge=GaugeChoice.COORDINATE_TIME,
                               gauge_residual=np.zeros(3))


def _integrate(spec=None, gauge=GaugeChoice.COORDINATE_TIME, x0=np.zeros(4), tau_end=1.0,
               step=0.1):
    return integrate(spec or LagrangianSpec(metric=MINK, mass=1.0), gauge, x0,
                     np.array([1.0, 0.0, 0.0, 0.0]), tau_end, step)


# guard -> (call, error, message): input checks that no other test reaches
GUARDS = {
    "initial_data_length": (lambda: _integrate(x0=np.zeros(3)), DimensionMismatch,
                            "initial data must have length 4"),
    "step_zero": (lambda: _integrate(step=0.0), DimensionMismatch,
                  "step and tau_end must be positive"),
    "tau_end_negative": (lambda: _integrate(tau_end=-1.0), DimensionMismatch,
                         "step and tau_end must be positive"),
    "tau_end_under_one_step": (lambda: _integrate(tau_end=0.04), DimensionMismatch,
                               "tau_end shorter than one step"),
    "unknown_gauge": (lambda: _integrate(gauge="bogus"), DimensionMismatch,
                      "unknown gauge 'bogus'"),
    # the tensor Hessian cancels the mass term's row 1 at v0 = (1, 0, 0, 0)
    "singular_start": (
        lambda: _integrate(LagrangianSpec(metric=MINK, mass=1.0, extra_terms=(
            (1.0, symmetric_tensor(3, 4, {(0, 0, 0): 1.0, (0, 1, 1): 0.5})),))),
        SingularReducedHessian,
        "reduced velocity Hessian is numerically singular at the initial point"),
    "worldline_lengths": (lambda: _worldline([0.0, 1.0, 2.0], rows=2), DimensionMismatch,
                          "worldline sample arrays must share their length"),
    "worldline_not_increasing": (lambda: _worldline([0.0, 1.0, 1.0]), DimensionMismatch,
                                 "worldline parameter must be strictly increasing"),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_each_guard_raises_its_error(guard):
    assert_guard(GUARDS, guard)
