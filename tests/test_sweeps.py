import dataclasses
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import repmech.lagrangian as lagrangian
import repmech.sweeps as sweeps
from oracles import spec_row
from repmech import (
    LagrangianSpec,
    constant_potential,
    eval_L,
    generalized_momentum,
    hamiltonian_residual,
    homogeneity_residual,
    mass_shell_residual,
    momentum,
    momentum_fd,
    potential_from_function,
    quadratic_form,
    symmetric_tensor_field,
)
from repmech.cli import main
from repmech.sweeps import (
    SWEEPS,
    draw_spec_state,
    random_spec,
    random_state,
    run_sweep,
    standard_sweeps,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _shifted(module, name, shift):
    """module.name with shift(spec, x, v, value) added to its value."""
    original = getattr(module, name)

    def defective(spec, x, v, *args, **kwargs):
        value = original(spec, x, v, *args, **kwargs)
        return value + shift(spec, x, v, value)

    return defective


def _by(size):
    return lambda spec, x, v, value: size


# sweep -> the kernel it checks, in the module whose namespace the sweep's
# residual looks it up in, and a defect in that kernel it must catch. The
# finite-difference sweeps allow 1e-6, so their defects are 1e-4.
DEFECTS = {
    "homogeneity": (lagrangian, "eval_L", _by(1e-6)),
    "euler_identity_analytic": (lagrangian, "momentum", _by(1e-6)),
    "euler_identity_fd": (lagrangian, "momentum_fd", _by(1e-4)),
    "mass_shell_identity": (lagrangian, "generalized_momentum", _by(1e-6)),
    "momentum_vs_fd": (sweeps, "momentum", _by(1e-4)),
    # pi must not see the charge; a 1e-6 leak of it into each component is the
    # defect (each point's charge, when the spec holds one per point)
    "pi_invariance": (sweeps, "generalized_momentum",
                      lambda spec, x, v, value: 1e-6 * np.expand_dims(spec.charge, -1)),
    # a momentum that reads A beyond q A breaks p -> p + q df under A -> A + df
    "gauge_shift": (sweeps, "momentum", lambda spec, x, v, value: 1e-6 * spec.potential(x)),
}


def _rank4_entries_by_loops(rng, samples, dim):
    """The rank-4 draw of each row written out as four nested loops over sorted indices."""
    u = rng.uniform(-0.7, 0.7, size=(samples, 2, dim))
    sign = rng.choice([-1.0, 1.0], size=(samples, 2))
    u[..., 0] = sign * rng.uniform(0.4, 1.0, size=(samples, 2))
    w = rng.uniform(0.2, 1.0, size=(samples, 2))
    rows = []
    for r in range(samples):
        entries = {}
        for t in range(2):
            ur, wr = u[r, t], w[r, t]
            for i in range(dim):
                for j in range(i, dim):
                    for k in range(j, dim):
                        for l in range(k, dim):
                            key = (i, j, k, l)
                            term = wr * ur[i] * ur[j] * ur[k] * ur[l]
                            entries[key] = entries.get(key, 0.0) + term
        rows.append(list(entries.values()))
    return rows


@pytest.mark.parametrize("dim", [2, 4, 5])
def test_rank4_draw_equals_the_nested_loops(dim):
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = sweeps._random_rank4(rng, 3, dim)
        assert drawn.tolist() == _rank4_entries_by_loops(ref_rng, 3, dim)
        assert rng.random() == ref_rng.random()


class TestDraws:
    @pytest.mark.parametrize("curved", [False, True], ids=["flat", "curved"])
    def test_same_seed_same_spec_and_state(self, curved):
        a = random_spec(np.random.default_rng(5), 3, curved=curved)
        b = random_spec(np.random.default_rng(5), 3, curved=curved)
        x = np.array([0.1, -0.3, 0.4, 0.2])
        for i in range(3):
            ra, rb = spec_row(a, i), spec_row(b, i)
            assert (ra.mass, ra.charge) == (rb.mass, rb.charge)
            assert np.array_equal(ra.metric(x), rb.metric(x))
            assert np.array_equal(ra.potential(x), rb.potential(x))
            for (qa, sa), (qb, sb) in zip(ra.extra_terms, rb.extra_terms, strict=True):
                assert qa == qb and np.array_equal(sa.entries, sb.entries)
                assert np.array_equal(sa.S, sb.S)
        xa, va, _ = random_state(np.random.default_rng(9), a)
        xb, vb, _ = random_state(np.random.default_rng(9), b)
        assert np.array_equal(xa, xb) and np.array_equal(va, vb)

    def test_same_seed_same_draw_sequence(self):
        def draws():
            rng = np.random.default_rng(3)
            return [draw_spec_state(rng, 5) for _ in range(3)]

        for (sa, xa, va), (sb, xb, vb) in zip(draws(), draws()):
            assert np.array_equal(sa.mass, sb.mass)
            for f in dataclasses.fields(sa):  # the whole stacked draw
                assert np.array_equal(getattr(sa, f.name), getattr(sb, f.name))
            assert np.array_equal(xa, xb) and np.array_equal(va, vb)

    def test_state_is_timelike_with_radicands_off_zero(self):
        rng = np.random.default_rng(11)
        stack = random_spec(rng, 1)
        xs, vs, found = random_state(rng, stack)
        spec, x, v = spec_row(stack, 0), xs[0], vs[0]
        assert found[0]
        assert v[0] > 0.0
        for _q, tensor in spec.extra_terms:
            assert abs(tensor.contraction(x, v)) >= 0.05 * v[0] ** tensor.rank


def test_a_row_out_of_state_attempts_gets_a_fresh_spec(monkeypatch):
    # one candidate state per row: some rows run out of attempts and are redrawn
    monkeypatch.setattr(sweeps, "STATE_ATTEMPTS", 1)
    puts = []
    put = sweeps.SpecStack.put

    def recording(stack, rows, other):
        puts.append((rows.copy(), other))
        put(stack, rows, other)

    monkeypatch.setattr(sweeps.SpecStack, "put", recording)
    stack, x, v = draw_spec_state(np.random.default_rng(21), 40)
    assert puts
    rows, fresh = puts[-1]  # the last redraw's rows keep its specs
    for f in dataclasses.fields(stack):
        assert np.array_equal(getattr(stack, f.name)[rows], getattr(fresh, f.name))
    # every row's state passes the draw's test under the spec it ends with
    spec = stack.spec()
    assert np.all(quadratic_form(spec.metric(x), v) >= 0.3 * v[:, 0] ** 2)


class TestDrawLaw:
    """The law of the stacked draw, on 2000 rows: its ranges, timelike rows, radicands
    clear of their floor and an even mix of flat and weak-field metrics."""

    @pytest.fixture(scope="class")
    def draw(self):
        return draw_spec_state(np.random.default_rng(21), 2000)

    def test_every_row_is_timelike(self, draw):
        stack, x, v = draw
        # g = diag(d) + 2 phi e_0 e_0 with phi = a . sin(b x), written out apart from spec()
        phi = np.sum(stack.amplitude * np.sin(stack.frequency[:, None] * x), axis=1)
        gvv = np.sum(stack.diagonal * v * v, axis=1) + 2.0 * phi * v[:, 0] ** 2
        assert np.all(gvv >= 0.3 * v[:, 0] ** 2)

    def test_every_radicand_clears_the_floor(self, draw):
        stack, x, v = draw
        for i in range(len(stack)):
            for _q, tensor in spec_row(stack, i).extra_terms:
                assert abs(tensor.contraction(x[i], v[i])) >= 0.05 * abs(v[i, 0]) ** tensor.rank

    def test_flat_and_curved_mix(self, draw):
        stack, _, _ = draw
        assert 0.45 <= np.mean(stack.curved) <= 0.55
        assert np.all(stack.amplitude[~stack.curved] == 0.0)
        assert np.all(stack.diagonal[stack.curved] == [1.0, -1.0, -1.0, -1.0])

    def test_ranges(self, draw):
        stack, x, v = draw

        def within(a, lo, hi):
            return bool(np.all((lo <= a) & (a <= hi)))

        flat = ~stack.curved
        assert within(stack.diagonal[flat, 0], 0.8, 1.2)
        assert within(-stack.diagonal[flat, 1:], 0.8, 1.2)
        assert within(stack.amplitude, -0.05, 0.05) and within(stack.frequency, 0.5, 2.0)
        assert within(stack.mass, 0.5, 2.0) and within(stack.charge, -1.5, 1.5)
        assert within(stack.potential, -1.0, 1.0)
        assert within(stack.couplings[:, 0], -0.6, 0.6)
        assert within(stack.couplings[:, 1], 0.1, 0.6)
        assert within(np.abs(stack.rank3[:, 0]), 0.25, 0.6)
        assert within(stack.rank3[:, 1:], -0.35, 0.35)
        assert within(x, -1.0, 1.0) and within(v[:, 0], 0.5, 2.0)
        assert within(np.linalg.norm(v[:, 1:], axis=1) / v[:, 0], 0.05, 0.55)


# Each sweep's residual as it was computed one sample at a time, on ordinary
# single-point specs, from eval_L and the momenta: the oracle of the batched
# residuals.

def _point_homogeneity(spec, x, v, lam):
    lag = eval_L(spec, x, v)
    return abs(eval_L(spec, x, lam * v) - lam * lag) / (lam * max(abs(lag), 1.0))


def _point_euler(spec, x, v, mode):
    p = momentum(spec, x, v) if mode == "analytic" else momentum_fd(spec, x, v)
    pv = float(p @ v)
    lag = eval_L(spec, x, v)
    return abs(pv - lag) / max(abs(pv) + abs(lag), 1e-300)


def _point_momentum_fd(spec, x, v):
    pa = momentum(spec, x, v)
    pf = momentum_fd(spec, x, v)
    return float(np.max(np.abs(pa - pf)) / max(1.0, np.max(np.abs(pa))))


def _point_pi_invariance(spec, x, v, charge, potential, couplings):
    other = LagrangianSpec(
        metric=spec.metric, mass=spec.mass, charge=charge,
        potential=constant_potential(potential),
        extra_terms=tuple((q, s) for q, (_q, s) in zip(couplings, spec.extra_terms)),
    )
    return float(np.max(np.abs(generalized_momentum(other, x, v)
                               - generalized_momentum(spec, x, v))))


def _point_gauge_shift(spec, x, v, w, c):
    def shifted(xx, base=spec.potential):
        return base(xx) + c * np.cos(np.vecdot(xx, w))[..., None] * w

    spec2 = LagrangianSpec(metric=spec.metric, mass=spec.mass, charge=spec.charge,
                           potential=potential_from_function(spec.dim, shifted),
                           extra_terms=spec.extra_terms)
    grad_f = c * np.cos(float(w @ x)) * w
    dp = momentum(spec2, x, v) - momentum(spec, x, v) - spec.charge * grad_f
    dpi = generalized_momentum(spec2, x, v) - generalized_momentum(spec, x, v)
    return float(max(np.max(np.abs(dp)), np.max(np.abs(dpi))))


def _no_inputs(rng, x):
    return {}


def _scales(rng, x):
    return {"lam": np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=len(x)))}


def _recouplings(rng, x):
    return {"charge": rng.uniform(-5.0, 5.0, size=len(x)),
            "potential": rng.uniform(-10.0, 10.0, size=x.shape),
            "couplings": rng.uniform(-2.0, 2.0, size=(len(x), 2))}


def _gauges(rng, x):
    return {"w": rng.uniform(-1.0, 1.0, size=x.shape), "c": rng.uniform(0.5, 1.5, size=len(x))}


def _abs_mass_shell(spec, x, v):
    return np.abs(mass_shell_residual(spec, x, v))


# sweep -> (batched residuals, per-point residual, the sweep's own per-sample
# inputs, the largest difference allowed): a thousandth of the sweep's
# tolerance, and none where no tensor term enters (the per-sample metric and
# pi kernels equal their points bit for bit)
BATCH_VS_POINTS = {
    "homogeneity": (homogeneity_residual, _point_homogeneity, _scales, 1e-14),
    "euler_analytic": (partial(hamiltonian_residual, fd=False),
                       partial(_point_euler, mode="analytic"), _no_inputs, 1e-13),
    "euler_fd": (partial(hamiltonian_residual, fd=True), partial(_point_euler, mode="fd"),
                 _no_inputs, 1e-9),
    "mass_shell": (_abs_mass_shell, _abs_mass_shell, _no_inputs, 0.0),
    "momentum_vs_fd": (sweeps.momentum_fd_residuals, _point_momentum_fd, _no_inputs, 1e-9),
    "pi_invariance": (sweeps.pi_invariance_residuals, _point_pi_invariance, _recouplings, 0.0),
    "gauge_shift": (sweeps.gauge_shift_residuals, _point_gauge_shift, _gauges, 1e-13),
}


class TestBatchAgainstPoints:
    """Each batched sweep residual against the per-point kernels on rows of the stack."""

    ROWS = 30

    @pytest.mark.parametrize("name", sorted(BATCH_VS_POINTS))
    def test_batched_residuals_equal_the_per_point_kernels(self, name):
        batched, point, inputs, allowed = BATCH_VS_POINTS[name]
        rng = np.random.default_rng(17)
        stack, x, v = draw_spec_state(rng, 100, curved=False if name == "gauge_shift" else None)
        more = inputs(rng, x)
        got = batched(stack.spec(), x, v, **more)
        assert got.shape == (100,)
        ref = np.array([point(spec_row(stack, i), x[i], v[i], **{k: a[i] for k, a in more.items()})
                        for i in range(self.ROWS)])
        assert np.max(np.abs(got[:self.ROWS] - ref)) <= allowed

    def test_per_sample_fields_equal_their_rows_bit_for_bit(self):
        stack, x, v = draw_spec_state(np.random.default_rng(19), 100)
        spec = stack.spec()
        g, a = spec.metric(x), spec.potential(x)
        for i in range(self.ROWS):
            row = spec_row(stack, i)
            assert (spec.mass[i], spec.charge[i]) == (row.mass, row.charge)
            assert np.array_equal(g[i], row.metric(x[i]))
            assert np.array_equal(a[i], row.potential(x[i]))
            for (q, tensor), (q_row, s_row) in zip(spec.extra_terms, row.extra_terms, strict=True):
                assert q[i] == q_row
                # the row's entries as a tensor evaluated per point, whose batch
                # equals its points bit for bit
                point = symmetric_tensor_field(s_row.rank, s_row.dim,
                                               lambda xx, e=s_row.entries: e)
                for k in range(3):
                    assert np.array_equal(tensor.partial_contraction(x, v, k)[i],
                                          point.partial_contraction(x[i], v[i], k))


def test_spec_constructions_do_not_grow_with_samples(monkeypatch):
    """A bounded number of LagrangianSpec per sweep: no per-sample loop."""
    built = []
    original = LagrangianSpec.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(LagrangianSpec, "__post_init__", counting)
    results = standard_sweeps(samples=300)
    assert all(r.passed for r in results)
    assert len(built) <= 10 * len(results)


class TestSweeps:
    def test_every_sweep_has_a_planted_defect(self):
        assert sorted(DEFECTS) == sorted(SWEEPS)

    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_passes_at_30_samples(self, name):
        result = run_sweep(name, 30, 0)
        assert (result.name, result.samples) == (name, 30)
        assert result.passed, result

    @pytest.mark.parametrize("name", sorted(DEFECTS))
    def test_fails_on_a_planted_defect(self, name, monkeypatch):
        module, attr, shift = DEFECTS[name]
        monkeypatch.setattr(module, attr, _shifted(module, attr, shift))
        result = run_sweep(name, 30, 0)
        assert not result.passed
        assert result.max_residual > result.tolerance

    def test_the_battery_runs_sweep_k_at_seed_plus_k(self):
        # 10 samples: the sweeps whose divisor is above 1 take at least 100
        battery = standard_sweeps(seed=3, samples=10)
        assert [r.name for r in battery] == list(SWEEPS)
        assert [r.samples for r in battery] == [10, 10, 100, 10, 100, 100, 100]
        for k, result in enumerate(battery):
            assert result == run_sweep(result.name, result.samples, 3 + k)


CHECK_10 = "seed: 0\nsamples: 10\n"


@pytest.mark.parametrize("subcommand", ["check", "signature", "brane"])
def test_summary_is_byte_identical_on_rerun(tmp_path, subcommand):
    if subcommand == "check":
        config = tmp_path / "check.yaml"
        config.write_text(CHECK_10)
    else:
        config = CONFIGS / f"{subcommand}.yaml"
    for out in ("first", "second"):
        assert main([subcommand, "--config", str(config), "--out", str(tmp_path / out)]) == 0
    name = f"{subcommand}_summary.json"
    assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()
