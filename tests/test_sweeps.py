from pathlib import Path

import numpy as np
import pytest

import repmech.lagrangian as lagrangian
import repmech.sweeps as sweeps
from repmech.cli import main
from repmech.sweeps import (
    draw_spec_state,
    euler_identity_sweep,
    gauge_shift_sweep,
    homogeneity_sweep,
    mass_shell_sweep,
    momentum_fd_sweep,
    pi_invariance_sweep,
    random_spec,
    random_state,
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


# sweep -> the kernel it checks, and a defect in that kernel it must catch. The
# finite-difference sweeps allow 1e-6, so their defects are 1e-4.
SWEEPS = {
    "homogeneity": (homogeneity_sweep, lagrangian, "eval_L", _by(1e-6)),
    "euler_analytic": (lambda **kw: euler_identity_sweep("analytic", **kw),
                       sweeps, "momentum", _by(1e-6)),
    "euler_fd": (lambda **kw: euler_identity_sweep("fd", **kw), sweeps, "momentum_fd", _by(1e-4)),
    "mass_shell": (mass_shell_sweep, lagrangian, "generalized_momentum", _by(1e-6)),
    "momentum_vs_fd": (momentum_fd_sweep, sweeps, "momentum", _by(1e-4)),
    # pi must not see the charge; a 1e-6 leak of it is the defect
    "pi_invariance": (pi_invariance_sweep, sweeps, "generalized_momentum",
                      lambda spec, x, v, value: 1e-6 * spec.charge),
    # a momentum that reads A beyond q A breaks p -> p + q df under A -> A + df
    "gauge_shift": (gauge_shift_sweep, sweeps, "momentum",
                    lambda spec, x, v, value: 1e-6 * spec.potential(x)),
}


def _rank4_entries_by_loops(rng, dim):
    """The rank-4 draw written out as four nested loops over sorted indices."""
    entries = {}
    for _ in range(2):
        u = rng.uniform(-0.7, 0.7, size=dim)
        u[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 1.0)
        w = float(rng.uniform(0.2, 1.0))
        for i in range(dim):
            for j in range(i, dim):
                for k in range(j, dim):
                    for l in range(k, dim):
                        key = (i, j, k, l)
                        entries[key] = entries.get(key, 0.0) + w * u[i] * u[j] * u[k] * u[l]
    return entries


@pytest.mark.parametrize("dim", [2, 4, 5])
def test_rank4_draw_equals_the_nested_loops(dim):
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = sweeps._random_rank4(rng, dim)
        assert list(drawn.entries.items()) == list(_rank4_entries_by_loops(ref_rng, dim).items())
        assert rng.random() == ref_rng.random()


class TestDraws:
    @pytest.mark.parametrize("curved", [False, True], ids=["flat", "curved"])
    def test_same_seed_same_spec_and_state(self, curved):
        a = random_spec(np.random.default_rng(5), curved=curved)
        b = random_spec(np.random.default_rng(5), curved=curved)
        x = np.array([0.1, -0.3, 0.4, 0.2])
        assert (a.mass, a.charge) == (b.mass, b.charge)
        assert np.array_equal(a.metric(x), b.metric(x))
        assert np.array_equal(a.potential(x), b.potential(x))
        for (qa, sa), (qb, sb) in zip(a.extra_terms, b.extra_terms, strict=True):
            assert qa == qb and sa.entries == sb.entries
            assert np.array_equal(sa.S, sb.S)
        xa, va = random_state(np.random.default_rng(9), a)
        xb, vb = random_state(np.random.default_rng(9), b)
        assert np.array_equal(xa, xb) and np.array_equal(va, vb)

    def test_same_seed_same_draw_sequence(self):
        def draws():
            rng = np.random.default_rng(3)
            return [draw_spec_state(rng) for _ in range(5)]

        for (sa, xa, va), (sb, xb, vb) in zip(draws(), draws()):
            assert sa.mass == sb.mass
            assert np.array_equal(xa, xb) and np.array_equal(va, vb)

    def test_state_is_timelike_with_radicands_off_zero(self):
        rng = np.random.default_rng(11)
        spec = random_spec(rng)
        x, v = random_state(rng, spec)
        assert v[0] > 0.0
        for _q, tensor in spec.extra_terms:
            assert abs(tensor.contraction(x, v)) >= 0.05 * v[0] ** tensor.rank


class TestSweeps:
    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_passes_at_30_samples(self, name):
        result = SWEEPS[name][0](samples=30, seed=0)
        assert result.samples == 30
        assert result.passed, result

    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_fails_on_a_planted_defect(self, name, monkeypatch):
        sweep, module, attr, shift = SWEEPS[name]
        monkeypatch.setattr(module, attr, _shifted(module, attr, shift))
        result = sweep(samples=30, seed=0)
        assert not result.passed
        assert result.max_residual > result.tolerance


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
