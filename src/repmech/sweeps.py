"""Seeded random-spec property sweeps over the homogeneous-Lagrangian identities.

Each sweep draws (spec, x, v) samples spanning EM + metric + rank-3/4 tensor
terms, evaluates one identity, and reports the worst residual against its
tolerance. Draws are rejection-sampled so radicands stay away from zero,
keeping finite-difference oracles inside their validity region; the identity
claims themselves hold on the whole open domain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .fields import constant_potential, symmetric_tensor
from .geometry import constant_diagonal_metric, quadratic_form, weak_field_metric
from .lagrangian import (
    LagrangianSpec,
    eval_L,
    generalized_momentum,
    hamiltonian_residual,
    homogeneity_residual,
    mass_shell_residual,
    momentum,
    momentum_fd,
)

_TINY = 1e-300


@dataclass(frozen=True)
class SweepResult:
    name: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool
    seconds: float


def _random_rank3(rng, dim):
    # a solid (0,0,0) entry keeps the contraction well-conditioned for
    # velocities near the time axis
    entries = {(0,) * 3: float(rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 0.6))}
    for _ in range(5):
        idx = tuple(sorted(rng.integers(0, dim, size=3)))
        if idx == (0, 0, 0):
            continue
        entries[idx] = float(rng.uniform(-0.35, 0.35))
    return symmetric_tensor(3, dim, entries)


def _random_rank4(rng, dim):
    # sum of 4th powers of linear forms keeps the even radicand nonnegative;
    # the forms get a guaranteed time component
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
    return symmetric_tensor(4, dim, entries)


def random_spec(rng: np.random.Generator, dim: int = 4, curved: bool = False,
                with_extras: bool = True) -> LagrangianSpec:
    """Random one-time-metric spec with EM coupling and rank-3/4 terms."""
    if curved:
        a = rng.uniform(-0.05, 0.05, size=dim)
        b = rng.uniform(0.5, 2.0)
        metric = weak_field_metric(
            dim,
            phi=lambda x, a=a, b=b: float(a @ np.sin(b * x)),
            phi_grad=lambda x, a=a, b=b: a * b * np.cos(b * x),
        )
    else:
        diag = np.concatenate(([rng.uniform(0.8, 1.2)], -rng.uniform(0.8, 1.2, size=dim - 1)))
        metric = constant_diagonal_metric(diag)
    extras = ()
    if with_extras:
        extras = (
            (float(rng.uniform(-0.6, 0.6)), _random_rank3(rng, dim)),
            (float(rng.uniform(0.1, 0.6)), _random_rank4(rng, dim)),
        )
    return LagrangianSpec(
        metric=metric,
        mass=float(rng.uniform(0.5, 2.0)),
        charge=float(rng.uniform(-1.5, 1.5)),
        potential=constant_potential(rng.uniform(-1.0, 1.0, size=dim)),
        extra_terms=extras,
    )


def random_state(rng: np.random.Generator, spec: LagrangianSpec,
                 radicand_floor: float = 0.05, attempts: int = 100):
    """(x, v) with a timelike v whose tensor radicands are bounded away from 0.

    Returns None when the spec admits no such draw within the attempt budget.
    """
    dim = spec.dim
    for _ in range(attempts):
        x = rng.uniform(-1.0, 1.0, size=dim)
        u = rng.uniform(-1.0, 1.0, size=dim - 1)
        norm = np.linalg.norm(u)
        if norm > 1e-9:
            u *= rng.uniform(0.05, 0.55) / norm
        v = np.concatenate(([1.0], u)) * rng.uniform(0.5, 2.0)
        if quadratic_form(spec.metric(x), v) < 0.3 * v[0] ** 2:
            continue
        ok = True
        for _q, tensor in spec.extra_terms:
            if abs(tensor.contraction(x, v)) < radicand_floor * abs(v[0]) ** tensor.rank:
                ok = False
                break
        if ok:
            return x, v
    return None


def draw_spec_state(rng: np.random.Generator, curved=None, with_extras: bool = True):
    """A (spec, x, v) triple, retrying fresh specs until the state draw succeeds."""
    while True:
        use_curved = bool(rng.integers(0, 2)) if curved is None else curved
        spec = random_spec(rng, curved=use_curved, with_extras=with_extras)
        state = random_state(rng, spec)
        if state is not None:
            return spec, state[0], state[1]


def _run(name, samples, tolerance, seed, kernel):
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(samples):
        worst = max(worst, kernel(rng))
    elapsed = time.perf_counter() - start
    return SweepResult(name=name, samples=samples, max_residual=worst,
                       tolerance=tolerance, passed=worst <= tolerance,
                       seconds=elapsed)


def homogeneity_sweep(samples: int = 1000, seed: int = 0,
                      tolerance: float = 1e-11) -> SweepResult:
    """max relative |L(x, lam v) - lam L(x, v)| over random draws and scales."""

    def kernel(rng):
        spec, x, v = draw_spec_state(rng)
        lam = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
        res = homogeneity_residual(spec, x, v, lam)
        scale = lam * max(abs(eval_L(spec, x, v)), 1.0)
        return abs(res) / scale

    return _run("homogeneity", samples, tolerance, seed, kernel)


def euler_identity_sweep(mode: str = "analytic", samples: int = 1000, seed: int = 1,
                         tolerance: float = None) -> SweepResult:
    """max relative |p.v - L|, normalized by |p.v| + |L|."""
    if tolerance is None:
        tolerance = 1e-10 if mode == "analytic" else 1e-6

    def kernel(rng):
        spec, x, v = draw_spec_state(rng)
        p = momentum(spec, x, v) if mode == "analytic" else momentum_fd(spec, x, v)
        pv = float(p @ v)
        lag = eval_L(spec, x, v)
        return abs(pv - lag) / max(abs(pv) + abs(lag), _TINY)

    return _run(f"euler_identity_{mode}", samples, tolerance, seed, kernel)


def mass_shell_sweep(samples: int = 1000, seed: int = 2,
                     tolerance: float = 1e-9) -> SweepResult:
    """max |pi . g^{-1} . pi - m^2| over the draw family."""

    def kernel(rng):
        spec, x, v = draw_spec_state(rng)
        return abs(mass_shell_residual(spec, x, v))

    return _run("mass_shell_identity", samples, tolerance, seed, kernel)


def momentum_fd_sweep(samples: int = 500, seed: int = 3,
                      tolerance: float = 1e-6) -> SweepResult:
    """Closed-form momentum against central differences of eval_L."""

    def kernel(rng):
        spec, x, v = draw_spec_state(rng)
        pa = momentum(spec, x, v)
        pf = momentum_fd(spec, x, v)
        return float(np.max(np.abs(pa - pf)) / max(1.0, np.max(np.abs(pa))))

    return _run("momentum_vs_fd", samples, tolerance, seed, kernel)


def pi_invariance_sweep(samples: int = 300, seed: int = 4,
                        tolerance: float = 1e-12) -> SweepResult:
    """pi depends only on (m, g, v): re-randomize q, A, Q_n at fixed (m, g, v)."""

    def kernel(rng):
        spec, x, v = draw_spec_state(rng)
        pi0 = generalized_momentum(spec, x, v)
        other = LagrangianSpec(
            metric=spec.metric,
            mass=spec.mass,
            charge=float(rng.uniform(-5.0, 5.0)),
            potential=constant_potential(rng.uniform(-10.0, 10.0, size=spec.dim)),
            extra_terms=tuple((float(rng.uniform(-2.0, 2.0)), s)
                              for _q, s in spec.extra_terms),
        )
        pi1 = generalized_momentum(other, x, v)
        return float(np.max(np.abs(pi1 - pi0)))

    return _run("pi_invariance", samples, tolerance, seed, kernel)


def gauge_shift_sweep(samples: int = 200, seed: int = 5,
                      tolerance: float = 1e-10) -> SweepResult:
    """A -> A + df shifts p by q df and leaves pi unchanged."""

    def kernel(rng):
        spec, x, v = draw_spec_state(rng, curved=False)
        w = rng.uniform(-1.0, 1.0, size=spec.dim)
        c = float(rng.uniform(0.5, 1.5))

        # f(x) = c * sin(w . x); df = c cos(w . x) w
        def shifted(xx, base=spec.potential):
            return base(xx) + c * np.cos(float(w @ xx)) * w

        spec2 = LagrangianSpec(
            metric=spec.metric, mass=spec.mass, charge=spec.charge,
            potential=type(spec.potential)(spec.dim, "user", shifted),
            extra_terms=spec.extra_terms,
        )
        grad_f = c * np.cos(float(w @ x)) * w
        dp = momentum(spec2, x, v) - momentum(spec, x, v) - spec.charge * grad_f
        dpi = generalized_momentum(spec2, x, v) - generalized_momentum(spec, x, v)
        return float(max(np.max(np.abs(dp)), np.max(np.abs(dpi))))

    return _run("gauge_shift", samples, tolerance, seed, kernel)


def standard_sweeps(seed: int = 0, samples: int = 1000):
    """The sweep battery behind the `check` subcommand."""
    return [
        homogeneity_sweep(samples=samples, seed=seed),
        euler_identity_sweep("analytic", samples=samples, seed=seed + 1),
        euler_identity_sweep("fd", samples=max(100, samples // 2), seed=seed + 2),
        mass_shell_sweep(samples=samples, seed=seed + 3),
        momentum_fd_sweep(samples=max(100, samples // 2), seed=seed + 4),
        pi_invariance_sweep(samples=max(100, samples // 3), seed=seed + 5),
        gauge_shift_sweep(samples=max(100, samples // 5), seed=seed + 6),
    ]
