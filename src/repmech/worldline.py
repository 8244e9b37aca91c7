"""Gauge-fixed world-line integration for 0-branes.

Reparametrization invariance makes the full velocity Hessian of L singular
along v, so dynamics only become well posed after a gauge choice:

* coordinate time: v^0 = 1, the parameter is x^0, and the spatial
  accelerations solve the reduced (N-1)x(N-1) Hessian system;
* proper time: g(v, v) = 1, integrated as the full Euler-Lagrange system
  augmented with the differentiated gauge constraint, with the velocity
  renormalized onto the constraint surface after every step.

Both use a fixed-step classical RK4. The per-sample drift log records the
mass-shell residual pi.g^{-1}.pi - m^2, which is an algebraic identity of
the momentum map and therefore stays at rounding level regardless of step
size; the reduced-Hamiltonian drift (energy_drift) is the step-sensitive
accuracy instrument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np

from .errors import DimensionMismatch, GaugeViolation, SingularReducedHessian
from .geometry import quadratic_form
from .lagrangian import (
    LagrangianSpec,
    eval_L,
    mass_shell_residual,
    momentum,
    momentum_position_directional,
    position_gradient,
    velocity_hessian,
)

GAUGE_TOL = 1e-8
_COND_LIMIT = 1e12


class GaugeChoice(Enum):
    COORDINATE_TIME = "coordinate_time"
    PROPER_TIME = "proper_time"


@dataclass(frozen=True)
class Worldline:
    """Sampled trajectory (tau_k, x_k, v_k) with per-sample constraint logs."""

    tau: np.ndarray
    x: np.ndarray
    v: np.ndarray
    gauge: GaugeChoice
    drift: np.ndarray          # mass-shell residual per sample
    gauge_residual: np.ndarray  # per-sample gauge-condition deviation

    def __post_init__(self):
        n = self.tau.shape[0]
        if self.x.shape[0] != n or self.v.shape[0] != n or self.drift.shape[0] != n \
                or self.gauge_residual.shape[0] != n:
            raise DimensionMismatch("worldline sample arrays must share their length")
        if np.any(np.diff(self.tau) <= 0):
            raise DimensionMismatch("worldline parameter must be strictly increasing")

    def __len__(self):
        return self.tau.shape[0]


def el_residual(spec: LagrangianSpec, x, v, a) -> np.ndarray:
    """Euler-Lagrange residual d/dtau[dL/dv] - dL/dx expanded through (v, a)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    dp = velocity_hessian(spec, x, v) @ a + momentum_position_directional(spec, x, v, v)
    return dp - position_gradient(spec, x, v)


# ---------------------------------------------------------------------------
# coordinate-time gauge
# ---------------------------------------------------------------------------

def _coordinate_accel(spec, t, y, u):
    x = np.concatenate(([t], y))
    v = np.concatenate(([1.0], u))
    H = velocity_hessian(spec, x, v)
    M = H[1:, 1:]
    rhs = position_gradient(spec, x, v)[1:] - momentum_position_directional(spec, x, v, v)[1:]
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularReducedHessian(f"reduced Hessian singular at t={t}") from exc


def _check_reduced_hessian(spec, x, v):
    M = velocity_hessian(spec, x, v)[1:, 1:]
    if np.linalg.cond(M) > _COND_LIMIT:
        raise SingularReducedHessian(
            "reduced velocity Hessian is numerically singular at the initial point"
        )


def _fast_diag_em_eligible(spec) -> bool:
    if spec.mass <= 0.0 or spec.extra_terms:
        return False
    if not spec.metric.is_constant:
        return False
    g = spec.metric(np.zeros(spec.dim))
    if np.max(np.abs(g - np.diag(np.diag(g)))) != 0.0:
        return False
    return spec.potential.kind in ("zero", "constant", "uniform-magnetic")


def _integrate_coordinate_fast(spec, x0, v0, n_steps, step):
    """Pure-scalar RK4 for constant diagonal metrics with EM coupling only.

    Same equations as the generic path; specialized because per-step numpy
    overhead dominates at 1e4+ steps.
    """
    dim = spec.dim
    nsp = dim - 1
    g = spec.metric(np.zeros(dim))
    g00 = float(g[0, 0])
    d = [float(g[i, i]) for i in range(1, dim)]
    m = float(spec.mass)
    q = float(spec.charge)
    jac = spec.potential.jacobian(np.zeros(dim))
    # F[i][al] = J[al, i+1] - J[i+1, al] so that rhs_i = q * F[i][al] v^al
    F = [[float(jac[al, i + 1] - jac[i + 1, al]) for al in range(dim)] for i in range(nsp)]
    have_force = q != 0.0 and any(any(row) for row in F)

    def accel(t, y, u):
        s2 = g00
        for i in range(nsp):
            s2 += d[i] * u[i] * u[i]
        if s2 <= 0.0:
            raise GaugeViolation(f"velocity left the causal cone at t={t}")
        s = math.sqrt(s2)
        rhs = [0.0] * nsp
        if have_force:
            for i in range(nsp):
                row = F[i]
                acc = row[0]
                for j in range(nsp):
                    acc += row[j + 1] * u[j]
                rhs[i] = q * acc
        udotr = 0.0
        for i in range(nsp):
            udotr += u[i] * rhs[i]
        # M^{-1} = (s/m) [diag(1/d_i) + u u^T / g00]
        c = s / m
        return [c * (rhs[i] / d[i] + u[i] * udotr / g00) for i in range(nsp)]

    t0 = float(x0[0])
    t = t0
    y = [float(c) for c in x0[1:]]
    u = [float(c) for c in v0[1:]]
    xs = [[t] + y]
    vs = [[1.0] + u]
    taus = [t]
    h = float(step)
    for k in range(n_steps):
        k1a = accel(t, y, u)
        y2 = [y[i] + 0.5 * h * u[i] for i in range(nsp)]
        u2 = [u[i] + 0.5 * h * k1a[i] for i in range(nsp)]
        k2a = accel(t + 0.5 * h, y2, u2)
        y3 = [y[i] + 0.5 * h * u2[i] for i in range(nsp)]
        u3 = [u[i] + 0.5 * h * k2a[i] for i in range(nsp)]
        k3a = accel(t + 0.5 * h, y3, u3)
        y4 = [y[i] + h * u3[i] for i in range(nsp)]
        u4 = [u[i] + h * k3a[i] for i in range(nsp)]
        k4a = accel(t + h, y4, u4)
        y = [y[i] + h / 6.0 * (u[i] + 2.0 * u2[i] + 2.0 * u3[i] + u4[i]) for i in range(nsp)]
        u = [u[i] + h / 6.0 * (k1a[i] + 2.0 * k2a[i] + 2.0 * k3a[i] + k4a[i]) for i in range(nsp)]
        t = t0 + (k + 1) * h
        taus.append(t)
        xs.append([t] + y)
        vs.append([1.0] + u)
    return np.asarray(taus), np.asarray(xs), np.asarray(vs)


def _integrate_coordinate_generic(spec, x0, v0, n_steps, step):
    nsp = spec.dim - 1
    t0 = float(x0[0])
    t = t0
    y = np.asarray(x0[1:], dtype=float).copy()
    u = np.asarray(v0[1:], dtype=float).copy()
    taus = [t]
    xs = [np.concatenate(([t], y))]
    vs = [np.concatenate(([1.0], u))]
    h = float(step)
    for k in range(n_steps):
        k1a = _coordinate_accel(spec, t, y, u)
        u2 = u + 0.5 * h * k1a
        k2a = _coordinate_accel(spec, t + 0.5 * h, y + 0.5 * h * u, u2)
        u3 = u + 0.5 * h * k2a
        k3a = _coordinate_accel(spec, t + 0.5 * h, y + 0.5 * h * u2, u3)
        u4 = u + h * k3a
        k4a = _coordinate_accel(spec, t + h, y + h * u3, u4)
        y = y + h / 6.0 * (u + 2.0 * u2 + 2.0 * u3 + u4)
        u = u + h / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        t = t0 + (k + 1) * h
        taus.append(t)
        xs.append(np.concatenate(([t], y)))
        vs.append(np.concatenate(([1.0], u)))
    return np.asarray(taus), np.asarray(xs), np.asarray(vs)


# ---------------------------------------------------------------------------
# proper-time gauge
# ---------------------------------------------------------------------------

def _proper_accel(spec, x, v):
    """Solve the rank-deficient EL system with the differentiated gauge row."""
    H = velocity_hessian(spec, x, v)
    r = position_gradient(spec, x, v) - momentum_position_directional(spec, x, v, v)
    g = spec.metric(x)
    c = 2.0 * (g @ v)
    dg = spec.metric.gradient(x)
    dcon = -float(np.einsum("cab,c,a,b->", dg, v, v, v))
    scale = max(1.0, float(np.linalg.norm(H)) / spec.dim) / max(1e-30, float(np.linalg.norm(c)))
    A = np.vstack([H, scale * c])
    b = np.concatenate([r, [scale * dcon]])
    a, *_ = np.linalg.lstsq(A, b, rcond=None)
    return a


def _integrate_proper(spec, x0, v0, n_steps, step):
    x = np.asarray(x0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    taus = [0.0]
    xs = [x.copy()]
    vs = [v.copy()]
    renorm = [abs(np.sqrt(quadratic_form(spec.metric(x), v)) - 1.0)]
    h = float(step)
    tau = 0.0
    for k in range(n_steps):
        k1x, k1v = v, _proper_accel(spec, x, v)
        x2, v2 = x + 0.5 * h * k1x, v + 0.5 * h * k1v
        k2x, k2v = v2, _proper_accel(spec, x2, v2)
        x3, v3 = x + 0.5 * h * k2x, v + 0.5 * h * k2v
        k3x, k3v = v3, _proper_accel(spec, x3, v3)
        x4, v4 = x + h * k3x, v + h * k3v
        k4x, k4v = v4, _proper_accel(spec, x4, v4)
        x = x + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        gvv = quadratic_form(spec.metric(x), v)
        if gvv <= 0.0:
            raise GaugeViolation(f"proper-time velocity left the cone at step {k}")
        nrm = float(np.sqrt(gvv))
        dev = abs(nrm - 1.0)
        if dev > GAUGE_TOL:
            raise GaugeViolation(
                f"gauge drift {dev:.3e} exceeded {GAUGE_TOL} at step {k}; reduce the step"
            )
        v = v / nrm  # project back onto g(v,v) = 1
        tau = (k + 1) * h
        taus.append(tau)
        xs.append(x.copy())
        vs.append(v.copy())
        renorm.append(dev)
    return np.asarray(taus), np.asarray(xs), np.asarray(vs), np.asarray(renorm)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def integrate(spec: LagrangianSpec, gauge: GaugeChoice, x0, v0,
              tau_end: float, step: float) -> Worldline:
    """Fixed-step RK4 world line from (x0, v0) in the chosen gauge.

    The number of steps is round(tau_end / step); the initial condition must
    satisfy the gauge condition to 1e-8 and is snapped exactly onto it.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if x0.shape != (spec.dim,) or v0.shape != (spec.dim,):
        raise DimensionMismatch(f"initial data must have length {spec.dim}")
    if step <= 0 or tau_end <= 0:
        raise DimensionMismatch("step and tau_end must be positive")
    if spec.mass <= 0.0:
        raise SingularReducedHessian(
            "dynamics require the mass term; specs with only rank>=3 terms are rejected"
        )
    n_steps = int(round(tau_end / step))
    if n_steps < 1:
        raise DimensionMismatch("tau_end shorter than one step")

    if gauge is GaugeChoice.COORDINATE_TIME:
        if abs(v0[0] - 1.0) > GAUGE_TOL:
            raise GaugeViolation(f"coordinate-time gauge needs v^0 = 1, got {v0[0]}")
        v0 = v0.copy()
        v0[0] = 1.0
        _check_reduced_hessian(spec, x0, v0)
        if _fast_diag_em_eligible(spec):
            taus, xs, vs = _integrate_coordinate_fast(spec, x0, v0, n_steps, step)
        else:
            taus, xs, vs = _integrate_coordinate_generic(spec, x0, v0, n_steps, step)
        gauge_res = np.zeros(taus.shape[0])  # v^0 = 1 holds structurally
    elif gauge is GaugeChoice.PROPER_TIME:
        nrm0 = quadratic_form(spec.metric(x0), v0)
        if nrm0 <= 0 or abs(np.sqrt(nrm0) - 1.0) > GAUGE_TOL:
            raise GaugeViolation(f"proper-time gauge needs g(v0,v0) = 1, got {nrm0}")
        v0 = v0 / np.sqrt(nrm0)
        taus, xs, vs, gauge_res = _integrate_proper(spec, x0, v0, n_steps, step)
    else:
        raise DimensionMismatch(f"unknown gauge {gauge!r}")

    drift = mass_shell_residual(spec, xs, vs)
    return Worldline(tau=taus, x=xs, v=vs, gauge=gauge,
                     drift=drift, gauge_residual=gauge_res)


def conserved_drift(wl: Worldline, spec: LagrangianSpec) -> float:
    """Maximum |mass-shell residual| over the samples, recomputed from (x, v)."""
    return float(np.max(np.abs(mass_shell_residual(spec, wl.x, wl.v))))


def energy_drift(wl: Worldline, spec: LagrangianSpec) -> float:
    """Drift of the gauge-fixed reduced Hamiltonian p_i u^i - L along the run.

    In the coordinate-time gauge the reduced Hamiltonian is nonzero and, for
    parameter-independent fields, conserved by the exact flow; its RK4 drift
    is the practical accuracy instrument. In general it is bounded by the
    integrator's step^4: on a static weak-field metric with an analytic
    phi_grad the measured order is 3.998, and the drift test asserts 4 +- 0.1.
    On a uniform magnetic rotation it falls as step^5 instead, because RK4's
    amplitude error there is |R(iz)|^2 = 1 - z^6/72 + O(z^8), z = omega*step.
    """
    if wl.gauge is not GaugeChoice.COORDINATE_TIME:
        raise DimensionMismatch("energy_drift is defined for the coordinate-time gauge")
    p = momentum(spec, wl.x, wl.v)
    energies = np.vecdot(p[:, 1:], wl.v[:, 1:]) - eval_L(spec, wl.x, wl.v)
    return float(np.max(np.abs(energies - energies[0])))
