"""Gauge-fixed world-line integration for 0-branes.

Reparametrization invariance makes the full velocity Hessian of L singular
along v, so dynamics only become well posed after a gauge choice:

* coordinate time: v^0 = 1, the parameter is x^0, the state is (x^i, v^i),
  and the spatial accelerations solve the reduced (N-1)x(N-1) Hessian
  system;
* proper time: g(v, v) = 1, the state is (x^a, v^a), and the acceleration
  solves the Euler-Lagrange rows bordered by the differentiated gauge row,
  [[H, g v], [(g v)^T, 0]] [a; mu] = [F; -1/2 d_c g_ab v^c v^a v^b]. That
  square system is regular whenever H is nondegenerate on g(v, .)^perp; the
  velocity is renormalized onto the constraint surface after every step.

One fixed-step classical RK4 stepper (_rk4_step) serves both gauges; each
supplies only its derivative and its after-step rule. When a field varies,
each stage solves the Euler-Lagrange system H a = F of lagrangian.el_system,
which evaluates each field once. When every field is constant (the metric,
the field strength and each tensor term; see _constant_fields), one
plain-float derivative serves both gauges instead, from g, the field
strength and the tensor entries read once per run. Measured in-process on
a 2-vCPU VM (integrate over 200 steps, best of 5 timeit repeats, ranges
over 3-6 runs on a busy host), an RK4 step on the orbits benchmark's specs
costs, with it against the generic derivative on the same spec:

* coordinate time, EM only: 21-35 us against 174-239 us;
* coordinate time, a constant rank-3 term: 54-87 us against 256-333 us;
* proper time, EM only: 21-34 us against 188-226 us.

The per-sample drift log records the mass-shell residual
pi.g^{-1}.pi - m^2, which is an algebraic identity of the momentum map and
therefore stays at rounding level regardless of step size; the
reduced-Hamiltonian drift (energy_drift) is the step-sensitive accuracy
instrument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatch,
    GaugeViolation,
    NullVelocity,
    SingularReducedHessian,
    SpacelikeVelocity,
)
from .geometry import quadratic_form
from .lagrangian import (
    LagrangianSpec,
    _checked_radicand,
    el_system,
    eval_L,
    mass_shell_residual,
    momentum,
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
    H, F, *_ = el_system(spec, x, v)
    return H @ np.asarray(a, dtype=float) - F


def _rk4_step(deriv, t, z, h):
    """One classical RK4 step of dz/dt = deriv(t, z) on a flat list state."""
    hh = 0.5 * h
    k1 = deriv(t, z)
    k2 = deriv(t + hh, [zi + hh * ki for zi, ki in zip(z, k1)])
    k3 = deriv(t + hh, [zi + hh * ki for zi, ki in zip(z, k2)])
    k4 = deriv(t + h, [zi + h * ki for zi, ki in zip(z, k3)])
    h6 = h / 6.0
    return [zi + h6 * (a + 2.0 * b + 2.0 * c + d) for zi, a, b, c, d in zip(z, k1, k2, k3, k4)]


def _march(deriv, t0, z, n_steps, h, after_step=None):
    """n_steps RK4 steps from z at t0; after_step(k, z) returns the state kept."""
    zs = [z]
    for k in range(n_steps):
        z = _rk4_step(deriv, t0 + k * h, z, h)
        if after_step is not None:
            z = after_step(k, z)
        zs.append(z)
    return t0 + h * np.arange(n_steps + 1), np.asarray(zs)


# ---------------------------------------------------------------------------
# coordinate-time gauge: z = (x^i, v^i), i = 1..N-1
# ---------------------------------------------------------------------------

def _coordinate_accel(spec, t, y, u):
    H, F, *_ = el_system(spec, np.array([t, *y]), np.array([1.0, *u]))
    try:
        return np.linalg.solve(H[1:, 1:], F[1:])
    except np.linalg.LinAlgError as exc:
        raise SingularReducedHessian(f"reduced Hessian singular at t={t}") from exc


def _coordinate_deriv(spec):
    nsp = spec.dim - 1

    def deriv(t, z):
        u = z[nsp:]
        return u + _coordinate_accel(spec, t, z[:nsp], u).tolist()

    return deriv


def _check_reduced_hessian(spec, x, v):
    H, *_ = el_system(spec, x, v)
    if np.linalg.cond(H[1:, 1:]) > _COND_LIMIT:
        raise SingularReducedHessian(
            "reduced velocity Hessian is numerically singular at the initial point"
        )


def _integrate_coordinate(spec, x0, v0, n_steps, h):
    nsp = spec.dim - 1
    deriv = (_constant_field_deriv(spec, GaugeChoice.COORDINATE_TIME) if _constant_fields(spec)
             else _coordinate_deriv(spec))
    taus, zs = _march(deriv, float(x0[0]), x0[1:].tolist() + v0[1:].tolist(), n_steps, h)
    xs = np.column_stack([taus, zs[:, :nsp]])
    vs = np.column_stack([np.ones_like(taus), zs[:, nsp:]])
    return taus, xs, vs


# ---------------------------------------------------------------------------
# proper-time gauge: z = (x^a, v^a)
# ---------------------------------------------------------------------------

def _proper_accel(spec, x, v):
    """a from the EL rows bordered by the differentiated gauge row.

    [[H, g v], [(g v)^T, 0]] [a; mu] = [F; -1/2 d_c g_ab v^c v^a v^b] is
    square, and regular whenever H is nondegenerate on g(v, .)^perp.
    """
    n = spec.dim
    H, F, gv, row = el_system(spec, x, v)
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = H
    A[:n, n] = A[n, :n] = gv
    b = np.zeros(n + 1)
    b[:n] = F
    b[n] = row
    try:
        return np.linalg.solve(A, b)[:n]
    except np.linalg.LinAlgError as exc:
        raise SingularReducedHessian(
            f"bordered velocity Hessian singular at x={x.tolist()}") from exc


def _integrate_proper(spec, x0, v0, n_steps, h):
    n = spec.dim
    if _constant_fields(spec):
        deriv = _constant_field_deriv(spec, GaugeChoice.PROPER_TIME)
        g_rows = _sparse_rows(spec.metric(x0))

        def norm2(z):
            return _dot(z[n:], _matvec(g_rows, z[n:]))
    else:
        def deriv(_tau, z):
            v = z[n:]
            return v + _proper_accel(spec, np.array(z[:n]), np.array(v)).tolist()

        def norm2(z):
            return quadratic_form(spec.metric(np.array(z[:n])), np.array(z[n:]))

    renorm = [abs(np.sqrt(quadratic_form(spec.metric(x0), v0)) - 1.0)]

    def renormalize(k, z):
        gvv = norm2(z)
        if gvv <= 0.0:
            raise GaugeViolation(f"proper-time velocity left the cone at step {k}")
        nrm = math.sqrt(gvv)
        dev = abs(nrm - 1.0)
        if dev > GAUGE_TOL:
            raise GaugeViolation(
                f"gauge drift {dev:.3e} exceeded {GAUGE_TOL} at step {k}; reduce the step"
            )
        renorm.append(dev)
        return z[:n] + [vi / nrm for vi in z[n:]]  # project back onto g(v,v) = 1

    taus, zs = _march(deriv, 0.0, x0.tolist() + v0.tolist(), n_steps, h, renormalize)
    return taus, zs[:, :n], zs[:, n:], np.asarray(renorm)


# ---------------------------------------------------------------------------
# constant fields: one plain-float derivative for both gauges
# ---------------------------------------------------------------------------

def _constant_fields(spec) -> bool:
    """Whether _constant_field_deriv applies: a massive spec whose metric, field
    strength and tensor terms do not vary (a uniform magnetic potential varies,
    but its Jacobian does not)."""
    return (spec.mass > 0.0 and spec.metric.is_constant
            and spec.potential.kind in ("zero", "constant", "uniform-magnetic")
            and all(s.is_constant for _, s in spec.extra_terms))


def _outside_cone(gvv):
    """Raise what lagrangian's mass term raises for g(v, v) <= 0."""
    if gvv < 0.0:
        raise SpacelikeVelocity(f"g(v,v) = {gvv} < 0")
    raise NullVelocity("momentum of the mass term is undefined on the light cone")


def _eliminate(A, b):
    """x with A x = b for a small dense system of float lists, by Gaussian
    elimination with partial pivoting; A and b are overwritten.

    An exactly zero pivot raises SingularReducedHessian, as the LU
    factorization behind np.linalg.solve fails on one.
    """
    n = len(b)
    for k in range(n):
        p = k
        for i in range(k + 1, n):
            if abs(A[i][k]) > abs(A[p][k]):
                p = i
        if A[p][k] == 0.0:
            raise SingularReducedHessian(f"velocity Hessian system singular (column {k})")
        A[k], A[p] = A[p], A[k]
        b[k], b[p] = b[p], b[k]
        row, pivot = A[k], A[k][k]
        for i in range(k + 1, n):
            r = A[i][k] / pivot
            if r != 0.0:
                other = A[i]
                for j in range(k + 1, n):
                    other[j] -= r * row[j]
                b[i] -= r * b[k]
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        row, acc = A[k], b[k]
        for j in range(k + 1, n):
            acc -= row[j] * x[j]
        x[k] = acc / row[k]
    return x


def _sparse_rows(matrix):
    """The (column, entry) pairs of each row's nonzero entries, as Python numbers."""
    return [[(b, x) for b, x in enumerate(row) if x] for row in np.asarray(matrix).tolist()]


def _matvec(rows, v):
    """M.v for the rows of M as _sparse_rows gives them, in plain floats."""
    out = []
    for row in rows:
        acc = 0.0
        for b, x in row:
            acc += x * v[b]
        out.append(acc)
    return out


def _dot(u, v):
    """u.v of two float lists."""
    acc = 0.0
    for x, y in zip(u, v):
        acc += x * y
    return acc


def _tensor_stencil(q_n, tensor):
    """A constant tensor term as the floats its Hessian needs at every stage.

    (Q_n (n - 1), 1/n - 1, 1/n - 2, n, pairs): pairs lists (a, b, entries)
    for each a <= b whose s_ab = S(v, ..., v, .^2)_ab has a nonzero entry;
    entries are the (S_{ab rest}, rest) of the nonzero dense entries, and
    s_ab sums S_{ab rest} * v^rest over them.
    """
    S, n = tensor.S, tensor.rank
    pairs = {}
    for idx in zip(*np.nonzero(S)):
        a, b, *rest = map(int, idx)
        if a <= b:
            pairs.setdefault((a, b), []).append((float(S[idx]), rest))
    return (q_n * (n - 1), 1.0 / n - 1.0, 1.0 / n - 2.0, n,
            [(a, b, entries) for (a, b), entries in pairs.items()])


def _constant_field_deriv(spec, gauge):
    """_coordinate_deriv, or the proper-time (v, a), of a spec with _constant_fields.

    Same equations, in plain floats: at one state per call, numpy's per-call
    overhead costs more than the arithmetic. g, the field strength
    f = q (J^T - J), for which F = f v, and each tensor's nonzero entries are
    read once; a constant metric has row = 0.

    * EM only, coordinate time, diagonal g: the closed form of the reduced
      inverse, M^{-1} = (s/m) [diag(1/d_i) + u u^T / g00], s = sqrt(g(v, v)).
    * EM only, proper time: the bordered system's exact solution
      a = (s/m) g^{-1} f v with mu = 0, since f is antisymmetric and so
      g(v, a) = (s/m) v.f.v = 0.
    * Otherwise (tensor terms, or a non-diagonal g in coordinate time): the
      mass and tensor Hessians k1 s_ab - k2 s_a s_b, eliminated on the reduced
      (N-1)^2 block or the bordered (N+1)^2 system.

    Every domain check raises what el_system raises at the same state.
    """
    dim = spec.dim
    origin = np.zeros(dim)
    g = spec.metric(origin)
    m = float(spec.mass)
    q = float(spec.charge)
    jac = spec.potential.jacobian(origin)
    proper = gauge is GaugeChoice.PROPER_TIME

    g_rows = _sparse_rows(g)
    if not spec.extra_terms and proper:
        w = _sparse_rows(np.linalg.solve(g, q * (jac.T - jac)))  # g^{-1} f

        def deriv(_tau, z):
            v = z[dim:]
            gvv = _dot(v, _matvec(g_rows, v))
            if gvv <= 0.0:
                _outside_cone(gvv)
            c = math.sqrt(gvv) / m
            return v + [c * x for x in _matvec(w, v)]

        return deriv

    nsp = dim - 1
    if not spec.extra_terms and np.max(np.abs(g - np.diag(np.diag(g)))) == 0.0:
        g00 = float(g[0, 0])
        d = [float(g[i, i]) for i in range(1, dim)]
        # F[i][al] = J[al, i+1] - J[i+1, al] so that rhs_i = q * F[i][al] v^al
        F = [[float(jac[al, i + 1] - jac[i + 1, al]) for al in range(dim)] for i in range(nsp)]
        have_force = q != 0.0 and any(any(row) for row in F)
        no_force = [0.0] * nsp

        def deriv(t, z):
            u = z[nsp:]
            s2 = g00
            for i in range(nsp):
                s2 += d[i] * u[i] * u[i]
            if s2 <= 0.0:
                _outside_cone(s2)
            s = math.sqrt(s2)
            rhs = no_force
            if have_force:
                rhs = []
                for row in F:
                    acc = row[0]
                    for j in range(nsp):
                        acc += row[j + 1] * u[j]
                    rhs.append(q * acc)
            udotr = 0.0
            for i in range(nsp):
                udotr += u[i] * rhs[i]
            c = s / m
            u += [c * (rhs[i] / d[i] + u[i] * udotr / g00) for i in range(nsp)]
            return u  # (v, a)

        return deriv

    gl = g.tolist()
    lo = 0 if proper else 1  # H's rows and columns lo..dim-1 are solved
    rows = range(lo, dim)
    f_rows = _sparse_rows(q * (jac.T - jac))[lo:]
    tensors = [_tensor_stencil(q_n, s) for q_n, s in spec.extra_terms]

    def deriv(t, z):
        v = z[dim:] if proper else [1.0] + z[nsp:]
        gv = _matvec(g_rows, v)
        gvv = _dot(v, gv)
        if gvv <= 0.0:
            _outside_cone(gvv)
        s = math.sqrt(gvv)
        ms, ms3 = m / s, m / (s * gvv)
        H = [[ms * gl[i][j] - ms3 * gv[i] * gv[j] for j in rows] for i in rows]
        for qn1, e1, e2, rank, pairs in tensors:
            sa = [0.0] * dim
            sab = []
            for a, b, entries in pairs:
                acc = 0.0
                for w, rest in entries:
                    for r in rest:
                        w *= v[r]
                    acc += w
                sab.append(acc)
                sa[a] += acc * v[b]
                if a != b:
                    sa[b] += acc * v[a]
            c = _dot(v, sa)
            if c == 0.0 or (c < 0.0 and rank % 2 == 0):
                _checked_radicand(rank, c)
            k1 = qn1 * abs(c) ** e1
            k2 = qn1 * abs(c) ** e2 if c > 0.0 else -qn1 * abs(c) ** e2
            for (a, b, _), sx in zip(pairs, sab):
                if a >= lo:
                    H[a - lo][b - lo] += k1 * sx
                    if a != b:
                        H[b - lo][a - lo] += k1 * sx
            nz = [(i - lo, k2 * sa[i], sa[i]) for i in rows if sa[i]]
            for i, k2si, _ in nz:
                hi = H[i]
                for j, _, sj in nz:
                    hi[j] -= k2si * sj
        rhs = _matvec(f_rows, v)
        if proper:  # border H with the gauge row (g v)^T a = row = 0
            for hi, gvi in zip(H, gv):
                hi.append(gvi)
            H.append(gv + [0.0])
            rhs.append(0.0)
            return v + _eliminate(H, rhs)[:dim]
        return z[nsp:] + _eliminate(H, rhs)

    return deriv


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
    if spec._stacked:
        raise DimensionMismatch("integration takes one spec, not a stack with per-point couplings")
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
        taus, xs, vs = _integrate_coordinate(spec, x0, v0, n_steps, float(step))
        gauge_res = np.zeros(taus.shape[0])  # v^0 = 1 holds structurally
    elif gauge is GaugeChoice.PROPER_TIME:
        nrm0 = quadratic_form(spec.metric(x0), v0)
        if nrm0 <= 0 or abs(np.sqrt(nrm0) - 1.0) > GAUGE_TOL:
            raise GaugeViolation(f"proper-time gauge needs g(v0,v0) = 1, got {nrm0}")
        v0 = v0 / np.sqrt(nrm0)
        taus, xs, vs, gauge_res = _integrate_proper(spec, x0, v0, n_steps, float(step))
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
