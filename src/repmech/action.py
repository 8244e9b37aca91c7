"""Discrete action on polyline paths and its extremization at fixed endpoints.

The discrete action sums L(midpoint_k, dx_k) over segments. Because L is
first-order homogeneous, L(x, dx/dt) * dt = L(x, dx) for any positive dt,
so no step sizes appear: the discrete functional is parameterization-free
by construction.

Extremals of timelike actions are typically maxima or saddles, and the
continuum reparametrization freedom survives discretely as flat directions
(points sliding along the curve). Stationarity is therefore sought by
driving the gradient to zero via least squares on grad S rather than by
descending S itself; flat directions are counted and reported.

Each function evaluates the Lagrangian kernels once per path, on the
(K+1, N) arrays of segment midpoints and segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, RepMechError, SpacelikeSegment
from .geometry import central_difference, quadratic_form
from .lagrangian import (
    LagrangianSpec,
    eval_L,
    momentum,
    position_gradient,
    velocity_hessian,
)

# absolute step of the finite-difference Hessian columns; a step that does
# not scale with |x| keeps extremize exactly translation-equivariant
HESSIAN_FD_STEP = 1e-6


@dataclass(frozen=True)
class DiscretePath:
    """Fixed endpoints plus K free interior points in the target space."""

    x_start: np.ndarray
    x_end: np.ndarray
    interior: np.ndarray  # (K, N)
    _points: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        xs = np.asarray(self.x_start, dtype=float)
        xe = np.asarray(self.x_end, dtype=float)
        pts = np.asarray(self.interior, dtype=float)
        if xs.ndim != 1 or xe.shape != xs.shape:
            raise DimensionMismatch("endpoints must be equal-length vectors")
        if pts.ndim != 2 or pts.shape[1] != xs.shape[0] or pts.shape[0] < 1:
            raise DimensionMismatch("interior must be a (K >= 1, N) array")
        object.__setattr__(self, "x_start", xs)
        object.__setattr__(self, "x_end", xe)
        object.__setattr__(self, "interior", pts)
        stacked = np.vstack([xs, pts, xe])
        stacked.setflags(write=False)
        object.__setattr__(self, "_points", stacked)

    @property
    def K(self) -> int:
        return self.interior.shape[0]

    @property
    def dim(self) -> int:
        return self.x_start.shape[0]

    def points(self) -> np.ndarray:
        """The K + 2 points, endpoints included, as a read-only (K + 2, N) array."""
        return self._points

    def segments(self) -> np.ndarray:
        pts = self.points()
        return pts[1:] - pts[:-1]

    def midpoints(self) -> np.ndarray:
        pts = self.points()
        return 0.5 * (pts[1:] + pts[:-1])

    def with_interior(self, interior) -> "DiscretePath":
        return DiscretePath(self.x_start, self.x_end, np.asarray(interior, dtype=float))


def straight_chord_path(x_start, x_end, K: int, perturbation=None) -> DiscretePath:
    """K interior points uniformly on the chord, plus an optional perturbation array."""
    xs = np.asarray(x_start, dtype=float)
    xe = np.asarray(x_end, dtype=float)
    frac = np.arange(1, K + 1)[:, None] / (K + 1)
    interior = xs[None, :] + frac * (xe - xs)[None, :]
    if perturbation is not None:
        interior = interior + np.asarray(perturbation, dtype=float)
    return DiscretePath(xs, xe, interior)


def _check_segments(spec, path):
    if spec.mass <= 0.0:
        return
    gvv = quadratic_form(spec.metric(path.midpoints()), path.segments())
    bad = np.flatnonzero(gvv < 0.0)
    if bad.size:
        raise SpacelikeSegment(f"segment {bad[0]} is spacelike while the mass term is on")


def discrete_action(spec: LagrangianSpec, path: DiscretePath) -> float:
    """sum_k L(midpoint_k, dx_k); equals the parameterized sum for any dt_k > 0."""
    _check_segments(spec, path)
    return float(np.sum(eval_L(spec, path.midpoints(), path.segments())))


def reparam_invariance_residual(spec: LagrangianSpec, path: DiscretePath, dtau) -> float:
    """|sum_k L(mid_k, dx_k / dt_k) dt_k - discrete_action|; zero up to round-off."""
    dtau = np.asarray(dtau, dtype=float)
    if dtau.shape != (path.K + 1,):
        raise DimensionMismatch(f"need {path.K + 1} parameter steps, got {dtau.shape}")
    if np.any(dtau <= 0):
        raise ValueError("parameter steps must be positive")
    total = np.sum(eval_L(spec, path.midpoints(), path.segments() / dtau[:, None]) * dtau)
    return abs(float(total) - discrete_action(spec, path))


def action_gradient(spec: LagrangianSpec, path: DiscretePath) -> np.ndarray:
    """dS/d(interior points), shape (K, N), from the closed-form momenta.

    grad_j = p_j - p_{j+1} + (dL/dx_j + dL/dx_{j+1}) / 2 over the segments
    j, j+1 that meet at interior point j; the position term is absent when
    every field is constant.
    """
    _check_segments(spec, path)
    mids = path.midpoints()
    segs = path.segments()
    p = momentum(spec, mids, segs)
    grad = p[:-1] - p[1:]
    if not spec.all_fields_constant:
        dLdx = position_gradient(spec, mids, segs)
        grad = grad + 0.5 * (dLdx[:-1] + dLdx[1:])
    return grad


def action_hessian(spec: LagrangianSpec, path: DiscretePath) -> np.ndarray:
    """d2 S / d(interior)2 as a (K*N, K*N) matrix (block tridiagonal).

    For constant fields L depends on the segments alone, and the blocks are
    assembled from the analytic velocity Hessians of the segments. Otherwise
    every column is a central difference of action_gradient with a fixed
    absolute step, which keeps the assembly exactly translation-equivariant.
    """
    k, n = path.interior.shape
    mids = path.midpoints()
    segs = path.segments()
    if spec.all_fields_constant:
        hv = velocity_hessian(spec, mids, segs)
        hess = np.zeros((k, n, k, n))
        j = np.arange(k)
        hess[j, :, j, :] = hv[:-1] + hv[1:]
        hess[j[1:], :, j[:-1], :] = -hv[1:-1]
        hess[j[:-1], :, j[1:], :] = -hv[1:-1]
        return hess.reshape(k * n, k * n)
    # the columns perturb one point at a time, so check the unperturbed
    # segments first, with the same errors as the analytic branch
    momentum(spec, mids, segs)
    return central_difference(
        lambda z: action_gradient(spec, path.with_interior(z.reshape(k, n))).ravel(),
        path.interior.ravel(), np.full(k * n, HESSIAN_FD_STEP))


@dataclass(frozen=True)
class ExtremizeResult:
    path: DiscretePath
    action: float
    grad_norm_inf: float
    iterations: int
    degenerate_modes: int
    converged: bool
    message: str


def extremize(spec: LagrangianSpec, path0: DiscretePath,
              max_iters: int = 200, grad_tol: float = 1e-8) -> ExtremizeResult:
    """Drive grad S to zero over the interior points.

    Levenberg-Marquardt on the residual r = grad S with the action Hessian
    as its Jacobian: analytic blocks for constant fields, central-difference
    columns of the gradient otherwise (see action_hessian). The damping and
    step logic depend only on residuals and Jacobians, never on coordinate
    magnitudes, so the solve is exactly equivariant under rigid translations
    of the problem. Trial points that leave the causal domain are rejected
    like any uphill step.

    Returns the best iterate with diagnostics; converged is False when the
    gradient tolerance was not reached within max_iters accepted steps.
    Degenerate modes count the near-null singular directions of the final
    Jacobian, the discrete remnant of reparametrization freedom.
    """
    shape = path0.interior.shape
    z = path0.interior.copy()
    r = action_gradient(spec, path0).ravel()
    jac = action_hessian(spec, path0)
    if float(np.max(np.abs(r))) <= grad_tol:
        return ExtremizeResult(
            path=path0, action=discrete_action(spec, path0),
            grad_norm_inf=float(np.max(np.abs(r))), iterations=0,
            degenerate_modes=_count_degenerate(jac), converged=True,
            message="initial path already stationary",
        )

    lam = 1e-3
    iterations = 0
    rejects = 0
    while iterations < max_iters and float(np.max(np.abs(r))) > grad_tol:
        jtj = jac.T @ jac
        damp = np.diag(np.maximum(np.diag(jtj), 1e-30))
        try:
            delta = np.linalg.solve(jtj + lam * damp, -jac.T @ r)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        trial = path0.with_interior(z + delta.reshape(shape))
        try:
            r_trial = action_gradient(spec, trial).ravel()
            ok = float(r_trial @ r_trial) < float(r @ r)
        except RepMechError:
            ok = False
        if ok:
            z = z + delta.reshape(shape)
            r = r_trial
            jac = action_hessian(spec, path0.with_interior(z))
            lam = max(lam / 3.0, 1e-14)
            iterations += 1
            rejects = 0
        else:
            lam *= 4.0
            rejects += 1
            if lam > 1e16 or rejects > 60:
                break

    path = path0.with_interior(z)
    grad_inf = float(np.max(np.abs(r)))
    converged = grad_inf <= grad_tol
    return ExtremizeResult(
        path=path, action=discrete_action(spec, path),
        grad_norm_inf=grad_inf, iterations=iterations,
        degenerate_modes=_count_degenerate(jac), converged=converged,
        message=("converged" if converged
                 else f"gradient norm {grad_inf:.3e} above tol after {iterations} steps"),
    )


def _count_degenerate(jac, rel_tol: float = 1e-6) -> int:
    s = np.linalg.svd(np.asarray(jac), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return int(s.size)
    return int(np.sum(s < rel_tol * s[0]))
