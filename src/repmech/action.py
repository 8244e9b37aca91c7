"""Discrete action on polyline paths and its extremization at fixed endpoints.

The discrete action sums L(midpoint_k, dx_k) over segments. Because L is
first-order homogeneous, L(x, dx/dt) * dt = L(x, dx) for any positive dt,
so no step sizes appear: the discrete functional is parameterization-free
by construction.

That freedom survives discretely as one flat direction per interior point
(the point sliding along the curve), and extremals of timelike actions are
typically maxima or saddles. extremize therefore fixes the coordinate-time
gauge, freezing each interior x^0, and solves the remaining discrete
Euler-Lagrange equations (the spatial components of grad S = 0) by Newton's
method on the action Hessian's spatial block. The time components, which
the gauge no longer enforces, are reported as the Noether defect.

Each function evaluates the Lagrangian kernels once per path, on the
(K+1, N) arrays of segment midpoints and segments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    GaugeViolation,
    RepMechError,
    SingularReducedHessian,
    SpacelikeSegment,
    SpacelikeVelocity,
)
from .geometry import FD_STEP, central_difference, quadratic_form
from .lagrangian import LagrangianSpec, el_system, eval_L, momentum, position_gradient

# halvings of a Newton step before extremize gives up on it
MAX_HALVINGS = 30
# largest dense action Hessian, (K N)^2 entries: 128 MiB of floats, and
# extremize's reduced block and its solve copy each add up to as much again;
# K = 10^5 interior points in dim 4 would ask for 1.28 TB
MAX_HESSIAN_ENTRIES = 2 ** 24


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


def _segments_in_cone(fn):
    """Make fn(spec, path) raise a kernel's SpacelikeVelocity as a SpacelikeSegment
    that names the first spacelike segment, the kernel's batch index."""
    @functools.wraps(fn)
    def checked(spec, path):
        try:
            return fn(spec, path)
        except SpacelikeVelocity as err:
            which = f"segment {err.batch_index[0]}" if err.batch_index else "a segment"
            raise SpacelikeSegment(f"{which} is spacelike while the mass term is on") from None

    return checked


@_segments_in_cone
def discrete_action(spec: LagrangianSpec, path: DiscretePath) -> float:
    """sum_k L(midpoint_k, dx_k); equals the parameterized sum for any dt_k > 0."""
    return float(np.sum(eval_L(spec, path.midpoints(), path.segments())))


@_segments_in_cone
def action_gradient(spec: LagrangianSpec, path: DiscretePath) -> np.ndarray:
    """dS/d(interior points), shape (K, N), from the closed-form momenta.

    grad_j = p_j - p_{j+1} + (dL/dx_j + dL/dx_{j+1}) / 2 over the segments
    j, j+1 that meet at interior point j; the position term is absent when
    every field is constant.
    """
    mids = path.midpoints()
    segs = path.segments()
    p = momentum(spec, mids, segs)
    grad = p[:-1] - p[1:]
    if not spec.all_fields_constant:
        dLdx = position_gradient(spec, mids, segs)
        grad = grad + 0.5 * (dLdx[:-1] + dLdx[1:])
    return grad


@_segments_in_cone
def action_hessian(spec: LagrangianSpec, path: DiscretePath) -> np.ndarray:
    """d2 S / d(interior)2 as a (K*N, K*N) matrix (block tridiagonal).

    Segment k depends on its end points through m_k = (x_k + x_{k+1}) / 2 and
    dx_k = x_{k+1} - x_k, so by the chain rule its blocks come from
    A = L_xx, B = L_xv (B[c, a] = d2 L / dx^c dv^a) and C = L_vv at (m_k, dx_k):

        d2/dx_k2 = A/4 - (B + B^T)/2 + C,  d2/dx_{k+1}2 = A/4 + (B + B^T)/2 + C,
        d2/dx_k dx_{k+1} = A/4 + (B - B^T)/2 - C.

    C and B are el_system's H and B, from one call on all segments at once;
    A is one central difference of position_gradient per position axis,
    with the absolute step FD_STEP (a step that does not scale with |x| keeps
    extremize translation-equivariant). A and B vanish when every field is
    constant. A path whose Hessian would have more than MAX_HESSIAN_ENTRIES
    entries is a DimensionMismatch, raised before anything is evaluated.
    """
    k, n = path.interior.shape
    if (k * n) ** 2 > MAX_HESSIAN_ENTRIES:
        raise DimensionMismatch(f"K = {k} interior points in dim {n} need a dense action Hessian "
                                f"of {(k * n) ** 2} entries, more than {MAX_HESSIAN_ENTRIES}")
    mids = path.midpoints()
    segs = path.segments()
    lvv, lxv, *_ = el_system(spec, mids, segs)
    first, last, cross = lvv, lvv, -lvv  # the three blocks above, per segment
    if not spec.all_fields_constant:
        lxx = central_difference(lambda m: position_gradient(spec, m, segs), mids,
                                 np.full(n, FD_STEP))
        sym = 0.5 * (lxv + np.swapaxes(lxv, -1, -2))
        first = 0.25 * lxx - sym + lvv
        last = 0.25 * lxx + sym + lvv
        cross = 0.25 * lxx + (lxv - sym) - lvv
    hess = np.zeros((k, n, k, n))
    j = np.arange(k)
    hess[j, :, j, :] = last[:-1] + first[1:]
    hess[j[:-1], :, j[1:], :] = cross[1:-1]
    hess[j[1:], :, j[:-1], :] = np.swapaxes(cross[1:-1], -1, -2)
    return hess.reshape(k * n, k * n)


@dataclass(frozen=True)
class ExtremizeResult:
    path: DiscretePath
    action: float
    grad_norm_inf: float  # of the spatial components, which extremize drives to zero
    iterations: int
    noether_defect: float  # max |dS/dx^0| over the interior points
    converged: bool
    message: str


def extremize(spec: LagrangianSpec, path0: DiscretePath,
              max_iters: int = 200, grad_tol: float = 1e-8) -> ExtremizeResult:
    """Drive the spatial components of grad S to zero, with each interior x^0 frozen.

    Fixing x^0 at its input value is the coordinate-time gauge: it removes
    the one flat sliding mode per interior point that the discrete remnant of
    reparametrization freedom leaves, and what remains is a discrete
    Euler-Lagrange problem (Marsden & West 2001) in the K*(N-1) spatial
    unknowns. Each step is a Newton step on the reduced spatial block of
    action_hessian. It backtracks, halving the step, while a trial path
    raises a RepMechError (say, a spacelike segment) or does not lower
    |spatial grad|^2; the step logic reads only gradients and Hessians, so a
    rigid translation of the problem translates the solve. x^0 must
    increase strictly along path0 (GaugeViolation otherwise), a g(dx, dx)
    of path0 past the float range raises DimensionMismatch, a singular
    reduced Hessian raises SingularReducedHessian, and a path too long for a
    dense Hessian (see action_hessian) raises DimensionMismatch.

    Returns the last iterate with diagnostics. converged is False when the
    gradient tolerance was not reached within max_iters steps, or when no
    halving of a Newton step lowered the gradient. noether_defect is
    max |dS/dx^0| at the returned path: the time-component residual that the
    gauge no longer enforces, which vanishes where p_0 is conserved exactly.
    """
    t = path0.points()[:, 0]
    back = np.flatnonzero(t[1:] <= t[:-1])
    if back.size:
        i = back[0]
        raise GaugeViolation(f"segment {i}: x^0 goes from {float(t[i])} to {float(t[i + 1])}; "
                             "the frozen coordinate-time gauge needs it to increase strictly")
    with np.errstate(over="ignore"):
        gvv = quadratic_form(spec.metric(path0.midpoints()), path0.segments())
    big = np.flatnonzero(~np.isfinite(gvv))
    if big.size:
        raise DimensionMismatch(f"segment {big[0]}: g(dx, dx) overflows to {gvv[big[0]]}")
    k, n = path0.interior.shape
    path, grad = path0, action_gradient(spec, path0)
    r = grad[:, 1:].ravel()
    iterations, stalled = 0, False
    while iterations < max_iters and float(np.max(np.abs(r), initial=0.0)) > grad_tol:
        hess = action_hessian(spec, path).reshape(k, n, k, n)[:, 1:, :, 1:]
        try:
            spatial = np.linalg.solve(hess.reshape(r.size, r.size), -r)
        except np.linalg.LinAlgError:
            raise SingularReducedHessian(
                f"reduced action Hessian is singular at iteration {iterations}") from None
        step = np.column_stack([np.zeros(k), spatial.reshape(k, n - 1)])
        for _ in range(MAX_HALVINGS):
            trial = path.with_interior(path.interior + step)
            step = 0.5 * step
            try:
                grad_trial = action_gradient(spec, trial)
            except RepMechError:
                continue
            r_trial = grad_trial[:, 1:].ravel()
            with np.errstate(over="ignore"):
                trial_sq, r_sq = float(r_trial @ r_trial), float(r @ r)
            if trial_sq < r_sq or (trial_sq == r_sq == math.inf  # both past the float range
                                   and math.hypot(*r_trial) < math.hypot(*r)):
                break
        else:
            stalled = True
            break
        path, grad, r = trial, grad_trial, r_trial
        iterations += 1

    grad_inf = float(np.max(np.abs(r), initial=0.0))  # 0 in one dimension: no spatial unknowns
    converged = grad_inf <= grad_tol
    message = "converged" if converged else (
        f"gradient norm {grad_inf:.3e} above tol after {iterations} steps"
        + ("; no halving of the next Newton step lowered it" if stalled else ""))
    return ExtremizeResult(
        path=path, action=discrete_action(spec, path), grad_norm_inf=grad_inf,
        iterations=iterations, noether_defect=float(np.max(np.abs(grad[:, 0]))),
        converged=converged, message=message,
    )
