"""Background metrics, quadratic forms, signatures, and causality classes.

The causality classification follows the standard trichotomy for a
non-degenerate symmetric form: with no positive direction the gravity-like
term sqrt(g(v,v)) has no real domain; with two or more positive directions
the cone admits velocities of arbitrarily large spatial speed; with exactly
one positive direction spatial speeds are bounded by 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateMetric, DimensionMismatch

SYMMETRY_TOL = 1e-14
DEGENERACY_TOL = 1e-12
DEFAULT_EIG_TOL = 1e-10


# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricField:
    """Position-dependent symmetric metric g_ab(x) on an N-dimensional target.

    kind is one of "constant", "diagonal-analytic", "user". The evaluator must
    return a symmetric matrix (checked to 1e-14) with |det| > 1e-12. A
    constant metric is checked once, when it is built; any other is checked
    at every point it is evaluated at.
    """

    dim: int
    kind: str
    _eval: Callable[[np.ndarray], np.ndarray]
    _grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fd_step: float = 1e-6
    _constant: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        if self.is_constant:
            object.__setattr__(self, "_constant", self._at(np.zeros(self.dim)))

    def __call__(self, x) -> np.ndarray:
        """g at x of shape (..., N), as (..., N, N); a single point is the shape (N,)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise DimensionMismatch(
                f"metric expects a position of length {self.dim}, got shape {x.shape}"
            )
        if self.is_constant:
            return self._constant if x.ndim == 1 else np.broadcast_to(
                self._constant, x.shape + (self.dim,))
        return self._at(x) if x.ndim == 1 else pointwise(self._at, x)

    def _at(self, x) -> np.ndarray:
        """The evaluator's matrix at one point, after the shape, symmetry and degeneracy checks."""
        g = np.asarray(self._eval(x), dtype=float)
        if g.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"metric evaluator returned shape {g.shape}")
        if np.max(np.abs(g - g.T)) > SYMMETRY_TOL * max(1.0, np.max(np.abs(g))):
            raise DegenerateMetric("metric evaluator returned a non-symmetric matrix")
        if abs(np.linalg.det(g)) <= DEGENERACY_TOL:
            raise DegenerateMetric(f"metric is degenerate at x={x.tolist()}")
        return g

    def gradient(self, x) -> np.ndarray:
        """d g_ab / d x^c as an array G[..., c, a, b]; central differences by default."""
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.zeros(x.shape + (self.dim, self.dim))
        if x.ndim > 1:
            return pointwise(self.gradient, x)
        if self._grad is not None:
            return np.asarray(self._grad(x), dtype=float)
        out = np.empty((self.dim, self.dim, self.dim))
        for c in range(self.dim):
            h = self.fd_step * max(1.0, abs(x[c]))
            xp = x.copy()
            xm = x.copy()
            xp[c] += h
            xm[c] -= h
            out[c] = (self._eval(xp) - self._eval(xm)) / (2.0 * h)
        return out

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"


def pointwise(fn, *points) -> np.ndarray:
    """fn applied to each point of equally shaped (..., N) batches, stacked.

    The result has the batch shape followed by the shape of one fn value;
    fields whose value varies with position are evaluated through it.
    """
    rows = zip(*(p.reshape(-1, p.shape[-1]) for p in points))
    out = np.array([fn(*row) for row in rows], dtype=float)
    return out.reshape(points[0].shape[:-1] + out.shape[1:])


def constant_metric(matrix) -> MetricField:
    g = np.asarray(matrix, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatch("constant metric needs a square matrix")
    if np.max(np.abs(g - g.T)) > SYMMETRY_TOL * max(1.0, np.max(np.abs(g))):
        raise DegenerateMetric("constant metric must be symmetric")
    if abs(np.linalg.det(g)) <= DEGENERACY_TOL:
        raise DegenerateMetric("constant metric is degenerate")
    g = 0.5 * (g + g.T)
    g.setflags(write=False)
    return MetricField(dim=g.shape[0], kind="constant", _eval=lambda x, _g=g: _g)


def constant_diagonal_metric(diagonal) -> MetricField:
    return constant_metric(np.diag(np.asarray(diagonal, dtype=float)))


def minkowski_metric(dim: int = 4) -> MetricField:
    """diag(1, -1, ..., -1)."""
    d = -np.ones(dim)
    d[0] = 1.0
    return constant_diagonal_metric(d)


def euclidean_metric(dim: int) -> MetricField:
    return constant_diagonal_metric(np.ones(dim))


def weak_field_metric(dim: int, phi: Callable[[np.ndarray], float],
                      phi_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
                      ) -> MetricField:
    """Diagonal family g_00 = 1 + 2*phi(x), g_ii = -1 for a small analytic phi."""

    def evaluate(x):
        g = -np.eye(dim)
        g[0, 0] = 1.0 + 2.0 * float(phi(x))
        return g

    grad = None
    if phi_grad is not None:
        def grad(x):
            out = np.zeros((dim, dim, dim))
            dphi = np.asarray(phi_grad(x), dtype=float)
            out[:, 0, 0] = 2.0 * dphi
            return out

    return MetricField(dim=dim, kind="diagonal-analytic", _eval=evaluate, _grad=grad)


def metric_from_function(dim: int, fn: Callable[[np.ndarray], np.ndarray],
                         grad: Optional[Callable] = None) -> MetricField:
    return MetricField(dim=dim, kind="user", _eval=fn, _grad=grad)


# ---------------------------------------------------------------------------
# quadratic form and signature
# ---------------------------------------------------------------------------

def quadratic_form(g, v):
    """Bilinear contraction v.g.v of g (..., N, N) and v (..., N), shape (...)."""
    g = np.asarray(g, dtype=float)
    v = np.asarray(v, dtype=float)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {g.shape}")
    if v.shape[-1:] != g.shape[-1:]:
        raise DimensionMismatch(
            f"vector of length {v.shape} does not match metric dim {g.shape[-1]}"
        )
    return np.vecdot(np.matvec(g, v), v)


@dataclass(frozen=True)
class SignatureReport:
    """Eigenvalue counts (n_plus, n_minus, n_zero) at a given tolerance.

    eigenvalues/eigenvectors are kept (descending eigenvalue order) so that a
    causality witness can be mapped back to the original coordinates.
    """

    n_plus: int
    n_minus: int
    n_zero: int
    tolerance: float
    eigenvalues: Optional[np.ndarray] = field(default=None, repr=False)
    eigenvectors: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero


def signature(g, tol: float = DEFAULT_EIG_TOL) -> SignatureReport:
    """Count eigenvalues > tol, < -tol, and within +-tol of a symmetric matrix."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {g.shape}")
    if np.max(np.abs(g - g.T)) > 1e-12 * max(1.0, np.max(np.abs(g))):
        raise DimensionMismatch("signature expects a symmetric matrix")
    w, q = np.linalg.eigh(0.5 * (g + g.T))
    order = np.argsort(-w)  # positives first
    w = w[order]
    q = q[:, order]
    n_plus = int(np.sum(w > tol))
    n_minus = int(np.sum(w < -tol))
    n_zero = g.shape[0] - n_plus - n_minus
    return SignatureReport(n_plus, n_minus, n_zero, tol, w, q)


# ---------------------------------------------------------------------------
# causality classification
# ---------------------------------------------------------------------------

class CausalityKind(Enum):
    NO_TIME_INFEASIBLE = "NoTimeInfeasible"
    MULTI_TIME_UNBOUNDED = "MultiTimeUnbounded"
    ONE_TIME_BOUNDED = "OneTimeBounded"


@dataclass(frozen=True)
class CausalityClass:
    """Classification plus, for the multi-time case, an explicit witness.

    The witness w satisfies g(w, w) >= 0 while its spatial speed (measured in
    the orthogonally diagonalized, unit-normalized frame, relative to the
    leading time direction) exceeds 1. witness_model holds the same vector in
    that diagonal frame; basis maps model coordinates back to the original
    ones (witness = basis @ witness_model).
    """

    kind: CausalityKind
    witness: Optional[np.ndarray] = None
    witness_model: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None
    spatial_speed_sq: Optional[float] = None
    timelike_norm: Optional[float] = None


def causality_class(sig: SignatureReport) -> CausalityClass:
    """Map a non-degenerate signature to its causality class.

    n_plus = 0: sqrt(g(v,v)) is real only at v = 0, so no motion at all.
    n_plus >= 2: builds a witness velocity with g(w,w) >= 0 and spatial
    speed^2 = 1 + s^2/2 > 1 (s = 1.2), demonstrating unbounded speeds.
    n_plus = 1: speeds are bounded by 1.
    """
    if sig.n_zero > 0:
        raise DegenerateMetric(
            f"causality classification needs a non-degenerate metric (n_zero={sig.n_zero})"
        )
    if sig.n_plus == 0:
        return CausalityClass(CausalityKind.NO_TIME_INFEASIBLE)
    if sig.n_plus == 1:
        return CausalityClass(CausalityKind.ONE_TIME_BOUNDED)

    dim = sig.dim
    s = 1.2
    eps = 0.5 * s * s  # keeps g(w,w) = eps > 0 while spatial speed^2 = 1 + s^2/2 > 1
    model = np.zeros(dim)
    model[0] = 1.0
    model[1] = s
    model[sig.n_plus] = np.sqrt(1.0 + s * s - eps)  # first negative direction
    if sig.eigenvalues is not None and sig.eigenvectors is not None:
        # Sylvester frame: columns q_i / sqrt(|lambda_i|) turn g into diag(+-1)
        basis = sig.eigenvectors / np.sqrt(np.abs(sig.eigenvalues))
    else:
        basis = np.eye(dim)
    witness = basis @ model
    # spatial speed counts only the negative directions, relative to the
    # leading time axis (model[0] = 1)
    speed_sq = float(np.sum(model[sig.n_plus:] ** 2) / model[0] ** 2)
    return CausalityClass(
        kind=CausalityKind.MULTI_TIME_UNBOUNDED,
        witness=witness,
        witness_model=model,
        basis=basis,
        spatial_speed_sq=speed_sq,
        timelike_norm=eps,
    )
