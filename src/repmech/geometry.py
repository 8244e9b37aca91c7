"""Background metrics, quadratic forms, signatures, and causality classes.

The causality classification follows the standard trichotomy for a
non-degenerate symmetric form: with no positive direction the gravity-like
term sqrt(g(v,v)) has no real domain; with two or more positive directions
the cone admits velocities of arbitrarily large spatial speed; with exactly
one positive direction spatial speeds are bounded by 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateMetric, DimensionMismatch, NoSpatialDirection

SYMMETRY_TOL = 1e-14
DEGENERACY_TOL = 1e-12
DEFAULT_EIG_TOL = 1e-10
# central-difference step for derivatives without a closed form, scaled by
# max(1, |coordinate|): h_c = FD_STEP * max(1, |x_c|)
FD_STEP = 1e-6


# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------

def evaluated(fn, x, shape, what) -> np.ndarray:
    """fn(x) as floats, checked against the evaluator contract: positions x of shape
    (..., P) give x's batch shape followed by the value's own shape."""
    value = fn(x)
    try:
        value = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(
            f"{what} returned {type(value).__name__}, not an array of numbers: {exc}") from None
    batch = x.shape[:-1]
    if value.shape != batch + shape:
        got = (f"{value.shape[len(batch):]} per point" if value.shape[:len(batch)] == batch
               else f"{value.shape} for positions of shape {x.shape}")
        raise DimensionMismatch(f"{what} returned shape {got}, expected {shape} per point")
    return value


@dataclass(frozen=True)
class MetricField:
    """Position-dependent symmetric metric g_ab(x) on an N-dimensional target.

    kind is one of "constant", "diagonal-analytic", "user", "compound". The
    evaluator maps positions (..., position_dim) to symmetric (..., dim, dim)
    matrices (checked to 1e-14) with |det g| > 1e-12 * max|g_ab|^dim, a test
    of no scale. A constant metric is checked once, when it is built, and
    stored symmetrized; any other is checked on each batch, except a
    compound (see compound_metric), whose g is. position_dim, the length of
    the positions, defaults to dim.
    """

    dim: int
    kind: str
    _eval: Callable[[np.ndarray], np.ndarray]
    _grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    position_dim: Optional[int] = None
    _constant: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        if self.position_dim is None:
            object.__setattr__(self, "position_dim", self.dim)
        if self.is_constant:
            g = self._at(np.zeros(self.position_dim))
            g = 0.5 * (g + g.T)
            g.setflags(write=False)
            object.__setattr__(self, "_constant", g)

    def __call__(self, x) -> np.ndarray:
        """g at x (..., position_dim) as (..., dim, dim); a single point is (position_dim,)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.position_dim,):
            raise DimensionMismatch(
                f"metric expects a position of length {self.position_dim}, got shape {x.shape}"
            )
        if self.is_constant:
            return self._constant if x.ndim == 1 else np.broadcast_to(
                self._constant, x.shape[:-1] + self._constant.shape)
        if self.kind == "compound":
            return self._eval(x)
        return self._at(x)

    def _at(self, x) -> np.ndarray:
        """The evaluator's matrices at x (..., position_dim) from one call, checked for shape,
        symmetry and degeneracy on the whole stack; an error names the first bad point."""
        g = evaluated(self._eval, x, (self.dim, self.dim), "metric evaluator")
        scale = np.abs(g).max(axis=(-2, -1))
        asymmetric = (np.abs(g - g.swapaxes(-1, -2)).max(axis=(-2, -1))
                      > SYMMETRY_TOL * np.maximum(scale, 1.0))
        # relative to the largest entry, so that a metric's scale (and the
        # power of it a compound takes) does not make it read as degenerate;
        # a power or a determinant past the float range reads as degenerate
        with np.errstate(over="ignore", invalid="ignore"):
            bound = DEGENERACY_TOL * scale ** self.dim
            bad = asymmetric | ~(np.abs(np.linalg.det(g)) > bound)
        if bad.any():
            first = np.unravel_index(np.argmax(bad), bad.shape)
            where = "" if self.is_constant else f" at x={x[first].tolist()}"
            raise DegenerateMetric(
                f"metric is {'not symmetric' if asymmetric[first] else 'degenerate'}{where}")
        return g

    def gradient(self, x) -> np.ndarray:
        """d g_ab / d x^c as an array G[..., c, a, b].

        Analytic when the metric has a gradient, else central differences of
        the metric with the relative step FD_STEP * max(1, |x_c|) per point.
        """
        x = np.asarray(x, dtype=float)
        if self.is_constant:
            return np.zeros(x.shape + (self.dim, self.dim))
        if self._grad is not None:
            return evaluated(self._grad, x, x.shape[-1:] + (self.dim, self.dim), "metric gradient")
        dg = central_difference(self, x, FD_STEP * np.maximum(1.0, np.abs(x)))
        return np.ascontiguousarray(np.moveaxis(dg, -1, -3))

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"


def central_difference(fn, x, step) -> np.ndarray:
    """Central differences of fn at x of shape (..., N), the derivative axis last.

    step holds the absolute steps h_c, one per axis (shape (N,)) or one per
    axis of each point (x's shape); column c is
    (fn(x + h_c e_c) - fn(x - h_c e_c)) / (2 h_c), so the result has the
    shape of fn(x) followed by (N,). fn receives the whole batch at once.
    """
    x = np.asarray(x, dtype=float)
    step = np.asarray(step, dtype=float)
    if step.shape not in (x.shape[-1:], x.shape):
        raise DimensionMismatch(f"need one step per axis of x {x.shape}, got {step.shape}")
    out = None
    for c in range(x.shape[-1]):
        h = step[..., c]
        xp = x.copy()
        xm = x.copy()
        xp[..., c] += h
        xm[..., c] -= h
        diff = fn(xp) - fn(xm)
        if h.ndim:  # one step per point: line it up with the batch axes of fn's value
            h = h.reshape(h.shape + (1,) * (diff.ndim - h.ndim))
        col = diff / (2.0 * h)
        if out is None:
            out = np.empty(np.shape(col) + x.shape[-1:])
        out[..., c] = col
    return out


def constant_metric(matrix) -> MetricField:
    g = np.asarray(matrix, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatch("constant metric needs a square matrix")
    return MetricField(dim=g.shape[0], kind="constant", _eval=lambda x, _g=g: _g)


def constant_diagonal_metric(diagonal) -> MetricField:
    return constant_metric(np.diag(np.asarray(diagonal, dtype=float)))


def _ones(dim):
    if dim < 1:
        raise DimensionMismatch(f"metric dimension must be >= 1, got {dim}")
    return np.ones(dim)


def minkowski_metric(dim: int = 4) -> MetricField:
    """diag(1, -1, ..., -1)."""
    d = -_ones(dim)
    d[0] = 1.0
    return constant_diagonal_metric(d)


def euclidean_metric(dim: int) -> MetricField:
    return constant_diagonal_metric(_ones(dim))


def weak_field_metric(dim: int, phi: Callable[[np.ndarray], np.ndarray],
                      phi_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
                      ) -> MetricField:
    """Diagonal family g_00 = 1 + 2*phi(x), g_ii = -1 for a small analytic phi.

    phi maps positions (..., dim) to (...), phi_grad to (..., dim).
    """

    def evaluate(x):
        g = np.full(x.shape[:-1] + (dim, dim), -np.eye(dim))
        g[..., 0, 0] = 1.0 + 2.0 * evaluated(phi, x, (), "phi")
        return g

    grad = None
    if phi_grad is not None:
        def grad(x):
            out = np.zeros(x.shape + (dim, dim))
            out[..., 0, 0] = 2.0 * evaluated(phi_grad, x, (dim,), "phi_grad")
            return out

    return MetricField(dim=dim, kind="diagonal-analytic", _eval=evaluate, _grad=grad)


def metric_from_function(dim: int, fn: Callable[[np.ndarray], np.ndarray],
                         grad: Optional[Callable] = None) -> MetricField:
    return MetricField(dim=dim, kind="user", _eval=fn, _grad=grad)


def _minors(J: np.ndarray) -> np.ndarray:
    """All DxD minors of a batch of N x D matrices: (..., N, D) -> (..., C).

    The minors are the components of the wedge product J_1 ^ ... ^ J_D of the
    columns, built up one column at a time by Laplace expansion along the
    newest column k: the (k+1)x(k+1) minor on rows r_0 < ... < r_k is
    sum_p (-1)^(p+k) J[r_p, k] * (the k x k minor on the other rows). Each
    level is filled in combinations() order, so the C = binom(N, D) columns
    come out in increasing multi-index order. Elementwise products only, so
    the result is exact in exact arithmetic for every 1 <= D <= N.
    """
    if J.ndim == 2:  # a batch of one, so that every term below is an array
        return _minors(J[None])[0]
    dim_m, d = J.shape[-2:]
    level = {(r,): J[..., r, 0] for r in range(dim_m)}
    for k in range(1, d):
        wider = {}
        for rows in itertools.combinations(range(dim_m), k + 1):
            acc = None
            for p, r in enumerate(rows):
                # each term is a fresh array, so the sum accumulates in place
                term = J[..., r, k] * level[rows[:p] + rows[p + 1:]]
                if acc is None:
                    acc = np.negative(term, out=term) if (p + k) % 2 else term
                elif (p + k) % 2:
                    acc -= term
                else:
                    acc += term
            wider[rows] = acc
        level = wider
    return np.stack(list(level.values()), axis=-1)


def _multivector_metric_matrix(g, d: int) -> np.ndarray:
    """The D-th compound of g (..., N, N): the (..., C, C) matrix of its DxD minors.

    Entry (G1, G2) is det g[G1, G2], the minor on rows G1 of the column
    block g[:, G2], so one _minors call over the stacked column blocks fills
    every entry of every matrix of the batch.
    """
    g = np.asarray(g, dtype=float)
    blocks = np.stack([g[..., list(c)] for c in itertools.combinations(range(g.shape[-1]), d)],
                      axis=-3)
    # contiguous: a matrix product with the transposed view is several times slower
    return np.ascontiguousarray(np.swapaxes(_minors(blocks), -1, -2))


def compound_metric(metric: MetricField, d: int) -> MetricField:
    """G(x) = Lambda^D g(x), the metric g induces on D-vectors, at g's positions.

    By Cauchy-Binet w^T G w = det(J^T g J) for w the DxD minors of J. G is
    built once for a constant g, and MetricField's construction checks that
    G again; else G is one batched _minors call over the stacked g(x), which
    is not checked again, since g is. For D = 1, G is g.
    """
    if d == 1:
        return metric
    dim = math.comb(metric.dim, d)
    if metric.is_constant:
        G = _multivector_metric_matrix(metric(np.zeros(metric.position_dim)), d)
        return MetricField(dim=dim, kind="constant", _eval=lambda x, _G=G: _G,
                           position_dim=metric.position_dim)
    return MetricField(dim=dim, kind="compound",
                       _eval=lambda x: _multivector_metric_matrix(metric(x), d),
                       position_dim=metric.position_dim)


# ---------------------------------------------------------------------------
# quadratic form and signature
# ---------------------------------------------------------------------------

def quadratic_form(g, v):
    """Bilinear contraction v.g.v of g (..., N, N) and v (..., N), shape (...).

    A batch under one matrix (g is (N, N) or broadcast, as a constant metric
    returns it) is one matrix product: a per-point matvec costs about 10x more.
    """
    g = np.asarray(g, dtype=float)
    v = np.asarray(v, dtype=float)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {g.shape}")
    if v.shape[-1:] != g.shape[-1:]:
        raise DimensionMismatch(
            f"vector of length {v.shape} does not match metric dim {g.shape[-1]}"
        )
    if v.ndim > 1 and g.ndim <= v.ndim + 1 and not any(g.strides[:-2]):
        # row sums as a product with ones: a numpy sum over the short axis is slower
        return ((v @ g[(0,) * (g.ndim - 2)]) * v) @ np.ones(g.shape[-1])
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
    """Count eigenvalues > tol, < -tol, and within +-tol of a symmetric matrix.

    tol must be finite and >= 0: a negative one counts an eigenvalue in
    (tol, -tol) both as positive and as negative.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DimensionMismatch(f"signature tolerance must be finite and >= 0, got {tol}")
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
    that diagonal frame.
    """

    kind: CausalityKind
    witness: Optional[np.ndarray] = None
    witness_model: Optional[np.ndarray] = None
    spatial_speed_sq: Optional[float] = None
    timelike_norm: Optional[float] = None


def causality_class(sig: SignatureReport) -> CausalityClass:
    """Map a non-degenerate signature to its causality class.

    n_plus = 0: sqrt(g(v,v)) is real only at v = 0, so no motion at all.
    n_plus >= 2: builds a witness velocity with g(w,w) >= 0 and spatial
    speed^2 = 1 + s^2/2 > 1 (s = 1.2), demonstrating unbounded speeds.
    n_plus = 1: speeds are bounded by 1.
    n_plus >= 2 and n_minus = 0 (a Euclidean metric of dim >= 2, say): speed
    is measured along the negative directions and there are none, so no
    witness of the multi-time class exists, and with more than one time
    direction the bounded class does not apply either; NoSpatialDirection.
    """
    if sig.n_zero > 0:
        raise DegenerateMetric(
            f"causality classification needs a non-degenerate metric (n_zero={sig.n_zero})"
        )
    if sig.n_plus == 0:
        return CausalityClass(CausalityKind.NO_TIME_INFEASIBLE)
    if sig.n_plus == 1:
        return CausalityClass(CausalityKind.ONE_TIME_BOUNDED)
    if sig.n_minus == 0:
        raise NoSpatialDirection(
            f"no causality class for signature (n_plus={sig.n_plus}, n_minus=0): "
            "several time directions and no spatial one, so speed is undefined"
        )

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
        spatial_speed_sq=speed_sq,
        timelike_norm=eps,
    )
