"""Extended-object embeddings, Jacobian-minor generalized velocities, volumes.

A D-dimensional embedding z -> x(z) has generalized velocity components
w^G = det of the DxD Jacobian submatrix picked by each strictly increasing
multi-index G of target coordinates, C(dimM, D) of them: the components of
the wedge product J_1 ^ ... ^ J_D of the Jacobian columns. The induced metric
on those components is the Gram determinant g_{G1 G2} = det [g_{a_i b_j}],
and by Cauchy-Binet

    sum_{G1,G2} g_{G1 G2} w^{G1} w^{G2} = det(J^T g J),

whose square root integrated over the parameter box is the minimal-surface
(world-volume) functional. For a constant metric the radicand is evaluated
as the left-hand side, w^T G w with the C x C matrix G built once; a
position-dependent metric takes det(J^T g(x) J) per cell. For D = 1
everything reduces to the point particle: minors are plain derivatives and
the Gram sum is g(v, v).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .errors import DimensionMismatch, GaugeViolation, NegativeRadicand, NotOneTimeMetric
from .fields import SymmetricTensorField
from .geometry import FD_STEP, MetricField, central_difference
from .lagrangian import signed_root


def component_count(dim_m: int, d: int) -> int:
    """binomial(dimM, D) generalized-velocity components."""
    if not 1 <= d <= dim_m:
        raise DimensionMismatch(f"need 1 <= D <= dimM, got D={d}, dimM={dim_m}")
    return math.comb(dim_m, d)


def minor_indices(dim_m: int, d: int) -> Tuple[Tuple[int, ...], ...]:
    """Strictly increasing multi-indices in lexicographic order."""
    component_count(dim_m, d)
    return tuple(itertools.combinations(range(dim_m), d))


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BraneEmbedding:
    """Map from a D-dimensional parameter box into an M-dimensional target.

    evaluator takes a (D,) point; it may also accept an (n, D) batch. An
    analytic jacobian callable gives exact minors; otherwise central
    differences with the step FD_STEP * max(1, |box bounds of axis a|) are
    used, one per parameter axis.
    """

    d: int
    dim_m: int
    box: np.ndarray          # (D, 2) parameter intervals
    resolution: Tuple[int, ...]
    evaluator: Callable
    jacobian: Optional[Callable] = None

    def __post_init__(self):
        box = np.asarray(self.box, dtype=float)
        if box.shape != (self.d, 2) or np.any(box[:, 1] <= box[:, 0]):
            raise DimensionMismatch("parameter box must be D non-empty intervals")
        res = tuple(int(r) for r in self.resolution)
        if len(res) != self.d or any(r < 2 for r in res):
            raise DimensionMismatch("grid needs at least 2 cells per axis")
        if not 1 <= self.d <= self.dim_m:
            raise DimensionMismatch(f"need 1 <= D <= dimM, got D={self.d}, dimM={self.dim_m}")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "resolution", res)

    def contains(self, z) -> bool:
        z = np.asarray(z, dtype=float)
        return bool(np.all(z >= self.box[:, 0] - 1e-12) and np.all(z <= self.box[:, 1] + 1e-12))

    # -- batched evaluation with pointwise fallback ------------------------
    def points(self, Z) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        try:
            out = np.asarray(self.evaluator(Z), dtype=float)
            if out.shape == (Z.shape[0], self.dim_m):
                return out
        except Exception:
            pass
        return np.stack([np.asarray(self.evaluator(z), dtype=float) for z in Z])

    def jacobians(self, Z) -> np.ndarray:
        """Batch of (dimM, D) Jacobians dx/dz."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        if self.jacobian is not None:
            try:
                out = np.asarray(self.jacobian(Z), dtype=float)
                if out.shape == (Z.shape[0], self.dim_m, self.d):
                    return out
            except Exception:
                pass
            return np.stack([np.asarray(self.jacobian(z), dtype=float) for z in Z])
        step = FD_STEP * np.maximum(1.0, np.max(np.abs(self.box), axis=1))
        return central_difference(self.points, Z, step)

    # -- quadrature grid ----------------------------------------------------
    def cell_centers(self) -> np.ndarray:
        axes = [np.linspace(lo, hi, r, endpoint=False) + 0.5 * (hi - lo) / r
                for (lo, hi), r in zip(self.box, self.resolution)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @property
    def cell_volume(self) -> float:
        vol = 1.0
        for (lo, hi), r in zip(self.box, self.resolution):
            vol *= (hi - lo) / r
        return vol

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.resolution))


@dataclass(frozen=True)
class GeneralizedVelocity:
    """Minor components at a parameter point, indexed like minor_indices()."""

    components: np.ndarray
    z: np.ndarray
    indices: Tuple[Tuple[int, ...], ...]

    def __getitem__(self, gamma):
        return self.components[self.indices.index(tuple(gamma))]


def _minors(J: np.ndarray) -> np.ndarray:
    """All DxD minors of a batch of Jacobians: (n, dimM, D) -> (n, C).

    The minors are the components of the wedge product J_1 ^ ... ^ J_D of the
    Jacobian columns, built up one column at a time by Laplace expansion
    along the newest column k: the (k+1)x(k+1) minor on rows r_0 < ... < r_k
    is sum_p (-1)^(p+k) J[r_p, k] * (the k x k minor on the other rows).
    Each level is filled in combinations() order, so the columns come out in
    minor_indices() order. Elementwise products only, so the result is exact
    in exact arithmetic for every 1 <= D <= dimM.
    """
    _, dim_m, d = J.shape
    level = {(r,): J[:, r, 0] for r in range(dim_m)}
    for k in range(1, d):
        wider = {}
        for rows in itertools.combinations(range(dim_m), k + 1):
            acc = 0.0
            for p, r in enumerate(rows):
                term = J[:, r, k] * level[rows[:p] + rows[p + 1:]]
                acc = acc - term if (p + k) % 2 else acc + term
            wider[rows] = acc
        level = wider
    return np.stack(list(level.values()), axis=-1)


def generalized_velocity(emb: BraneEmbedding, z) -> GeneralizedVelocity:
    """All DxD Jacobian minors of the embedding at z, increasing-index order."""
    z = np.asarray(z, dtype=float)
    if z.shape != (emb.d,):
        raise DimensionMismatch(f"parameter point must have length {emb.d}")
    if not emb.contains(z):
        raise DimensionMismatch(f"parameter point {z.tolist()} outside the box")
    J = emb.jacobians(z[None, :])
    return GeneralizedVelocity(components=_minors(J)[0], z=z,
                               indices=minor_indices(emb.dim_m, emb.d))


def multivector_metric(g, gamma1, gamma2) -> float:
    """Gram construction: det of the DxD block g[a_i, b_j] of the target metric."""
    g = np.asarray(g, dtype=float)
    g1 = tuple(gamma1)
    g2 = tuple(gamma2)
    if len(g1) != len(g2):
        raise DimensionMismatch("multi-indices must have equal length")
    if list(g1) != sorted(set(g1)) or list(g2) != sorted(set(g2)):
        raise DimensionMismatch("multi-indices must be strictly increasing")
    return float(np.linalg.det(g[np.ix_(g1, g2)]))


def _multivector_metric_matrix(g, d: int) -> np.ndarray:
    """C x C matrix of multivector_metric over minor_indices(dimM, D).

    Entry (G1, G2) is the minor on rows G1 of the column block g[:, G2], so
    each column of the matrix is one row of the minors kernel's output.
    """
    g = np.asarray(g, dtype=float)
    blocks = np.stack([g[:, list(c)] for c in minor_indices(g.shape[0], d)])
    return _minors(blocks).T


# ---------------------------------------------------------------------------
# brane Lagrangian data and action
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranePotential:
    """Covector field over the target space valued on minor components A_G(x)."""

    dim_m: int
    n_components: int
    kind: str
    _eval: Callable

    def __call__(self, x) -> np.ndarray:
        a = np.asarray(self._eval(np.asarray(x, dtype=float)), dtype=float)
        if a.shape != (self.n_components,):
            raise DimensionMismatch(f"brane potential returned shape {a.shape}")
        return a


def zero_brane_potential(dim_m: int, n_components: int) -> BranePotential:
    z = np.zeros(n_components)
    return BranePotential(dim_m, n_components, "zero", lambda x: z)


def constant_brane_potential(dim_m: int, values) -> BranePotential:
    a = np.asarray(values, dtype=float).copy()
    a.setflags(write=False)
    return BranePotential(dim_m, a.size, "constant", lambda x: a)


def brane_potential_from_function(dim_m: int, n_components: int, fn) -> BranePotential:
    return BranePotential(dim_m, n_components, "user", fn)


@dataclass(frozen=True)
class BraneSpec:
    """Backgrounds for the canonical brane Lagrangian.

    charge/mass/couplings default to 1, the normalization in which the
    canonical form is usually written; setting them explicitly makes a D = 1
    brane reproduce the point-particle spec exactly.
    """

    metric: MetricField
    charge: float = 1.0
    mass: float = 1.0
    potential: Optional[BranePotential] = None
    extra_terms: Tuple[Tuple[float, SymmetricTensorField], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "extra_terms",
                           tuple((float(q), s) for q, s in self.extra_terms))


def brane_action(spec: BraneSpec, emb: BraneEmbedding, details: bool = False):
    """Midpoint-rule quadrature of the brane Lagrangian density over the box.

    Density per cell: q A_G w^G + m sqrt(det(J^T g J)) + sum Q_n S_n(w..w)^(1/n).
    For a constant metric the volume radicand is evaluated as w^T G w, which
    equals det(J^T g J) by Cauchy-Binet; otherwise det(J^T g(x) J) per cell.
    A negative volume radicand raises NegativeRadicand carrying the cell index.
    details=True also returns the cell count, the component count, the
    smallest radicand and the integral-gauge deviation (see
    integral_gauge_check), all from the one Jacobian pass.
    """
    combos = minor_indices(emb.dim_m, emb.d)
    n_comp = len(combos)
    if spec.metric.dim != emb.dim_m:
        raise DimensionMismatch("brane metric dimension differs from target dimension")
    if spec.potential is not None and spec.potential.n_components != n_comp:
        raise DimensionMismatch("brane potential has wrong number of minor components")
    for _, s in spec.extra_terms:
        if s.dim != n_comp:
            raise DimensionMismatch("brane tensor term must act on minor components")

    Z = emb.cell_centers()
    X = emb.points(Z)
    J = emb.jacobians(Z)
    omega = _minors(J)

    if spec.metric.is_constant:
        G = _multivector_metric_matrix(spec.metric(X[0]), emb.d)
        # row sums as a product with ones: a numpy sum over the short axis is slower
        radicand = ((omega @ G) * omega) @ np.ones(n_comp)
    else:
        gram = np.stack([Jk.T @ spec.metric(xk) @ Jk for Jk, xk in zip(J, X)])
        radicand = np.linalg.det(gram) if emb.d > 1 else gram[:, 0, 0]
    bad = np.flatnonzero(radicand < 0.0)
    if bad.size and spec.mass != 0.0:
        cell = np.unravel_index(bad[0], emb.resolution)
        raise NegativeRadicand(
            f"volume radicand {radicand[bad[0]]:.6e} < 0 at cell {tuple(int(c) for c in cell)}",
            cell=tuple(int(c) for c in cell),
        )

    density = np.zeros(emb.n_cells)
    if spec.mass != 0.0:
        density += spec.mass * np.sqrt(radicand)
    if spec.potential is not None and spec.charge != 0.0:
        if spec.potential.kind in ("zero", "constant"):
            a = spec.potential(X[0])
            density += spec.charge * (omega @ a)
        else:
            density += spec.charge * np.array(
                [float(spec.potential(xk) @ wk) for xk, wk in zip(X, omega)]
            )
    for q_n, tensor in spec.extra_terms:
        density += q_n * np.array(
            [signed_root(tensor.contraction(xk, wk), tensor.rank)
             for xk, wk in zip(X, omega)]
        )

    action = float(np.sum(density) * emb.cell_volume)
    if not details:
        return action
    return action, {
        "cells": emb.n_cells,
        "component_count": n_comp,
        "min_radicand": float(np.min(radicand)),
        "gauge_deviation": _gauge_deviation(omega),
    }


def _gauge_deviation(omega: np.ndarray) -> float:
    # column 0 of the minors is the internal minor w^(0..D-1)
    return float(np.max(np.abs(omega[:, 0] - 1.0)))


def integral_gauge_check(emb: BraneEmbedding) -> float:
    """Deviation of the internal minor w^(0..D-1) from 1, maximized over cell centers.

    Reads the first minor (rows 0..D-1) of the Jacobian at each cell centre.
    Zero exactly when the first D target coordinates restrict to a
    unit-Jacobian chart of the parameters (integral sub-manifold gauge).
    """
    return _gauge_deviation(_minors(emb.jacobians(emb.cell_centers())))


def nonrelativistic_brane_expansion(spec: BraneSpec, emb: BraneEmbedding,
                                    cell: Tuple[int, ...]):
    """Exact cell integrand vs its small-slope quadratic model.

    Requires the integral gauge (internal minor = 1 at the cell) and a
    one-time multivector metric: diagonal with G_00 = 1 and the remaining
    diagonal entries negative.
    """
    cell = tuple(int(c) for c in cell)
    if len(cell) != emb.d:
        raise DimensionMismatch(f"cell index must have {emb.d} entries")
    if any(not 0 <= c < r for c, r in zip(cell, emb.resolution)):
        raise DimensionMismatch(f"cell {cell} outside the grid {emb.resolution}")
    # the same arithmetic as cell_centers(), for this one cell
    step = (emb.box[:, 1] - emb.box[:, 0]) / np.asarray(emb.resolution)
    z = emb.box[:, 0] + np.asarray(cell) * step + 0.5 * step
    x = emb.points(z[None, :])[0]
    w = generalized_velocity(emb, z).components
    if abs(w[0] - 1.0) > 1e-8:
        raise GaugeViolation(f"internal minor {w[0]} != 1; not in the integral gauge")

    n_comp = w.size
    G = _multivector_metric_matrix(spec.metric(x), emb.d)
    off = G - np.diag(np.diag(G))
    d = np.diag(G)
    if np.max(np.abs(off)) > 1e-10 or abs(d[0] - 1.0) > 1e-10 or np.any(d[1:] >= 0.0):
        raise NotOneTimeMetric("multivector metric is not one-time diagonal in this chart")

    a = spec.potential(x) if spec.potential is not None else np.zeros(n_comp)
    exact = spec.charge * float(a @ w) + spec.mass * math.sqrt(float(w @ G @ w))
    for q_n, tensor in spec.extra_terms:
        exact += q_n * signed_root(tensor.contraction(x, w), tensor.rank)
    ws = w[1:]
    quadratic = (spec.charge * (a[0] + float(a[1:] @ ws))
                 + spec.mass * (1.0 - 0.5 * float(np.abs(d[1:]) @ (ws * ws))))
    return exact, quadratic


# ---------------------------------------------------------------------------
# embedding builders
# ---------------------------------------------------------------------------

def tilted_plane_embedding(slope: float, box=((0.0, 1.0), (0.0, 1.0)),
                           resolution=(128, 128)) -> BraneEmbedding:
    """x(z1, z2) = (z1, z2, slope * z1): a graph plane in a 3-dim target."""
    a = float(slope)

    def evaluate(Z):
        Z = np.atleast_2d(Z)
        return np.column_stack([Z[:, 0], Z[:, 1], a * Z[:, 0]])

    def jac(Z):
        Z = np.atleast_2d(Z)
        J = np.zeros((Z.shape[0], 3, 2))
        J[:, 0, 0] = 1.0
        J[:, 1, 1] = 1.0
        J[:, 2, 0] = a
        return J

    return BraneEmbedding(d=2, dim_m=3, box=np.asarray(box), resolution=resolution,
                          evaluator=evaluate, jacobian=jac)


def graph_embedding(f, grad=None, box=((0.0, 1.0), (0.0, 1.0)),
                    resolution=(64, 64)) -> BraneEmbedding:
    """x = (z, f(z)) over a D-box: height-function surface in D+1 target dims.

    f maps (D,) -> float and may also accept (n, D) batches; grad, when
    given, returns df/dz with matching batching.
    """
    box = np.asarray(box, dtype=float)
    d = box.shape[0]

    def evaluate(Z):
        Z = np.atleast_2d(Z)
        vals = np.asarray(f(Z), dtype=float).reshape(Z.shape[0])
        return np.column_stack([Z, vals])

    jac = None
    if grad is not None:
        def jac(Z):
            Z = np.atleast_2d(Z)
            J = np.zeros((Z.shape[0], d + 1, d))
            for a in range(d):
                J[:, a, a] = 1.0
            J[:, d, :] = np.asarray(grad(Z), dtype=float).reshape(Z.shape[0], d)
            return J

    return BraneEmbedding(d=d, dim_m=d + 1, box=box, resolution=resolution,
                          evaluator=evaluate, jacobian=jac)


def cylinder_patch_embedding(radius: float, box=((0.0, 1.0), (0.0, math.pi)),
                             resolution=(64, 64)) -> BraneEmbedding:
    """x(z1, z2) = (z1, R cos z2, R sin z2): a cylindrical patch in 3 target dims."""
    r = float(radius)

    def evaluate(Z):
        Z = np.atleast_2d(Z)
        return np.column_stack([Z[:, 0], r * np.cos(Z[:, 1]), r * np.sin(Z[:, 1])])

    def jac(Z):
        Z = np.atleast_2d(Z)
        J = np.zeros((Z.shape[0], 3, 2))
        J[:, 0, 0] = 1.0
        J[:, 1, 1] = -r * np.sin(Z[:, 1])
        J[:, 2, 1] = r * np.cos(Z[:, 1])
        return J

    return BraneEmbedding(d=2, dim_m=3, box=np.asarray(box), resolution=resolution,
                          evaluator=evaluate, jacobian=jac)


def curve_embedding(fn, jacobian=None, box=(0.0, 1.0), resolution=256,
                    dim_m: int = 4) -> BraneEmbedding:
    """D = 1 embedding (a world line) from a curve z -> x(z)."""
    return BraneEmbedding(d=1, dim_m=dim_m, box=np.asarray([box]),
                          resolution=(int(resolution),), evaluator=fn,
                          jacobian=jacobian)


def _evenly_spaced(a: np.ndarray) -> bool:
    """Every node spacing equals the mean to a relative 1e-9, plus node-value rounding."""
    if a.size < 3:
        return True
    step = (a[-1] - a[0]) / (a.size - 1)
    slack = 1e-9 * step + 8.0 * np.finfo(float).eps * float(np.max(np.abs(a)))
    return bool(np.all(np.abs(np.diff(a) - step) <= slack))


def gridded_embedding(axes: Sequence[np.ndarray], values: np.ndarray) -> BraneEmbedding:
    """Embedding from sampled values on a regular node grid (linear interpolation).

    axes are D strictly increasing, evenly spaced node-coordinate arrays;
    values has shape (n1, ..., nD, dimM). Minors come from central
    differences of the interpolant, so the effective resolution is the node
    count minus one. Unevenly spaced axes raise DimensionMismatch, because
    the uniform quadrature cells would not line up with the data cells; the
    spacing check is relative, so linspace nodes read back from text pass.
    """
    axes = [np.asarray(a, dtype=float) for a in axes]
    values = np.asarray(values, dtype=float)
    d = len(axes)
    if values.ndim != d + 1:
        raise DimensionMismatch("values must have shape (nodes..., dimM)")
    for a, n in zip(axes, values.shape[:d]):
        if a.ndim != 1 or a.size != n or np.any(np.diff(a) <= 0):
            raise DimensionMismatch("axes must be strictly increasing and match values")
        if not _evenly_spaced(a):
            raise DimensionMismatch(
                f"axis nodes must be evenly spaced: spacings range from "
                f"{np.min(np.diff(a)):.6g} to {np.max(np.diff(a)):.6g}"
            )
    dim_m = values.shape[-1]
    interp = RegularGridInterpolator(tuple(axes), values, method="linear",
                                     bounds_error=False, fill_value=None)
    box = np.array([[a[0], a[-1]] for a in axes])
    resolution = tuple(a.size - 1 for a in axes)
    steps = np.array([0.5 * float(np.min(np.diff(a))) for a in axes])

    def evaluate(Z):
        return interp(np.atleast_2d(Z))

    def jac(Z):
        # absolute half-spacing steps keep the stencil inside the data grid
        # when evaluated at cell centers
        return central_difference(interp, np.atleast_2d(Z), steps)

    return BraneEmbedding(d=d, dim_m=dim_m, box=box, resolution=resolution,
                          evaluator=evaluate, jacobian=jac)


def reparameterized(emb: BraneEmbedding, psi, psi_jacobian=None) -> BraneEmbedding:
    """Compose an embedding with a parameter diffeomorphism z' -> psi(z') of its box."""

    def evaluate(Z):
        return emb.points(np.atleast_2d(np.asarray(psi(np.atleast_2d(Z)), dtype=float)))

    jac = None
    if psi_jacobian is not None and emb.jacobian is not None:
        def jac(Z):
            Z = np.atleast_2d(Z)
            W = np.atleast_2d(np.asarray(psi(Z), dtype=float))
            Jx = emb.jacobians(W)
            Jp = np.asarray(psi_jacobian(Z), dtype=float).reshape(Z.shape[0], emb.d, emb.d)
            return np.einsum("nab,nbc->nac", Jx, Jp)

    return BraneEmbedding(d=emb.d, dim_m=emb.dim_m, box=emb.box,
                          resolution=emb.resolution, evaluator=evaluate, jacobian=jac)
