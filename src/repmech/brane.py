"""Extended-object embeddings, Jacobian-minor generalized velocities, volumes.

A D-dimensional embedding z -> x(z) has generalized velocity components
w^G = det of the DxD Jacobian submatrix picked by each strictly increasing
multi-index G of target coordinates, C = binom(dimM, D) of them: the
components of the wedge product J_1 ^ ... ^ J_D of the Jacobian columns.
The metric induced on those components is the D-th compound
G(x) = Lambda^D g(x), G_{G1 G2} = det [g_{a_i b_j}], and by Cauchy-Binet

    sum_{G1,G2} G_{G1 G2} w^{G1} w^{G2} = det(J^T g J),

whose square root integrated over the parameter box is the minimal-surface
(world-volume) functional. The brane Lagrangian is the point particle's on
these components: BraneSpec.lagrangian(D) is a LagrangianSpec with metric
G(x) at the dimM target coordinates and velocities the C minors, so
brane_action is one batched eval_L per block of cells, which also yields the
volume radicands. Only varying backgrounds make L depend on x: with every
field constant (a brane that does not alter its background) a cell's density
depends on its Jacobian alone, and the quadrature evaluates no positions.
For D = 1 everything reduces to the point particle: minors are plain
derivatives and G = g.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (DimensionMismatch, GaugeViolation, NegativeRadicand, RepMechError,
                     SpacelikeVelocity)
from .fields import SymmetricTensorField, VectorPotentialField
from .geometry import (FD_STEP, MetricField, _minors, central_difference, compound_metric,
                       evaluated, quadratic_form)
from .lagrangian import LagrangianSpec, eval_L_and_radicand, nonrelativistic_expansion


# cells per block of the quadrature: up to this many, as whole first-axis
# rows while one fits, so that a block's temporaries stay a few MB whatever
# the grid size or shape
BLOCK_CELLS = 2 ** 15
# floats a block costs per cell without position-dependent tensors (about
# 32: a 256^2 surface in 4 target dimensions peaks at 8.8 MB by tracemalloc); a
# position-dependent rank-n tensor adds its dense C^n entries per cell, and
# a block holds at most BLOCK_CELLS * CELL_FLOATS floats
CELL_FLOATS = 32


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

    evaluator maps an (n, D) batch of parameter points to (n, dimM), and an
    analytic jacobian callable to the (n, dimM, D) Jacobians, which give exact
    minors; otherwise central differences with the step
    FD_STEP * max(1, |box bounds of axis a|) are used, one per parameter axis.
    The builders below return each Jacobian batch as the .T view of a filled
    (D, dimM, n) array (the tilted plane broadcasts one matrix), so every
    entry J[:, r, k] that _minors reads is contiguous along the cells.
    The quadrature (brane_action, integral_gauge_check) calls the Jacobian
    once per block of cells (row_blocks), in flat cell order; brane_action
    calls the evaluator once per block only when a background field depends
    on position (central differences call it for their Jacobians).
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

    def points(self, Z) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        return evaluated(self.evaluator, Z, (self.dim_m,), "embedding evaluator")

    def jacobians(self, Z) -> np.ndarray:
        """Batch of (dimM, D) Jacobians dx/dz."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        if self.jacobian is not None:
            return evaluated(self.jacobian, Z, (self.dim_m, self.d), "embedding jacobian")
        step = FD_STEP * np.maximum(1.0, np.max(np.abs(self.box), axis=1))
        return central_difference(self.points, Z, step)

    # -- quadrature grid ----------------------------------------------------
    def center_axes(self) -> Tuple[np.ndarray, ...]:
        """Cell-centre coordinates along each parameter axis."""
        return tuple(np.linspace(lo, hi, r, endpoint=False) + 0.5 * (hi - lo) / r
                     for (lo, hi), r in zip(self.box, self.resolution))

    def row_blocks(self, cell_floats: int = CELL_FLOATS):
        """(first flat cell index, cell centres) of consecutive blocks of cells,
        each at most BLOCK_CELLS * CELL_FLOATS // cell_floats cells, where
        cell_floats is what one cell costs: whole first-axis rows while one
        row fits, else consecutive ranges of the flat cell order."""
        axes = self.center_axes()
        row = self.n_cells // self.resolution[0]
        cells = max(1, BLOCK_CELLS * CELL_FLOATS // cell_floats)
        if row <= cells:
            rows = cells // row
            for i in range(0, self.resolution[0], rows):
                yield i * row, _mesh((axes[0][i:i + rows],) + axes[1:])
            return
        for start in range(0, self.n_cells, cells):
            index = np.unravel_index(np.arange(start, min(start + cells, self.n_cells)),
                                     self.resolution)
            yield start, np.stack([a[i] for a, i in zip(axes, index)], axis=-1)

    @property
    def cell_volume(self) -> float:
        vol = 1.0
        for (lo, hi), r in zip(self.box, self.resolution):
            vol *= (hi - lo) / r
        return vol

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.resolution))


def _mesh(axes) -> np.ndarray:
    # one write pass: stack the broadcast meshgrid views, not raveled copies
    mesh = np.meshgrid(*axes, indexing="ij", copy=False)
    return np.stack(mesh, axis=-1).reshape(-1, len(axes))


@dataclass(frozen=True)
class GeneralizedVelocity:
    """Minor components at a parameter point, indexed like minor_indices()."""

    components: np.ndarray
    indices: Tuple[Tuple[int, ...], ...]

    def __getitem__(self, gamma):
        return self.components[self.indices.index(tuple(gamma))]


def generalized_velocity(emb: BraneEmbedding, z) -> GeneralizedVelocity:
    """All DxD Jacobian minors of the embedding at z, increasing-index order."""
    z = np.asarray(z, dtype=float)
    if z.shape != (emb.d,):
        raise DimensionMismatch(f"parameter point must have length {emb.d}")
    if not emb.contains(z):
        raise DimensionMismatch(f"parameter point {z.tolist()} outside the box")
    J = emb.jacobians(z[None, :])
    return GeneralizedVelocity(components=_minors(J)[0], indices=minor_indices(emb.dim_m, emb.d))


# ---------------------------------------------------------------------------
# brane Lagrangian data and action
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BraneSpec:
    """Backgrounds for the canonical brane Lagrangian

        L(x, w) = q A_G(x) w^G + m sqrt(w^T G(x) w) + sum_n Q_n S_n(x; w, ..., w)^(1/n),

    the particle's Lagrangian on the minors w with G(x) = Lambda^D g(x);
    lagrangian(D) builds it. The potential and the tensors are the
    particle's field types of dimension C, evaluated at target points.
    charge and mass default to 1, the usual normalization of the canonical
    form; with no potential there is no charge term.
    """

    metric: MetricField
    charge: float = 1.0
    mass: float = 1.0
    potential: Optional[VectorPotentialField] = None
    extra_terms: Tuple[Tuple[float, SymmetricTensorField], ...] = ()

    def lagrangian(self, d: int) -> LagrangianSpec:
        """The LagrangianSpec of a D-brane: velocities of C components, positions of dimM."""
        return LagrangianSpec(metric=compound_metric(self.metric, d), mass=self.mass,
                              charge=self.charge if self.potential is not None else 0.0,
                              potential=self.potential, extra_terms=self.extra_terms)


def brane_action(spec: BraneSpec, emb: BraneEmbedding, details: bool = False):
    """Midpoint-rule quadrature of the brane Lagrangian over the parameter box.

    One batched eval_L_and_radicand of spec.lagrangian(D) per block of cells
    (emb.row_blocks), each block's densities written into one array of one
    float per cell, then summed at once: the same sum, bit for bit, as a
    single batch. The embedding's evaluator is called only when a field
    depends on position: with every field constant L reads no position, and
    each block gets the origin as a read-only zero-stride view over its cells.
    Memory: one float per cell, plus one block of temporaries; a
    position-dependent tensor builds its dense C^n entries per cell, so it
    shrinks the blocks by that many floats per cell.
    With a mass term, a negative volume radicand w^T G w = det(J^T g J)
    fails eval_L's check, raised as NegativeRadicand carrying the first such
    cell; any other eval_L error names its cell's flat index in the grid. An
    action past the float range is a DimensionMismatch naming the first cell
    whose density is not finite, and so, with details, is a smallest radicand
    past it; neither prints a numpy warning.
    details=True also returns the cell and component counts, the smallest
    radicand (the one eval_L took the root of, when there is a mass term)
    and the integral-gauge deviation (integral_gauge_check).
    """
    if spec.metric.dim != emb.dim_m:
        raise DimensionMismatch("brane metric dimension differs from target dimension")
    lag = spec.lagrangian(emb.d)
    c = component_count(emb.dim_m, emb.d)
    cell_floats = CELL_FLOATS + sum(c ** s.rank for _, s in spec.extra_terms if not s.is_constant)
    # L reads no position when every field is constant: the origin then stands in for each cell
    origin = np.zeros(emb.dim_m) if lag.all_fields_constant else None
    density = np.empty(emb.n_cells)
    block_mins, block_deviations = [], []
    for start, Z in emb.row_blocks(cell_floats):
        X = emb.points(Z) if origin is None else np.broadcast_to(origin, (len(Z), emb.dim_m))
        omega = _minors(emb.jacobians(Z))
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, if not finite
            try:
                density[start:start + len(Z)], radicand = eval_L_and_radicand(lag, X, omega)
            except RepMechError as err:
                raise _on_grid(err, start, emb) from None
            if details:
                if radicand is None:  # no mass term, so eval_L formed no radicand
                    radicand = quadratic_form(lag.metric(X), omega)
                block_mins.append(np.min(radicand))
                block_deviations.append(_gauge_deviation(omega))
    with np.errstate(over="ignore", invalid="ignore"):
        action = float(np.sum(density) * emb.cell_volume)
    if not math.isfinite(action):
        bad = np.flatnonzero(~np.isfinite(density))
        raise DimensionMismatch(f"cell {bad[0]}: the density overflows to {density[bad[0]]}"
                                if bad.size else f"the action overflows to {action}")
    if not details:
        return action
    min_radicand = float(np.min(block_mins))
    if not math.isfinite(min_radicand):
        raise DimensionMismatch(f"the smallest volume radicand overflows to {min_radicand}")
    return action, {
        "cells": emb.n_cells,
        "component_count": c,
        "min_radicand": min_radicand,
        "gauge_deviation": float(np.max(block_deviations)),
    }


def _on_grid(err: RepMechError, start: int, emb: BraneEmbedding) -> RepMechError:
    """A block's eval_L error with its batch index moved to the whole grid.

    A SpacelikeVelocity becomes NegativeRadicand carrying the cell.
    """
    index = err.batch_index
    if index is not None:
        moved = (start + index[0],)
        err = type(err)(str(err).replace(f"(batch index {index})", f"(batch index {moved})"))
        err.batch_index = index = moved
    if not isinstance(err, SpacelikeVelocity):
        return err
    cell = index and tuple(map(int, np.unravel_index(index[0], emb.resolution)))
    return NegativeRadicand(f"volume radicand < 0 at cell {cell}: {err}", cell=cell)


def _gauge_deviation(omega: np.ndarray) -> float:
    # column 0 of the minors is the internal minor w^(0..D-1)
    return float(np.max(np.abs(omega[:, 0] - 1.0)))


def integral_gauge_check(emb: BraneEmbedding) -> float:
    """Deviation of the internal minor w^(0..D-1) from 1, maximized over cell centers.

    Reads the first minor (rows 0..D-1) of the Jacobian at each cell centre,
    one block of cells at a time (emb.row_blocks).
    Zero exactly when the first D target coordinates restrict to a
    unit-Jacobian chart of the parameters (integral sub-manifold gauge).
    """
    return float(np.max([_gauge_deviation(_minors(emb.jacobians(Z)))
                         for _, Z in emb.row_blocks()]))


def nonrelativistic_brane_expansion(spec: BraneSpec, emb: BraneEmbedding,
                                    cell: Tuple[int, ...]):
    """Exact cell integrand vs its small-slope quadratic model.

    nonrelativistic_expansion of spec.lagrangian(D) at the cell centre, the
    minors after the internal one being the spatial velocity. Requires the
    integral gauge (internal minor = 1) and a one-time diagonal G. A negative
    radicand with a mass term raises NegativeRadicand carrying the cell.
    """
    cell = tuple(int(c) for c in cell)
    if len(cell) != emb.d:
        raise DimensionMismatch(f"cell index must have {emb.d} entries")
    if any(not 0 <= c < r for c, r in zip(cell, emb.resolution)):
        raise DimensionMismatch(f"cell {cell} outside the grid {emb.resolution}")
    z = np.array([axis[c] for axis, c in zip(emb.center_axes(), cell)])
    x = emb.points(z[None, :])[0]
    w = generalized_velocity(emb, z).components
    if abs(w[0] - 1.0) > 1e-8:
        raise GaugeViolation(f"internal minor {w[0]} != 1; not in the integral gauge")
    try:
        return nonrelativistic_expansion(spec.lagrangian(emb.d), x, w[1:])
    except SpacelikeVelocity as err:
        raise NegativeRadicand(f"volume radicand < 0 at cell {cell}: {err}", cell=cell) from None


# ---------------------------------------------------------------------------
# embedding builders
# ---------------------------------------------------------------------------

def tilted_plane_embedding(slope: float, box=((0.0, 1.0), (0.0, 1.0)),
                           resolution=(128, 128)) -> BraneEmbedding:
    """x(z1, z2) = (z1, z2, slope * z1): a graph plane in a 3-dim target."""
    a = float(slope)
    J = np.array([[1.0, 0.0], [0.0, 1.0], [a, 0.0]])
    J.setflags(write=False)

    def evaluate(Z):
        return np.column_stack([Z[:, 0], Z[:, 1], a * Z[:, 0]])

    def jac(Z):
        # the Jacobian is constant: one read-only matrix broadcast over the batch
        return np.broadcast_to(J, (Z.shape[0], 3, 2))

    return BraneEmbedding(d=2, dim_m=3, box=np.asarray(box), resolution=resolution,
                          evaluator=evaluate, jacobian=jac)


def graph_embedding(f, grad=None, box=((0.0, 1.0), (0.0, 1.0)),
                    resolution=(64, 64)) -> BraneEmbedding:
    """x = (z, f(z)) over a D-box: height-function surface in D+1 target dims.

    f maps an (n, D) batch of parameter points to its n heights; grad, when
    given, maps it to the (n, D) gradients df/dz.
    """
    box = np.asarray(box, dtype=float)
    d = box.shape[0]

    def evaluate(Z):
        return np.column_stack([Z, f(Z)])

    jac = None
    if grad is not None:
        def jac(Z):
            J = np.zeros((d, d + 1, Z.shape[0]))
            for a in range(d):
                J[a, a] = 1.0
            J[:, d] = grad(Z).T
            return J.T

    return BraneEmbedding(d=d, dim_m=d + 1, box=box, resolution=resolution,
                          evaluator=evaluate, jacobian=jac)


def cylinder_patch_embedding(radius: float, box=((0.0, 1.0), (0.0, math.pi)),
                             resolution=(64, 64)) -> BraneEmbedding:
    """x(z1, z2) = (z1, R cos z2, R sin z2): a cylindrical patch in 3 target dims."""
    r = float(radius)

    def evaluate(Z):
        return np.column_stack([Z[:, 0], r * np.cos(Z[:, 1]), r * np.sin(Z[:, 1])])

    def jac(Z):
        J = np.zeros((2, 3, Z.shape[0]))
        J[0, 0] = 1.0
        J[1, 1] = -r * np.sin(Z[:, 1])
        J[1, 2] = r * np.cos(Z[:, 1])
        return J.T

    return BraneEmbedding(d=2, dim_m=3, box=np.asarray(box), resolution=resolution,
                          evaluator=evaluate, jacobian=jac)


def _evenly_spaced(a: np.ndarray) -> bool:
    """Every node spacing equals the mean to a relative 1e-9, plus node-value rounding."""
    step = (a[-1] - a[0]) / (a.size - 1)
    slack = 1e-9 * step + 8.0 * np.finfo(float).eps * float(np.max(np.abs(a)))
    return bool(np.all(np.abs(np.diff(a) - step) <= slack))


def gridded_embedding(axes: Sequence[np.ndarray], values: np.ndarray) -> BraneEmbedding:
    """Embedding from sampled values on a regular node grid (multilinear interpolation).

    axes are D strictly increasing, evenly spaced node-coordinate arrays;
    values has shape (n1, ..., nD, dimM). A point z lies in the cell
    i = clip(floor(t), 0, n - 2) of each axis, t = (z - a_0) / h, and its
    value interpolates the cell's 2^D corner nodes multilinearly in the
    fractions f = t - i; outside the box the edge cell extrapolates linearly.
    The Jacobian is the exact derivative of the same interpolant inside the
    point's cell: (v_1 - v_0) / h along each axis, interpolated in the
    others. At cell centres that is the central difference across the cell;
    on a cell face it is the derivative of the cell floor() picks, not an
    average over the cells that meet there. The effective resolution is the
    node count minus one. Unevenly spaced axes raise DimensionMismatch,
    because the uniform quadrature cells would not line up with the data
    cells; the spacing check is relative, so linspace nodes read back from
    text pass. An axis of one node raises DimensionMismatch too.

    The interpolation gathers from one C-contiguous (dimM, n1, ..., nD)
    array. When values is np.moveaxis(nodes, 0, -1) of such an array, it is
    taken without a copy; any other layout is copied into it once.
    """
    axes = [np.asarray(a, dtype=float) for a in axes]
    values = np.asarray(values, dtype=float)
    d = len(axes)
    if d == 0:
        raise DimensionMismatch("need at least one axis")
    if values.ndim != d + 1:
        raise DimensionMismatch("values must have shape (nodes..., dimM)")
    for a, n in zip(axes, values.shape[:d]):
        if n < 2:
            raise DimensionMismatch(f"need at least 2 nodes per axis, got {n}")
        if a.ndim != 1 or a.size != n or np.any(np.diff(a) <= 0):
            raise DimensionMismatch("axes must be strictly increasing and match values")
        if not _evenly_spaced(a):
            raise DimensionMismatch(
                f"axis nodes must be evenly spaced: spacings range from "
                f"{np.min(np.diff(a)):.6g} to {np.max(np.diff(a)):.6g}"
            )
    dim_m = values.shape[-1]
    # one contiguous row of node values per target coordinate: every gather
    # and interpolation step below then runs along the long point axis
    nodes = np.ascontiguousarray(np.moveaxis(values, -1, 0).reshape(dim_m, -1))
    box = np.array([[a[0], a[-1]] for a in axes])
    counts = np.array(values.shape[:d])
    h = (box[:, 1] - box[:, 0]) / (counts - 1)
    strides = np.array([int(np.prod(counts[a + 1:])) for a in range(d)])
    # flat offsets of the 2^D cell corners, axis 0 slowest
    corner_offsets = np.array(list(itertools.product((0, 1), repeat=d))) @ strides

    def cell_corners(Z):
        """Corner values (2, ..., 2, dimM, n) of each point's cell, and its fractions (D, n)."""
        t = (Z.T - box[:, :1]) / h[:, None]
        i = np.clip(np.floor(t), 0, counts[:, None] - 2)
        v = np.take(nodes, strides @ i.astype(np.intp) + corner_offsets[:, None], axis=1)
        return np.moveaxis(v.reshape((dim_m,) + (2,) * d + (-1,)), 0, d), t - i

    def lerp(v, f):
        """Contract the first corner axis of v at the fractions f (n,)."""
        return v[0] + f * (v[1] - v[0])

    def evaluate(Z):
        v, f = cell_corners(Z)
        for a in range(d):
            v = lerp(v, f[a])
        return v.T

    def jac(Z):
        v, f = cell_corners(Z)
        columns = []
        for a in range(d):
            u = np.moveaxis(v, a, d - 1)  # axis a becomes the last corner axis
            for b in range(d):
                if b != a:
                    u = lerp(u, f[b])
            columns.append((u[1] - u[0]) / h[a])
        return np.stack(columns).T

    return BraneEmbedding(d=d, dim_m=dim_m, box=box, resolution=tuple(counts - 1),
                          evaluator=evaluate, jacobian=jac)
