"""Independent numerical oracles shared by the test modules.

Everything here is derived from first principles (closed forms, dense
enumeration, plain finite differences, generic quadrature) without touching
the code paths under test.
"""

import itertools
import math

import numpy as np


class CyclotronOracle:
    """Closed-form relativistic orbit in a uniform magnetic field.

    Conventions match uniform_magnetic_potential(dim, B, plane=(1, 2)):
    A_1 = +B/2 x^2, A_2 = -B/2 x^1. A particle of charge q, mass m and
    in-plane speed u then rotates clockwise with omega = qB/(gamma m) on a
    circle of radius gamma m u / (qB).
    """

    def __init__(self, q=1.0, m=1.0, B=1.0, u0=(0.6, 0.0), x0=(0.0, 0.0)):
        self.q = q
        self.m = m
        self.B = B
        self.u0 = np.asarray(u0, dtype=float)
        self.x0 = np.asarray(x0, dtype=float)
        self.speed = float(np.linalg.norm(self.u0))
        self.gamma = 1.0 / math.sqrt(1.0 - self.speed ** 2)
        self.omega = q * B / (self.gamma * m)
        self.radius = self.gamma * m * self.speed / (q * B)

    def _rot(self, t):
        w = self.omega
        return np.array([[math.cos(w * t), math.sin(w * t)],
                         [-math.sin(w * t), math.cos(w * t)]])

    def velocity(self, t):
        return self._rot(t) @ self.u0

    def position(self, t):
        w = self.omega
        integral = np.array([
            [math.sin(w * t) / w, (1.0 - math.cos(w * t)) / w],
            [(math.cos(w * t) - 1.0) / w, math.sin(w * t) / w],
        ])
        return self.x0 + integral @ self.u0

    def acceleration(self, t):
        return self.omega * np.array([[0.0, 1.0], [-1.0, 0.0]]) @ self.velocity(t)

    def state4(self, t):
        """(x, v, a) as 4-vectors in the coordinate-time gauge."""
        p = self.position(t)
        u = self.velocity(t)
        a = self.acceleration(t)
        return (np.array([t, p[0], p[1], 0.0]),
                np.array([1.0, u[0], u[1], 0.0]),
                np.array([0.0, a[0], a[1], 0.0]))

    def lagrangian(self, t):
        """q A . v + m sqrt(1 - u^2) along the orbit."""
        p = self.position(t)
        u = self.velocity(t)
        a_dot_v = 0.5 * self.B * (p[1] * u[0] - p[0] * u[1])
        return self.q * a_dot_v + self.m * math.sqrt(1.0 - self.speed ** 2)

    def action(self, t0, t1, n=20001):
        """Composite-Simpson quadrature of the on-shell Lagrangian."""
        if n % 2 == 0:
            n += 1
        ts = np.linspace(t0, t1, n)
        vals = np.array([self.lagrangian(t) for t in ts])
        h = (t1 - t0) / (n - 1)
        return h / 3.0 * (vals[0] + vals[-1] + 4 * vals[1::2].sum() + 2 * vals[2:-1:2].sum())


def fit_circle(points):
    """Kasa least-squares circle fit; returns (center, radius)."""
    pts = np.asarray(points, dtype=float)
    a = np.column_stack([2.0 * pts, np.ones(len(pts))])
    b = (pts ** 2).sum(axis=1)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    center = sol[:2]
    radius = math.sqrt(sol[2] + float(center @ center))
    return center, radius


def fd_gradient(fn, x, step=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for i in range(x.size):
        h = step * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (fn(xp) - fn(xm)) / (2.0 * h)
    return out


def per_point(fn, *points):
    """fn applied to each point of equally shaped (..., N) batches, stacked.

    The per-point reference for batched field evaluation: the result has the
    batch shape followed by the shape of one fn value.
    """
    rows = zip(*(p.reshape(-1, p.shape[-1]) for p in points))
    out = np.array([fn(*row) for row in rows], dtype=float)
    return out.reshape(points[0].shape[:-1] + out.shape[1:])


def dense_symmetric_tensor(rank, dim, entries):
    """Expand sorted-index storage into the full dense symmetric array."""
    t = np.zeros((dim,) * rank)
    for idx, val in entries.items():
        for perm in set(itertools.permutations(idx)):
            t[perm] = val
    return t


def entry_array(rank, dim, entries):
    """The (..., C) entry array of {sorted multi-index: number or (...) array}.

    Column c holds the entry of the c-th multi-index of
    itertools.combinations_with_replacement(range(dim), rank), and 0 where
    the mapping has none; the values broadcast to one batch shape.
    """
    keys = list(itertools.combinations_with_replacement(range(dim), rank))
    assert set(entries) <= set(keys), f"not sorted multi-indices of rank {rank} in dim {dim}"
    values = np.broadcast_arrays(*(np.asarray(entries.get(k, 0.0), dtype=float) for k in keys))
    return np.stack(values, axis=-1)


def dense_contraction(tensor, v):
    """Full n-fold contraction of a dense tensor by repeated tensordot."""
    out = np.asarray(tensor, dtype=float)
    for _ in range(out.ndim):
        out = np.tensordot(out, v, axes=([0], [0]))
    return float(out)


def multivector_metric(g, gamma1, gamma2) -> float:
    """Gram construction: det of the DxD block g[a_i, b_j] of the target metric."""
    return float(np.linalg.det(np.asarray(g, dtype=float)[np.ix_(tuple(gamma1), tuple(gamma2))]))


def per_generator_quadratic_solve(alg, gam, kernel_tol=1e-10):
    """Rund's covariance solve one generator at a time, over a product basis built here.

    For each generator i, one least-squares solve of [X_i, g^a] = rho_i[b, a] g^b
    for traceless X_i in the real span of the ordered gamma products, with
    per-generator sums for X_i, its residual, its quadratic coefficients and
    its grade-(1, 3, 4) leakage. Returns a dict of the fields of
    QuadraticGeneratorSolution, with "generators" for the X_i.
    """
    n, dim = len(gam.matrices), gam.matrices[0].shape[0]
    subsets, basis = [], []
    for r in range(n + 1):
        for s in itertools.combinations(range(n), r):
            mat = np.eye(dim, dtype=complex)
            for a in s:
                mat = mat @ gam.matrices[a]
            subsets.append(s)
            basis.append(mat)
    n_eq = n * dim * dim
    cols = np.empty((2 * n_eq, len(basis)))
    for a_idx, b_mat in enumerate(basis):
        col = np.concatenate([(b_mat @ gmu - gmu @ b_mat).ravel() for gmu in gam.matrices])
        cols[:n_eq, a_idx] = col.real
        cols[n_eq:, a_idx] = col.imag
    svals = np.linalg.svd(cols, compute_uv=False)
    kernel_dim = int(np.sum(svals < kernel_tol * svals[0]))
    keep = [k for k, s in enumerate(subsets) if s != ()]
    cols_c = cols[:, keep]

    g_count = alg.rho.shape[0]
    coeffs = np.zeros((g_count, len(basis)))
    residuals = np.empty(g_count)
    xs = []
    quad = np.zeros((g_count, n, n))
    leakage = np.empty(g_count)
    pair_pos = {s: k for k, s in enumerate(subsets) if len(s) == 2}
    for i in range(g_count):
        targets = [sum(alg.rho[i][nu, mu] * gam.matrices[nu] for nu in range(n))
                   for mu in range(n)]
        target = np.concatenate([t.ravel() for t in targets])
        sol, *_ = np.linalg.lstsq(cols_c, np.concatenate([target.real, target.imag]),
                                  rcond=None)
        coeffs[i, keep] = sol
        x_mat = sum(c * b for c, b in zip(coeffs[i], basis))
        xs.append(x_mat)
        residuals[i] = max(float(np.linalg.norm(x_mat @ gmu - gmu @ x_mat - t))
                           for gmu, t in zip(gam.matrices, targets))
        for (a, b), k in pair_pos.items():
            quad[i, a, b] += 0.5 * coeffs[i, k]
            quad[i, b, a] -= 0.5 * coeffs[i, k]
        leakage[i] = float(np.linalg.norm(
            [coeffs[i, k] for k, s in enumerate(subsets) if len(s) in (1, 3, 4)]))
    return {"coefficients": quad, "basis_coefficients": coeffs, "residuals": residuals,
            "kernel_dim": kernel_dim, "grade_leakage": leakage,
            "subsets": tuple(subsets), "generators": xs}


def per_pair_structure_constants(rho):
    """Fit [rho_i, rho_j] = C_ij^k rho_k one pair (i, j) at a time; returns (C, worst residual)."""
    g, n, _ = rho.shape
    cols = rho.reshape(g, n * n).T
    c = np.zeros((g, g, g))
    worst = 0.0
    for i in range(g):
        for j in range(g):
            comm = (rho[i] @ rho[j] - rho[j] @ rho[i]).reshape(n * n)
            coef, *_ = np.linalg.lstsq(cols, comm, rcond=None)
            c[i, j] = coef
            worst = max(worst, float(np.linalg.norm(cols @ coef - comm)))
    return c, worst


def lateral_deviation(points, x_start, x_end):
    """Max distance of points from the straight line through the endpoints."""
    chord = np.asarray(x_end, dtype=float) - np.asarray(x_start, dtype=float)
    chord = chord / np.linalg.norm(chord)
    worst = 0.0
    for pt in np.atleast_2d(points):
        rel = pt - x_start
        lat = rel - (rel @ chord) * chord
        worst = max(worst, float(np.linalg.norm(lat)))
    return worst


def brane_action_per_cell(evaluate, jacobian, box, resolution, metric, mass,
                          charge=0.0, potential=None, tensors=()):
    """Midpoint-rule brane action summed one cell at a time with math.fsum.

    At each cell centre z (computed here from box and resolution) the density
    is m sqrt(det(J^T g(x) J)) + q A(x).w + sum_k Q_k S_k(x; w, ..., w)^(1/n),
    with J the (dimM, D) Jacobian, w its DxD minors taken by np.linalg.det in
    increasing multi-index order, and S_k the dense tensor of the entries
    that tensors[k] = (Q_k, rank, entries_at) gives at x. metric and
    potential take one target point.
    """
    box = np.asarray(box, dtype=float)
    steps = (box[:, 1] - box[:, 0]) / np.asarray(resolution)
    densities = []
    for cell in itertools.product(*(range(r) for r in resolution)):
        z = box[:, 0] + (np.asarray(cell) + 0.5) * steps
        x = np.asarray(evaluate(z[None, :]), dtype=float)[0]
        J = np.asarray(jacobian(z[None, :]), dtype=float)[0]
        dim_m, d = J.shape
        w = np.array([np.linalg.det(J[list(rows), :])
                      for rows in itertools.combinations(range(dim_m), d)])
        density = mass * math.sqrt(np.linalg.det(J.T @ metric(x) @ J))
        if potential is not None:
            density += charge * float(np.asarray(potential(x)) @ w)
        for q_k, rank, entries_at in tensors:
            c = dense_contraction(dense_symmetric_tensor(rank, w.size, entries_at(x)), w)
            density += q_k * math.copysign(abs(c) ** (1.0 / rank), c)
        densities.append(density)
    return math.fsum(densities) * float(np.prod(steps))


def brane_action_single_batch(spec, emb, details=False):
    """brane_action as one batch over every cell: the reference for the blocked pass.

    The midpoint sum of the brane Lagrangian evaluated once at all cell
    centres, each centre computed from box and resolution by linspace as
    the quadrature grid does. It shares eval_L and the minors with the code
    under test on purpose: the blocked pass must give the same bits as this
    single batch, not merely the same value to a tolerance.
    """
    from repmech.errors import NegativeRadicand, SpacelikeVelocity
    from repmech.geometry import _minors, quadratic_form
    from repmech.lagrangian import eval_L

    axes = [np.linspace(lo, hi, r, endpoint=False) + 0.5 * (hi - lo) / r
            for (lo, hi), r in zip(emb.box, emb.resolution)]
    Z = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, emb.d)
    lag = spec.lagrangian(emb.d)
    X = emb.points(Z)
    omega = _minors(emb.jacobians(Z))
    try:
        action = float(np.sum(eval_L(lag, X, omega)) * emb.cell_volume)
    except SpacelikeVelocity as err:
        index = err.batch_index
        cell = index and tuple(map(int, np.unravel_index(index[0], emb.resolution)))
        raise NegativeRadicand(f"volume radicand < 0 at cell {cell}: {err}", cell=cell) from None
    if not details:
        return action
    return action, {
        "cells": emb.n_cells,
        "component_count": omega.shape[-1],
        "min_radicand": float(np.min(quadratic_form(lag.metric(X), omega))),
        "gauge_deviation": float(np.max(np.abs(omega[:, 0] - 1.0))),
    }
