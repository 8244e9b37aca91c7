"""Independent numerical oracles shared by the test modules.

Everything here is derived from first principles (closed forms, dense
enumeration, plain finite differences, generic quadrature) without touching
the code paths under test. The last section holds builders and checks that
only the tests need; they take package objects and call the package.
"""

import itertools
import math

import numpy as np
import pytest
import yaml


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
    per-generator sums for X_i, its residual and its grade-(1, 3, 4) leakage.
    kernel_dim counts the singular values of the whole unconstrained system,
    identity column included, at or below kernel_tol times the largest, from
    its own SVD. Returns a dict of the fields of QuadraticGeneratorSolution,
    plus each X_i's product-basis coefficients, "basis_coefficients", on the
    index subsets "subsets" in column order.
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
    kernel_dim = int(np.sum(svals <= kernel_tol * svals[0]))
    keep = [k for k, s in enumerate(subsets) if s != ()]
    cols_c = cols[:, keep]

    g_count = alg.rho.shape[0]
    coeffs = np.zeros((g_count, len(basis)))
    residuals = np.empty(g_count)
    xs = []
    leakage = np.empty(g_count)
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
        leakage[i] = float(np.linalg.norm(
            [coeffs[i, k] for k, s in enumerate(subsets) if len(s) in (1, 3, 4)]))
    return {"basis_coefficients": coeffs, "residuals": residuals,
            "kernel_dim": kernel_dim, "grade_leakage": leakage,
            "subsets": tuple(subsets), "generators": xs}


def dirac_operator_terms(q, m, a_const, p, gam):
    """H = -m I + g^0 pi_0 + ... + g^(N-1) pi_(N-1), one broadcast term at a time.

    pi = p - qA; p is (..., N) and m broadcasts against p's leading shape.
    """
    pi = np.asarray(p, dtype=float) - q * np.asarray(a_const, dtype=float)
    h = -np.asarray(m, dtype=float)[..., None, None] * np.eye(gam.matrix_dim, dtype=complex)
    for alpha in range(gam.n):
        h = h + gam.matrices[alpha] * pi[..., alpha, None, None]
    return h


def per_pair_structure_constants(rho):
    """Fit [rho_i, rho_j] = C_ij^k rho_k one pair (i, j) at a time; returns C."""
    g, n, _ = rho.shape
    cols = rho.reshape(g, n * n).T
    c = np.zeros((g, g, g))
    for i in range(g):
        for j in range(g):
            comm = (rho[i] @ rho[j] - rho[j] @ rho[i]).reshape(n * n)
            c[i, j] = np.linalg.lstsq(cols, comm, rcond=None)[0]
    return c


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


# ---------------------------------------------------------------------------
# config key lines: the reference for the config loader's walk
# ---------------------------------------------------------------------------

def key_lines(node, prefix=()):
    """{path: 1-based line} of every mapping key under a composed YAML node,
    keys and sequence indices as strings, by one recursion per path.

    A later duplicate key overwrites an earlier one's line. Merge keys count
    as written unless the node was constructed first, which flattens them.
    """
    lines = {}
    if isinstance(node, yaml.MappingNode):
        for k_node, v_node in node.value:
            path = prefix + (str(k_node.value),)
            lines[path] = k_node.start_mark.line + 1
            lines.update(key_lines(v_node, path))
    elif isinstance(node, yaml.SequenceNode):
        for i, item in enumerate(node.value):
            lines.update(key_lines(item, prefix + (str(i),)))
    return lines


# ---------------------------------------------------------------------------
# list-form constant-field RK4: the reference for worldline's emitted kernels
# ---------------------------------------------------------------------------

def rk4_step_lists(deriv, t, z, h):
    """One classical RK4 step of dz/dt = deriv(t, z) on a flat list state."""
    hh = 0.5 * h
    k1 = deriv(t, z)
    k2 = deriv(t + hh, [zi + hh * ki for zi, ki in zip(z, k1)])
    k3 = deriv(t + hh, [zi + hh * ki for zi, ki in zip(z, k2)])
    k4 = deriv(t + h, [zi + h * ki for zi, ki in zip(z, k3)])
    h6 = h / 6.0
    return [zi + h6 * (a + 2.0 * b + 2.0 * c + d) for zi, a, b, c, d in zip(z, k1, k2, k3, k4)]


def _outside_cone(gvv):
    from repmech.errors import NullVelocity, SpacelikeVelocity

    if gvv < 0.0:
        raise SpacelikeVelocity(f"g(v,v) = {gvv} < 0")
    raise NullVelocity("momentum of the mass term is undefined on the light cone")


def _eliminate(A, b):
    """x with A x = b by Gaussian elimination with partial pivoting on float
    lists; A and b are overwritten. The reference for the unrolled solve that
    worldline's elimination kernels inline (worldline._solve_lines).

    An exactly zero pivot raises SingularReducedHessian, as the LU
    factorization behind np.linalg.solve fails on one.
    """
    from repmech.errors import SingularReducedHessian

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
    return [[(b, x) for b, x in enumerate(row) if x] for row in np.asarray(matrix).tolist()]


def _matvec(rows, v):
    out = []
    for row in rows:
        acc = 0.0
        for b, x in row:
            acc += x * v[b]
        out.append(acc)
    return out


def _dot(u, v):
    acc = 0.0
    for x, y in zip(u, v):
        acc += x * y
    return acc


def _tensor_stencil(q_n, tensor):
    S, n = tensor.S, tensor.rank
    pairs = {}
    for idx in zip(*np.nonzero(S)):
        a, b, *rest = map(int, idx)
        if a <= b:
            pairs.setdefault((a, b), []).append((float(S[idx]), rest))
    return (q_n * (n - 1), 1.0 / n - 1.0, 1.0 / n - 2.0, n,
            [(a, b, entries) for (a, b), entries in pairs.items()])


def constant_field_deriv_lists(spec, proper):
    """deriv(t, z) of a spec with constant fields, in plain-float list loops.

    The coordinate-time state is (x^i, u^i), the proper-time one (x^a, v^a).
    Two closures: EM only in either gauge (a = (s/m) W v with W = g^{-1} f in
    proper time, and a^i = (s/m) ((W v)^i - u^i (W v)^0) in coordinate time,
    v = (1, u)), and otherwise the mass and tensor Hessians eliminated on the
    reduced or bordered system.
    """
    from repmech.lagrangian import _checked_radicand

    dim = spec.dim
    nsp = dim - 1
    origin = np.zeros(dim)
    g = spec.metric(origin)
    m = float(spec.mass)
    q = float(spec.charge)
    jac = spec.potential.jacobian(origin)

    g_rows = _sparse_rows(g)
    if not spec.extra_terms:
        w = _sparse_rows(np.linalg.solve(g, q * (jac.T - jac)))

        def deriv(_t, z):
            v = z[dim:] if proper else [1.0] + z[nsp:]
            gvv = _dot(v, _matvec(g_rows, v))
            if gvv <= 0.0:
                _outside_cone(gvv)
            c = math.sqrt(gvv) / m
            wv = _matvec(w, v)
            if proper:
                return v + [c * x for x in wv]
            return z[nsp:] + [c * (x - u * wv[0]) for x, u in zip(wv[1:], z[nsp:])]

        return deriv

    gl = g.tolist()
    lo = 0 if proper else 1
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
        if proper:
            for hi, gvi in zip(H, gv):
                hi.append(gvi)
            H.append(gv + [0.0])
            rhs.append(0.0)
            return v + _eliminate(H, rhs)[:dim]
        return z[nsp:] + _eliminate(H, rhs)

    return deriv


def constant_field_orbit_lists(spec, proper, x0, v0, n_steps, h, gauge_tol=1e-8):
    """(x, v) samples of n_steps list-form RK4 steps from gauge-snapped (x0, v0).

    Coordinate time marches (x^i, u^i) from t = x0^0; proper time marches
    (x^a, v^a) and projects v back onto g(v, v) = 1 after every step.
    """
    dim = spec.dim
    deriv = constant_field_deriv_lists(spec, proper)
    x0, v0 = list(map(float, x0)), list(map(float, v0))
    if proper:
        g_rows = _sparse_rows(spec.metric(np.zeros(dim)))
        z, t = x0 + v0, 0.0
    else:
        z, t = x0[1:] + v0[1:], x0[0]
    zs = [z]
    for k in range(n_steps):
        z = rk4_step_lists(deriv, t + k * h, z, h)
        if proper:
            gvv = _dot(z[dim:], _matvec(g_rows, z[dim:]))
            nrm = math.sqrt(gvv)
            assert gvv > 0.0 and abs(nrm - 1.0) <= gauge_tol
            z = z[:dim] + [vi / nrm for vi in z[dim:]]
        zs.append(z)
    zs = np.asarray(zs)
    if proper:
        return zs[:, :dim], zs[:, dim:]
    taus = t + h * np.arange(n_steps + 1)
    return (np.column_stack([taus, zs[:, :dim - 1]]),
            np.column_stack([np.ones_like(taus), zs[:, dim - 1:]]))


def hamiltonian_orbit(g, dg, A, dA, charge, mass, x0, p0, n_steps, h):
    """(x, p, H) at the n_steps + 1 samples of RK4 over the phase space (x, p).

    The super-Hamiltonian H = 1/2 (g^{ab} pi_a pi_b - m^2), pi = p - q A,
    generates the world line in lambda = tau / m. In proper time, with
    w = g^{-1} pi and d_a g^{bc} = -g^{bd} d_a g_de g^{ec}:
        dx^a/dtau = w^a / m,
        dp_a/dtau = (1/2 d_a g_bc w^b w^c + q d_a A_b w^b) / m.
    The exact flow keeps H = 0, RK4 only to its order. g, dg, A and dA map
    one position to g_ab, d_c g_ab as [c, a, b], A_a and d_c A_a as [a, c].
    Nothing here solves Euler-Lagrange rows or projects onto a gauge.
    """
    n = len(x0)

    def parts(z):
        x = np.array(z[:n])
        pi = np.array(z[n:]) - charge * A(x)
        return x, pi, np.linalg.solve(g(x), pi)

    def deriv(_t, z):
        x, _, w = parts(z)
        force = 0.5 * np.einsum("abc,b,c->a", dg(x), w, w) + charge * (w @ dA(x))
        return (np.concatenate([w, force]) / mass).tolist()

    zs = [[float(c) for c in (*x0, *p0)]]
    for k in range(n_steps):
        zs.append(rk4_step_lists(deriv, k * h, zs[-1], h))
    H = [0.5 * (pi @ w - mass * mass) for _, pi, w in map(parts, zs)]
    zs = np.array(zs)
    return zs[:, :n], zs[:, n:], np.array(H)


def tensor_columns_reference(rank, dim):
    """fields.tensor_columns by enumeration: each flat index's multi-index from
    np.indices, sorted, then looked up among the sorted multi-indices in
    combinations_with_replacement order."""
    shape = (dim,) * rank
    keys = [np.ravel_multi_index(c, shape)
            for c in itertools.combinations_with_replacement(range(dim), rank)]
    idx = np.sort(np.indices(shape).reshape(rank, -1), axis=0)
    return np.searchsorted(keys, np.ravel_multi_index(idx, shape))


# ---------------------------------------------------------------------------
# test-only builders and checks on package objects: the paper's claims that
# the package itself never needs (reparametrization invariance, Rund's gamma
# algebra read back through the vector representation, the mass-term trace)
# ---------------------------------------------------------------------------

def reparam_invariance_residual(spec, path, dtau) -> float:
    """|sum_k L(mid_k, dx_k / dt_k) dt_k - discrete_action|; zero up to round-off."""
    from repmech import DimensionMismatch, discrete_action, eval_L

    dtau = np.asarray(dtau, dtype=float)
    segments = len(path.interior) + 1
    if dtau.shape != (segments,):
        raise DimensionMismatch(f"need {segments} parameter steps, got {dtau.shape}")
    if np.any(dtau <= 0):
        raise DimensionMismatch("parameter steps must be positive")
    total = np.sum(eval_L(spec, path.midpoints(), path.segments() / dtau[:, None]) * dtau)
    return abs(float(total) - discrete_action(spec, path))


def cell_centers(emb):
    """Every cell centre of a BraneEmbedding, (n_cells, D), in flat (C-order) cell order."""
    return np.stack(np.meshgrid(*emb.center_axes(), indexing="ij"), axis=-1).reshape(-1, emb.d)


def curve_embedding(fn, jacobian=None, box=(0.0, 1.0), resolution=256, dim_m=4):
    """D = 1 embedding (a world line) from a curve z -> x(z), fn mapping (n, 1) to (n, dimM)."""
    from repmech import BraneEmbedding

    return BraneEmbedding(d=1, dim_m=dim_m, box=np.asarray([box]),
                          resolution=(int(resolution),), evaluator=fn, jacobian=jacobian)


def reparameterized(emb, psi, psi_jacobian=None):
    """Compose an embedding with a parameter diffeomorphism z' -> psi(z') of its box.

    psi maps an (n, D) batch to (n, D), psi_jacobian to the (n, D, D) Jacobians.
    """
    from repmech import BraneEmbedding

    def evaluate(Z):
        return emb.points(psi(Z))

    jac = None
    if psi_jacobian is not None and emb.jacobian is not None:
        def jac(Z):
            return np.einsum("nab,nbc->nac", emb.jacobians(psi(Z)), psi_jacobian(Z))

    return BraneEmbedding(d=emb.d, dim_m=emb.dim_m, box=emb.box,
                          resolution=emb.resolution, evaluator=evaluate, jacobian=jac)


def spec_row(stack, i):
    """Sample i of a SpecStack as an ordinary LagrangianSpec: a constant diagonal
    or weak-field metric, a constant potential and constant tensors."""
    from repmech import (LagrangianSpec, SymmetricTensorField, constant_diagonal_metric,
                         constant_potential, weak_field_metric)

    dim = stack.dim
    if stack.curved[i]:
        a, b = stack.amplitude[i].copy(), float(stack.frequency[i])
        metric = weak_field_metric(
            dim,
            phi=lambda x: np.vecdot(np.sin(b * x), a),
            phi_grad=lambda x: a * b * np.cos(b * x),
        )
    else:
        metric = constant_diagonal_metric(stack.diagonal[i])
    extras = tuple(
        (float(stack.couplings[i, t]), SymmetricTensorField(rank, dim, entries=entries[i]))
        for t, (rank, entries) in enumerate(((3, stack.rank3), (4, stack.rank4))))
    return LagrangianSpec(metric=metric, mass=float(stack.mass[i]),
                          charge=float(stack.charge[i]),
                          potential=constant_potential(stack.potential[i]),
                          extra_terms=extras)


def build_pauli_gammas(form="euclidean"):
    """2x2 toy set: sigma_1, sigma_2 (euclidean) or sigma_3, i*sigma_1 (minkowski)."""
    from repmech import GammaSet, UnsupportedDimension, anticommutator_residual
    from repmech.clifford import _SIGMA

    sigma1, sigma2, sigma3 = _SIGMA
    if form == "euclidean":
        matrices, h = (sigma1, sigma2), np.eye(2)
    elif form == "minkowski":
        matrices, h = (sigma3, 1j * sigma1), np.diag([1.0, -1.0])
    else:
        raise UnsupportedDimension(f"unknown form {form!r}")
    return GammaSet(matrices=matrices, form=h, residual=anticommutator_residual(matrices, h))


def gamma_set(kind):
    """A gamma set other than the Dirac and Pauli ones, with its measured residual.

    "pauli3" and "pauli3-real-volume" are odd N = 3 Pauli sets whose volume
    element is i*I or a real multiple of I; "dirac+i*gamma5" is the Dirac
    set with i*gamma^5 (volume element real); "pauli-scaled" is sigma_1 and
    2 sigma_2 with h = diag(1, 4), a form with an entry other than +-1;
    "one-gamma" is sigma_3 alone, whose covariance system is all zeros.
    """
    from repmech import build_dirac_gammas
    from repmech.clifford import _SIGMA, _make_gamma_set

    s1, s2, s3 = _SIGMA
    if kind == "pauli3":
        return _make_gamma_set([s1, s2, s3], np.eye(3))
    if kind == "pauli3-real-volume":
        return _make_gamma_set([s1, s2, 1j * s3], np.diag([1.0, 1.0, -1.0]))
    if kind == "pauli-scaled":
        return _make_gamma_set([s1, 2.0 * s2], np.diag([1.0, 4.0]))
    if kind == "one-gamma":
        return _make_gamma_set([s3], np.eye(1))
    if kind != "dirac+i*gamma5":
        raise ValueError(f"unknown gamma set {kind!r}")
    g = build_dirac_gammas("minkowski").matrices
    g5 = 1j * g[0] @ g[1] @ g[2] @ g[3]
    return _make_gamma_set([*g, 1j * g5], np.diag([1.0, -1.0, -1.0, -1.0, -1.0]))


def per_trial_clifford_summary(payload, seed):
    """A clifford run's summary fields from a loop that perturbs and solves one trial at a time.

    Each trial draws its real, then its imaginary (d, d) normal block,
    perturbs gamma 1 of the Dirac set, checks the anticommutator residual
    for overflow and solves that set alone over its own product basis; an
    unperturbed run solves the Dirac set once for all its trials. The
    algebras, the Dirac set, the determinant samples and their check come
    from the package.
    """
    from repmech import (FormMismatch, abelian_algebra, build_dirac_gammas,
                         lorentz_vector_algebra, mass_shell_determinant_residual,
                         rotation_vector_algebra)
    from repmech.cli import _draw_det_samples

    gam = build_dirac_gammas(payload["form"])
    alg = {"lorentz": lorentz_vector_algebra, "so3": rotation_vector_algebra,
           "abelian": lambda h: abelian_algebra(4)}[payload["algebra"]](gam.form)
    dirac = np.asarray(gam.matrices)
    n, dim = dirac.shape[0], dirac.shape[-1]
    subsets = [s for r in range(n + 1) for s in itertools.combinations(range(n), r)]
    grades = np.array([len(s) for s in subsets[1:]])

    def commutators(a, b):
        return a[:, None] @ b[None] - b[None] @ a[:, None]

    def frobenius(stack):
        return np.linalg.norm(stack, axis=(-2, -1))

    def real_columns(stack, k):
        cols = stack.reshape(k, -1).T
        return np.concatenate([cols.real, cols.imag])

    def anticommutator_residual(mats):
        prod = mats[:, None] @ mats[None]
        res = prod + prod.swapaxes(0, 1) - 2.0 * gam.form[:, :, None, None] * np.eye(dim)
        return float(np.max(frobenius(res)))

    def solve(mats):
        basis = np.empty((len(subsets), dim, dim), dtype=complex)
        basis[0] = np.eye(dim)
        for k, s in enumerate(subsets[1:], 1):
            basis[k] = basis[subsets.index(s[:-1])] @ mats[s[-1]]
        cols = real_columns(commutators(basis, mats), len(subsets))
        targets = np.einsum("iba,bkl->iakl", alg.rho, mats)
        sol, _, _, svals = np.linalg.lstsq(cols[:, 1:], real_columns(targets, len(alg.rho)),
                                           rcond=None)
        xs = np.tensordot(sol.T, basis[1:], axes=1)
        return (np.max(frobenius(commutators(xs, mats) - targets), axis=1),
                1 + int(np.sum(svals <= 1e-10 * svals[0])),
                np.linalg.norm(sol[grades != 2], axis=0), xs)

    rng = np.random.default_rng(seed)
    magnitude = payload["perturbation"]
    if magnitude == 0.0:
        residual, (residuals, kernel_dim, leakage, xs) = gam.residual, solve(dirac)
        trial_residuals = [float(np.max(residuals))] * payload["trials"]
    else:
        trial_residuals = []
        for _ in range(payload["trials"]):
            h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = 0.5 * (h + h.conj().T)
            h *= magnitude / np.linalg.norm(h, ord=2)
            mats = dirac.copy()
            mats[1] = mats[1] + h
            with np.errstate(over="ignore", invalid="ignore"):
                residual = anticommutator_residual(mats)
            if not np.isfinite(residual):
                raise FormMismatch(f"perturbation {magnitude} overflows the anticommutator "
                                   "residual")
            residuals, kernel_dim, leakage, xs = solve(mats)
            trial_residuals.append(float(np.max(residuals)))

    pis, masses = _draw_det_samples(rng, payload["det_samples"], n)
    closure = commutators(xs, xs) - np.einsum("ijk,kab->ijab", alg.structure, xs)
    return {
        "algebra": payload["algebra"],
        "form": payload["form"],
        "perturbation": magnitude,
        "anticommutator_residual": residual,
        "residuals": residuals,
        "kernel_dims": [kernel_dim] * len(alg.rho),
        "grade_leakage": leakage,
        "closure_residual": float(np.max(frobenius(closure))),
        "covariance_residual": trial_residuals[-1],
        "trial_max_residuals": trial_residuals,
        "determinant_check": {
            "samples": payload["det_samples"],
            "max_relative_residual": float(np.max(mass_shell_determinant_residual(
                0.0, masses, np.zeros(n), pis, gam))),
        },
    }


def perfbench_trace_targets():
    """The FUNCTIONS and METHODS tables of perfbench/tracing.py, read with `ast`.

    perfbench is not imported: the tables are literals in its source.
    """
    import ast
    from pathlib import Path

    tracing = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    tables = {}
    for node in ast.parse(tracing.read_text()).body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        name = getattr(node.targets[0], "id", None)
        if name in ("FUNCTIONS", "METHODS"):
            tables[name] = ast.literal_eval(node.value)
    return tables


def extract_vector_rep(generators, gam):
    """Recover rho_i from [X_i, g^a] = rho_i[b, a] g^b by projection on the g span.

    Every commutator is fitted on the same N gamma columns, so the G * N fits
    are one least-squares solve. Returns (rho, fit_residual); rho uses the
    homomorphism convention of LieAlgebraSpec, so it can be compared to
    alg.rho directly.
    """
    from repmech.clifford import _commutators, _real_columns

    mats = np.asarray(gam.matrices)
    xs = np.asarray(generators)
    # one column per gamma, and one per commutator [X_i, g^a]
    cols = _real_columns(mats[:, None])
    rhs = _real_columns(_commutators(xs, mats).reshape((-1, 1) + mats.shape[1:]))
    coef = np.linalg.lstsq(cols, rhs, rcond=None)[0]
    worst = float(np.max(np.linalg.norm(cols @ coef - rhs, axis=0)))
    # column i * N + a holds rho_i[:, a]
    return coef.T.reshape(len(xs), gam.n, gam.n).swapaxes(1, 2), worst


def mass_term_trace_identity(gam, g) -> float:
    """|| g_ab g^a g^b - N I ||_F: the symmetric contraction collapses to N times I.

    The quadratic mass term sqrt(g_ab g^a g^b) is therefore sqrt(N) I rather
    than I; dirac_operator keeps the conventional unit normalization and this
    check surfaces the alternative number.
    """
    from repmech import FormMismatch

    g = np.asarray(g, dtype=float)
    if g.shape != gam.form.shape or not np.allclose(g, gam.form, atol=1e-12):
        raise FormMismatch("metric must equal the gamma set's bilinear form")
    contraction = sum(g[a, b] * gam.matrices[a] @ gam.matrices[b]
                      for a in range(gam.n) for b in range(gam.n))
    return float(np.linalg.norm(contraction - gam.n * np.eye(gam.matrix_dim)))


def assert_guard(guards, name):
    """guards[name] is (call, error class, message): call() raises that error with that message."""
    call, error, message = guards[name]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
