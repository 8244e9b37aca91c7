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

One fixed-step classical RK4 stepper serves both gauges; each supplies only
its derivative and its after-step rule. When a field varies, each stage
solves the Euler-Lagrange rows H a = F, where H = L_vv and B = L_xv come
from one lagrangian.el_system call, which evaluates each field once, and
F = (B - B^T).v by Euler's theorem (see _el_rows). When every field is
constant (the metric, the field strength and each tensor term; see
_constant_fields), one plain-float derivative serves both gauges instead,
from g, the field strength and the tensor entries read once per run.

The RK4 step and the constant-field derivative are emitted as straight-line
Python source (no loops, no list indexing) and compiled once per pattern:
the step per state length, the derivative per gauge, dimension and nonzero
pattern of g, the field strength and the tensor entries (_kernel). Every
float enters as an argument of the compiled factory, never as text. The
kernels do the same float operations in the same order as the list loops
they replace, less the terms that are exactly zero and the factors that
are exactly 1 (v^0 in coordinate time). While every value stays finite a
trajectory therefore keeps its bits: a dropped zero term can change only
the sign of a zero, which a state that starts without -0.0 never sees.

Measured in-process on a 2-vCPU VM (integrate over 400 steps, best of 5
timeit repeats, ranges over 4 alternating runs on a busy host), an RK4
step on the orbits benchmark's specs costs, emitted against the list loops:

* coordinate time, EM only: 5.2-9.8 us against 28-32 us;
* coordinate time, a constant rank-3 term: 24-42 us against 69-80 us;
  _eliminate takes 4.5-6.3 us of each 8.5 us derivative call;
* proper time, EM only: 7.0-12 us against 22-32 us.

The per-sample drift log records the mass-shell residual
pi.g^{-1}.pi - m^2, which is an algebraic identity of the momentum map and
therefore stays at rounding level regardless of step size; the
reduced-Hamiltonian drift (energy_drift) is the step-sensitive accuracy
instrument.
"""

from __future__ import annotations

import linecache
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, GaugeViolation, SingularReducedHessian
from .geometry import quadratic_form
from .lagrangian import (
    LagrangianSpec,
    _checked_radicand,
    _outside_cone,
    el_system,
    eval_L,
    mass_shell_residual,
    momentum,
)

GAUGE_TOL = 1e-8
# most RK4 steps of one integrate call: at dim 4 a step holds about 0.4 kB of
# march state and output arrays at its peak, so 10^7 steps is about 4 GB
MAX_STEPS = 10 ** 7
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


def _el_rows(spec, x, v):
    """(H, F, gv, row) of the Euler-Lagrange rows H a = F at particle points.

    With B = L_xv, Euler's theorem L = p.v gives dL/dx = B.v, so the force
    F = dL/dx - (dp/dx)^T.v is (B - B^T).v; gv and row are el_system's.
    """
    H, B, gv, row = el_system(spec, x, v)
    return H, np.matvec(B - np.swapaxes(B, -1, -2), v), gv, row


def el_residual(spec: LagrangianSpec, x, v, a) -> np.ndarray:
    """Euler-Lagrange residual d/dtau[dL/dv] - dL/dx expanded through (v, a)."""
    H, F, *_ = _el_rows(spec, x, v)
    return np.matvec(H, np.asarray(a, dtype=float)) - F


def _march(deriv, t0, z, n_steps, h, after_step=None):
    """n_steps RK4 steps from z at t0; after_step(k, z) returns the state kept."""
    step = _kernel(_emit_rk4, len(z))()
    zs = [z]
    for k in range(n_steps):
        z = step(deriv, t0 + k * h, z, h)
        if after_step is not None:
            z = after_step(k, z)
        zs.append(z)
    return t0 + h * np.arange(n_steps + 1), np.asarray(zs)


# ---------------------------------------------------------------------------
# coordinate-time gauge: z = (x^i, v^i), i = 1..N-1
# ---------------------------------------------------------------------------

def _coordinate_accel(spec, t, y, u):
    H, F, *_ = _el_rows(spec, np.array([t, *y]), np.array([1.0, *u]))
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
    H = el_system(spec, x, v)[0]
    if np.linalg.cond(H[1:, 1:]) > _COND_LIMIT:
        raise SingularReducedHessian(
            "reduced velocity Hessian is numerically singular at the initial point"
        )


def _integrate_coordinate(spec, x0, v0, n_steps, h):
    nsp = spec.dim - 1
    deriv = (_constant_field_kernels(spec, GaugeChoice.COORDINATE_TIME)[0]
             if _constant_fields(spec) else _coordinate_deriv(spec))
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
    H, F, gv, row = _el_rows(spec, x, v)
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
        deriv, norm2 = _constant_field_kernels(spec, GaugeChoice.PROPER_TIME)
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
    """Whether _constant_field_kernels applies: a massive spec whose metric, field
    strength and tensor terms do not vary (a uniform magnetic potential varies,
    but its Jacobian does not)."""
    return (spec.mass > 0.0 and spec.metric.is_constant
            and spec.potential.kind in ("zero", "constant", "uniform-magnetic")
            and all(s.is_constant for _, s in spec.extra_terms))


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


def _pattern(matrix, first=0):
    """(pattern, values) of a matrix's nonzero entries, from row `first` on:
    pattern[i] holds row first+i's nonzero columns, values the entries in
    that row-major order, as Python floats."""
    rows = np.asarray(matrix).tolist()[first:]
    return (tuple(tuple(j for j, x in enumerate(row) if x) for row in rows),
            [x for row in rows for x in row if x])


def _tensor_pattern(q_n, tensor):
    """(pattern, values) of a constant tensor term, for _emit_elimination.

    pattern is (rank, pairs): pairs lists (a, b, rests) for each a <= b whose
    s_ab = S(v, ..., v, .^2)_ab has a nonzero entry, rests the remaining
    indices of each nonzero dense entry S_{ab rest}. values are Q_n (n - 1),
    1/n - 1, 1/n - 2 and the entries in that order.
    """
    S, n = tensor.S, tensor.rank
    pairs = {}
    for idx in zip(*np.nonzero(S)):
        a, b, *rest = map(int, idx)
        if a <= b:
            pairs.setdefault((a, b), []).append((float(S[idx]), tuple(rest)))
    pattern = (n, tuple((a, b, tuple(rest for _, rest in entries))
                        for (a, b), entries in pairs.items()))
    values = [q_n * (n - 1), 1.0 / n - 1.0, 1.0 / n - 2.0]
    return pattern, values + [w for entries in pairs.values() for w, _ in entries]


def _constant_field_kernels(spec, gauge):
    """(deriv, norm2) of a spec with _constant_fields: the emitted derivative
    and, in proper time, g(v, v) of a state (None in coordinate time).

    The same equations as _coordinate_deriv and the bordered proper-time
    solve, as straight-line float code: at one state per call, numpy's
    per-call overhead costs more than the arithmetic. g, the field strength
    f = q (J^T - J), for which F = f v, and each tensor's nonzero entries are
    read once and passed to the kernel's factory; a constant metric has
    row = 0.

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
    g_pattern, g_values = _pattern(g)
    if not spec.extra_terms and proper:
        w_pattern, w_values = _pattern(np.linalg.solve(g, q * (jac.T - jac)))  # g^{-1} f
        return _kernel(_emit_proper_em, g_pattern, w_pattern)([m, *g_values, *w_values])
    if not spec.extra_terms and np.max(np.abs(g - np.diag(np.diag(g)))) == 0.0:
        # row a of F is J[:, a] - J[a, :], so that rhs_a = q F_a.v
        f_pattern, f_values = _pattern(jac.T - jac, 1)
        if q == 0.0 or not f_values:
            f_pattern, f_values = None, []
        diagonal = np.diag(g).tolist()
        return _kernel(_emit_diagonal_em, dim, f_pattern)([m, q, *diagonal, *f_values])
    lo = 0 if proper else 1
    f_pattern, f_values = _pattern(q * (jac.T - jac), lo)
    values = [m, *g_values, *f_values]
    t_patterns = []
    for q_n, tensor in spec.extra_terms:
        t_pattern, t_values = _tensor_pattern(q_n, tensor)
        t_patterns.append(t_pattern)
        values += t_values
    return _kernel(_emit_elimination, proper, g_pattern, f_pattern, tuple(t_patterns))(values)


# ---------------------------------------------------------------------------
# emitted kernels: straight-line float code, compiled once per pattern
# ---------------------------------------------------------------------------

_KERNELS = {}  # (emitter name, *pattern) -> compiled factory


def _kernel(emit, *pattern):
    """The factory that emit(*pattern) writes, compiled on first use.

    The pattern holds only integers (a state length, index patterns), so
    every spec of one pattern shares one kernel: the floats enter as the
    factory's arguments and none is formatted into the source. The source is
    registered with linecache under a fixed pseudo-filename, so a traceback
    through a kernel shows its line.
    """
    key = (emit.__name__,) + pattern
    factory = _KERNELS.get(key)
    if factory is None:
        source = "\n".join(emit(*pattern)) + "\n"
        filename = f"<repmech.worldline{key}>"
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        namespace = {"sqrt": math.sqrt, "_outside_cone": _outside_cone,
                     "_checked_radicand": _checked_radicand, "_eliminate": _eliminate}
        exec(compile(source, filename, "exec"), namespace)
        factory = _KERNELS[key] = namespace["factory"]
    return factory


def _unpack(names):
    """The target list of an unpacking assignment: "a, b, " or "()" for none."""
    return "".join(f"{n}, " for n in names) or "()"


def _sum(terms):
    """Terms added left to right, or the literal zero for none."""
    return " + ".join(terms) or "0.0"


def _times(*factors):
    """A left-to-right product; None stands for a factor that is exactly 1."""
    return " * ".join(f for f in factors if f is not None)


def _emit_rk4(n):
    """The classical RK4 step of an n-float state dz/dt = deriv(t, z), unrolled."""
    z, a, b, c, d = ([f"{p}{i}" for i in range(n)] for p in "zabcd")

    def stage(h, k):
        return "[" + ", ".join(f"{zi} + {h} * {ki}" for zi, ki in zip(z, k)) + "]"

    combined = ", ".join(f"{zi} + h6 * ({ai} + 2.0 * {bi} + 2.0 * {ci} + {di})"
                         for zi, ai, bi, ci, di in zip(z, a, b, c, d))
    return ["def factory():",
            "    def step(deriv, t, z, h):",
            f"        {_unpack(z)}= z",
            "        hh = 0.5 * h",
            f"        {_unpack(a)}= deriv(t, z)",
            f"        {_unpack(b)}= deriv(t + hh, {stage('hh', a)})",
            f"        {_unpack(c)}= deriv(t + hh, {stage('hh', b)})",
            f"        {_unpack(d)}= deriv(t + h, {stage('h', c)})",
            "        h6 = h / 6.0",
            f"        return [{combined}]",
            "    return step"]


def _matvec_lines(out, matrix, pattern, v, first=0):
    """Lines setting out{i} = (M v)_i over M's nonzero entries (named
    {matrix}{i}_{j}), and each row's symbol: out{i}, or 0.0 for an empty row."""
    lines, symbols = [], []
    for i, cols in enumerate(pattern, first):
        if cols:
            lines.append(f"{out}{i} = " + _sum([_times(f"{matrix}{i}_{j}", v[j]) for j in cols]))
        symbols.append(f"{out}{i}" if cols else "0.0")
    return lines, symbols


def _inner(u, w):
    """The expression u.w, over the entries of w that are not the literal zero."""
    return _sum([_times(ui, wi) for ui, wi in zip(u, w) if wi != "0.0"])


def _entry_names(matrix, pattern, first=0):
    return [f"{matrix}{i}_{j}" for i, cols in enumerate(pattern, first) for j in cols]


def _indent(lines, depth):
    return [" " * (4 * depth) + line for line in lines]


def _emit_norm2(state, v, g_pattern):
    """Lines of norm2(z) = g(v, v) for a proper-time state."""
    lines, gv = _matvec_lines("gv", "g", g_pattern, v)
    return ["    def norm2(z):",
            f"        {_unpack(state)}= z",
            *_indent(lines, 2),
            f"        return {_inner(v, gv)}"]


def _emit_proper_em(g_pattern, w_pattern):
    """EM-only proper-time derivative (v, (s/m) g^{-1} f v), and g(v, v)."""
    dim = len(g_pattern)
    x = [f"x{a}" for a in range(dim)]
    v = [f"v{a}" for a in range(dim)]
    params = ["m"] + _entry_names("g", g_pattern) + _entry_names("w", w_pattern)
    gv_lines, gv = _matvec_lines("gv", "g", g_pattern, v)
    fv_lines, fv = _matvec_lines("fv", "w", w_pattern, v)
    accel = [f"c * {e}" if e != "0.0" else e for e in fv]
    return ["def factory(consts):",
            f"    {_unpack(params)}= consts",
            "    def deriv(_tau, z):",
            f"        {_unpack(x + v)}= z",
            *_indent(gv_lines, 2),
            f"        gvv = {_inner(v, gv)}",
            "        if gvv <= 0.0:",
            "            _outside_cone(gvv)",
            "        c = sqrt(gvv) / m",
            *_indent(fv_lines, 2),
            f"        return [{', '.join(v + accel)}]",
            *_emit_norm2(x + v, v, g_pattern),
            "    return deriv, norm2"]


def _emit_diagonal_em(dim, f_pattern):
    """EM-only coordinate-time derivative on a diagonal metric, by the closed
    form of the reduced inverse; f_pattern None means no force."""
    spatial = range(1, dim)
    x = [f"x{a}" for a in spatial]
    u = [f"v{a}" for a in spatial]
    v = [None] + u  # v^0 = 1
    params = ["m", "q"] + [f"d{a}" for a in range(dim)] + _entry_names("F", f_pattern or (), 1)
    lines = ["s2 = " + _sum(["d0"] + [f"d{a} * v{a} * v{a}" for a in spatial]),
             "if s2 <= 0.0:",
             "    _outside_cone(s2)"]
    if f_pattern is None:
        accel = ["0.0"] * (dim - 1)
    else:
        rhs = []
        lines.append("s = sqrt(s2)")
        for a, cols in zip(spatial, f_pattern):
            if cols:
                force = _sum([_times(f"F{a}_{j}", v[j]) for j in cols])
                lines.append(f"r{a} = q * ({force})")
            rhs.append(f"r{a}" if cols else "0.0")
        lines += [f"ur = {_inner(u, rhs)}", "c = s / m"]
        accel = [f"c * ({ra} / d{a} + v{a} * ur / d0)" if ra != "0.0" else f"c * (v{a} * ur / d0)"
                 for a, ra in zip(spatial, rhs)]
    return ["def factory(consts):",
            f"    {_unpack(params)}= consts",
            "    def deriv(t, z):",
            f"        {_unpack(x + u)}= z",
            *_indent(lines, 2),
            f"        return [{', '.join(u + accel)}]",
            "    return deriv, None"]


def _emit_elimination(proper, g_pattern, f_pattern, tensors):
    """The general derivative: the mass and tensor Hessians and the force,
    solved by _eliminate on the reduced block (coordinate time) or on the
    system bordered by the gauge row (proper time)."""
    dim = len(g_pattern)
    lo = 0 if proper else 1  # H's rows and columns lo..dim-1 are solved
    rows = range(lo, dim)
    x = [f"x{a}" for a in range(lo, dim)]
    v = [f"v{a}" for a in range(dim)]
    state = v[lo:]
    if not proper:
        v[0] = None  # v^0 = 1
    params = ["m"] + _entry_names("g", g_pattern) + _entry_names("f", f_pattern, lo)
    lines, gv = _matvec_lines("gv", "g", g_pattern, v)
    lines += [f"gvv = {_inner(v, gv)}",
              "if gvv <= 0.0:",
              "    _outside_cone(gvv)",
              "s = sqrt(gvv)",
              "ms, ms3 = m / s, m / (s * gvv)"]
    for i in rows:
        for j in rows:
            mass = f"ms * g{i}_{j}" if j in g_pattern[i] else None
            outer = None if "0.0" in (gv[i], gv[j]) else f"ms3 * {gv[i]} * {gv[j]}"
            h = f"{mass} - {outer}" if mass and outer else mass or outer and f"-({outer})"
            lines.append(f"h{i}_{j} = {h or '0.0'}")
    for t, (rank, pairs) in enumerate(tensors):
        params += [f"qn{t}", f"ea{t}", f"eb{t}"]
        first = len(params)
        sa_terms = [[] for _ in range(dim)]
        for p, (a, b, rests) in enumerate(pairs):
            entries = []
            for rest in rests:
                params.append(f"s{t}_{len(params) - first}")
                entries.append(_times(params[-1], *(v[r] for r in rest)))
            lines.append(f"p{t}_{p} = {_sum(entries)}")
            sa_terms[a].append(_times(f"p{t}_{p}", v[b]))
            if a != b:
                sa_terms[b].append(_times(f"p{t}_{p}", v[a]))
        sa = []
        for i, terms in enumerate(sa_terms):
            if terms:
                lines.append(f"sa{t}_{i} = {_sum(terms)}")
            sa.append(f"sa{t}_{i}" if terms else "0.0")
        c = f"c{t}"
        lines += [f"{c} = {_inner(v, sa)}",
                  f"if {c} {'<=' if rank % 2 == 0 else '=='} 0.0:",
                  f"    _checked_radicand({rank}, {c})",
                  f"k1 = qn{t} * abs({c}) ** ea{t}",
                  f"k2 = qn{t} * abs({c}) ** eb{t} if {c} > 0.0 else -qn{t} * abs({c}) ** eb{t}"]
        for p, (a, b, _) in enumerate(pairs):
            if a >= lo:
                lines.append(f"h{a}_{b} += k1 * p{t}_{p}")
                if a != b:
                    lines.append(f"h{b}_{a} += k1 * p{t}_{p}")
        nz = [i for i in rows if sa[i] != "0.0"]
        lines += [f"k2s{i} = k2 * {sa[i]}" for i in nz]
        lines += [f"h{i}_{j} -= k2s{i} * {sa[j]}" for i in nz for j in nz]
    rhs_lines, rhs = _matvec_lines("r", "f", f_pattern, v, lo)
    lines += rhs_lines
    A = [[f"h{i}_{j}" for j in rows] for i in rows]
    if proper:  # border H with the gauge row (g v)^T a = row = 0
        A = [row + [gi] for row, gi in zip(A, gv)] + [gv + ["0.0"]]
        rhs = rhs + ["0.0"]
    matrix = "[" + ", ".join("[" + ", ".join(row) + "]" for row in A) + "]"
    solved = f"_eliminate({matrix}, [{', '.join(rhs)}])" + (f"[:{dim}]" if proper else "")
    norm2 = _emit_norm2(x + state, v, g_pattern) if proper else []
    return ["def factory(consts):",
            f"    {_unpack(params)}= consts",
            "    def deriv(t, z):",
            f"        {_unpack(x + state)}= z",
            *_indent(lines, 2),
            f"        return [{', '.join(state)}] + {solved}",
            *norm2,
            f"    return deriv, {'norm2' if proper else 'None'}"]


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def integrate(spec: LagrangianSpec, gauge: GaugeChoice, x0, v0,
              tau_end: float, step: float) -> Worldline:
    """Fixed-step RK4 world line from (x0, v0) in the chosen gauge.

    The number of steps is round(tau_end / step), and a ratio that is not
    finite, or a count above MAX_STEPS, is a DimensionMismatch; the initial
    condition must satisfy the gauge condition to 1e-8 and is snapped
    exactly onto it.
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
    ratio = tau_end / step
    if not math.isfinite(ratio):
        raise DimensionMismatch(f"step count tau_end / step = {ratio} is not finite")
    n_steps = int(round(ratio))
    if n_steps < 1:
        raise DimensionMismatch("tau_end shorter than one step")
    if n_steps > MAX_STEPS:
        raise DimensionMismatch(f"step count {n_steps} is above the cap of {MAX_STEPS} steps")

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
