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

One fixed-step classical RK4 march serves both gauges and every field;
each pattern supplies only its acceleration and, in proper time, g(v, v)
for the after-step projection. When a field varies, each stage solves the
Euler-Lagrange rows H a = F, where H = L_vv and B = L_xv come from one
lagrangian.el_system call, which evaluates each field once, and
F = (B - B^T).v by Euler's theorem (see _el_rows). When every field is
constant (the metric, the field strength and each tensor term; see
_constant_fields), one plain-float acceleration serves both gauges instead,
from g, the field strength and the tensor entries read once per run.

The march is emitted as Python source and compiled once per pattern
(_kernel, _emit_march): its loop holds the four RK4 stages as straight-line
code, and in proper time the gauge checks and the projection. The
varying-field pattern is the gauge and the dimension; a constant-field
pattern adds the nonzero entries of g and of the field strength, and of the
tensor terms if there are any. Without them one body serves both gauges,
W = g^{-1} f applied to v and, in coordinate time, projected onto x^0,
inline in each stage; with them the systems are solved by Gaussian
elimination unrolled over named entries (_solve_lines), written once per
kernel in a local accel(v) that the four stages call. Every float enters
as an argument of the compiled factory, never as text. The kernels do the
same float operations in the same order as the list loops they replace,
less the terms that are exactly zero and the factors that are exactly 1
(v^0 in coordinate time). While every value stays finite a trajectory
therefore keeps its bits: a dropped zero term can change only the sign of a
zero, which a state that starts without -0.0 never sees.

The march writes only what it reads. A stage position is written only where
the stage's body reads it, which no constant-field body does. A velocity
whose acceleration the body writes as the literal 0.0 (v^3 of a magnetic
field in the (1, 2) plane, and v^0 in proper time) is not carried through
the stages: it gets one u = z + 0.0 per step, which is each of its three
stage values and its value at the step's end exactly, since h > 0 makes
every h * 0.0 the float +0.0. So a start at -0.0 reads +0.0 after one step,
as in the list loop. The states go into one flat list, read back with
np.fromiter.

Measured in-process on a 2-vCPU VM (the march alone over 400 steps, best
of 9 timeit repeats of 5 calls, ranges over 4 runs on a busy host), an RK4
step costs, on dim-4 specs in a uniform magnetic field:

* EM only, coordinate time: 1.5-2.1 us on Minkowski (63 emitted lines),
  2.0-2.7 us with g_01 = 0.1 (77 lines);
* EM only, proper time: 2.0-3.0 us (82 lines);
* a constant rank-3 term, coordinate time: 6.3-9.6 us (95 lines).

The elimination marches of dim 4-5 (rank-3 and rank-4 terms, any metric,
both gauges) are 101-332 emitted lines, and one with a rank-4 term on a
non-diagonal metric takes 1.5-5.9 ms to emit and compile cold (best of 7
builds, ranges over 4 runs), once per pattern.

Integration error shows in energy_drift, the drift of Noether's p_0, which
the exact flow conserves in either gauge when every field is
x^0-independent: it falls as step^4 on a static weak field and as step^5 on
a uniform magnetic rotation. The mass-shell residual pi.g^{-1}.pi - m^2 is
an identity of the momentum map, zero at any (x, v), so it is not logged.
"""

from __future__ import annotations

import linecache
import math
import re
from dataclasses import dataclass
from enum import Enum
from itertools import count
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, GaugeViolation, SingularReducedHessian
from .geometry import quadratic_form
from .lagrangian import (
    LagrangianSpec,
    _checked_radicand,
    _outside_cone,
    el_system,
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
    """Sampled trajectory (tau_k, x_k, v_k) and the gauge deviation of each sample."""

    tau: np.ndarray
    x: np.ndarray
    v: np.ndarray
    gauge: GaugeChoice
    gauge_residual: np.ndarray  # per-sample gauge-condition deviation

    def __post_init__(self):
        n = self.tau.shape[0]
        if self.x.shape[0] != n or self.v.shape[0] != n or self.gauge_residual.shape[0] != n:
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


def _states(flat, width):
    """The march's flat list of states as rows of width floats."""
    return np.fromiter(flat, float, len(flat)).reshape(-1, width)


# ---------------------------------------------------------------------------
# coordinate-time gauge: z = (x^i, v^i), i = 1..N-1
# ---------------------------------------------------------------------------

def _coordinate_accel(spec, t, y, u):
    H, F, *_ = _el_rows(spec, np.array([t, *y]), np.array([1.0, *u]))
    try:
        return np.linalg.solve(H[1:, 1:], F[1:])
    except np.linalg.LinAlgError as exc:
        raise SingularReducedHessian(f"reduced Hessian singular at t={t}") from exc


def _check_reduced_hessian(spec, x, v):
    H = el_system(spec, x, v)[0]
    if np.linalg.cond(H[1:, 1:]) > _COND_LIMIT:
        raise SingularReducedHessian(
            "reduced velocity Hessian is numerically singular at the initial point"
        )


def _integrate_coordinate(spec, x0, v0, taus, h):
    nsp = spec.dim - 1
    march = _compiled_march(spec, GaugeChoice.COORDINATE_TIME)
    zs = _states(march(float(x0[0]), x0[1:].tolist() + v0[1:].tolist(), len(taus) - 1, h),
                 2 * nsp)
    xs = np.column_stack([taus, zs[:, :nsp]])
    vs = np.column_stack([np.ones_like(taus), zs[:, nsp:]])
    return xs, vs


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


def _integrate_proper(spec, x0, v0, taus, h):
    n = spec.dim
    march = _compiled_march(spec, GaugeChoice.PROPER_TIME)
    zs, devs = march(0.0, x0.tolist() + v0.tolist(), len(taus) - 1, h)
    zs = _states(zs, 2 * n)
    dev0 = abs(np.sqrt(quadratic_form(spec.metric(x0), v0)) - 1.0)
    return zs[:, :n], zs[:, n:], np.asarray([dev0] + devs)


def _left_cone(gvv, k):
    if not -math.inf < gvv:
        raise DimensionMismatch(f"g(v, v) overflows to {gvv} at step {k}")
    raise GaugeViolation(f"proper-time velocity left the cone at step {k}")


def _drifted(dev, tol, k):
    raise GaugeViolation(f"gauge drift {dev:.3e} exceeded {tol} at step {k}; reduce the step")


# ---------------------------------------------------------------------------
# constant fields: one plain-float acceleration for both gauges
# ---------------------------------------------------------------------------

def _constant_fields(spec) -> bool:
    """Whether _constant_field_pattern applies: a massive spec whose metric, field
    strength and tensor terms do not vary (a uniform magnetic potential varies,
    but its Jacobian does not)."""
    return (spec.mass > 0.0 and spec.metric.is_constant
            and spec.potential.kind in ("zero", "constant", "uniform-magnetic")
            and all(s.is_constant for _, s in spec.extra_terms))


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


def _constant_field_pattern(spec, proper):
    """(emitter, pattern, values) of a spec with _constant_fields.

    The same equations as _coordinate_accel and _proper_accel, as
    straight-line float code: at one state per call, numpy's per-call
    overhead costs more than the arithmetic. g, the field strength
    f = q (J^T - J), for which F = f v, and each tensor's nonzero entries are
    read once and passed to the kernel's factory; a constant metric has
    row = 0.

    * EM only, either gauge, any constant g: W = g^{-1} f, and a = (s/m) W v,
      s = sqrt(g(v, v)), the bordered system's exact solution with mu = 0
      (f is antisymmetric, so g(v, a) = (s/m) v.f.v = 0). In coordinate time
      the same world line reparametrized by x^0 has, with v = (1, u),
      a^i = (s/m) ((W v)^i - u^i (W v)^0) (Landau & Lifshitz, Classical
      Theory of Fields, section 17).
    * With tensor terms: the mass and tensor Hessians k1 s_ab - k2 s_a s_b,
      eliminated on the reduced (N-1)^2 block or the bordered (N+1)^2 system.

    Every domain check raises what el_system raises at the same state.
    """
    dim = spec.dim
    origin = np.zeros(dim)
    g = spec.metric(origin)
    m = float(spec.mass)
    q = float(spec.charge)
    jac = spec.potential.jacobian(origin)
    g_pattern, g_values = _pattern(g)
    if not spec.extra_terms:
        w_pattern, w_values = _pattern(np.linalg.solve(g, q * (jac.T - jac)))  # g^{-1} f
        return _emit_em, (proper, g_pattern, w_pattern), [m, *g_values, *w_values]
    lo = 0 if proper else 1
    f_pattern, f_values = _pattern(q * (jac.T - jac), lo)
    values = [m, *g_values, *f_values]
    t_patterns = []
    for q_n, tensor in spec.extra_terms:
        t_pattern, t_values = _tensor_pattern(q_n, tensor)
        t_patterns.append(t_pattern)
        values += t_values
    return _emit_elimination, (proper, g_pattern, f_pattern, tuple(t_patterns)), values


def _compiled_march(spec, gauge):
    """The RK4 march of spec in gauge: march(t0, z, n_steps, h) returns the
    n_steps + 1 states, and in proper time the gauge deviation of each step.

    Constant fields take their plain-float pattern; varying fields the
    generic body, one kernel per gauge and dimension."""
    proper = gauge is GaugeChoice.PROPER_TIME
    if _constant_fields(spec):
        emit, pattern, values = _constant_field_pattern(spec, proper)
    else:
        emit, pattern, values = _emit_generic, (proper, spec.dim), [spec]
    return _kernel(emit, *pattern)(values + [GAUGE_TOL] if proper else values)


# ---------------------------------------------------------------------------
# emitted kernels: one straight-line RK4 march, compiled once per pattern
# ---------------------------------------------------------------------------

_KERNELS = {}  # (emitter name, *pattern) -> compiled factory


def _kernel(emit, *pattern):
    """The march factory that _emit_march writes around emit(*pattern),
    compiled on first use.

    The pattern holds only integers (a gauge flag, a dimension, index
    patterns), so every spec of one pattern shares one kernel: the floats, and
    a varying-field spec, enter as the factory's arguments and none is
    formatted into the source. The source is
    registered with linecache under a fixed pseudo-filename, so a traceback
    through a kernel shows its line.
    """
    key = (emit.__name__,) + pattern
    factory = _KERNELS.get(key)
    if factory is None:
        source = "\n".join(_emit_march(emit(*pattern))) + "\n"
        filename = f"<repmech.worldline{key}>"
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        namespace = {"sqrt": math.sqrt, "array": np.array, "quadratic_form": quadratic_form,
                     "_outside_cone": _outside_cone, "_checked_radicand": _checked_radicand,
                     "_singular": _singular, "_left_cone": _left_cone, "_drifted": _drifted,
                     "_coordinate_accel": _coordinate_accel, "_proper_accel": _proper_accel}
        exec(compile(source, filename, "exec"), namespace)
        factory = _KERNELS[key] = namespace["factory"]
    return factory


class _Body(NamedTuple):
    """What _emit_march inlines for one pattern.

    The state holds nv positions, then nv velocities; params names the
    constants, in the order of the factory's list. accel(t, x, v, out) gives
    the lines that set the names out to the accelerations at the time
    expression t and the state names x, v; an acceleration that is exactly
    zero is the line "{out} = 0.0", which the march folds. norm2(x, v), in
    proper time only, gives the lines that set gvv = g(v, v). shared holds
    lines written once, after the constants are unpacked, for the stages to
    call.
    """
    params: list
    nv: int
    accel: Callable
    norm2: Callable | None
    shared: list = []


# names of the march itself, which no body or constant may take: every name
# that starts with z, y or k, u and a number, and the step's own scalars
_MARCH_NAMES = re.compile(r"[zyk]|u\d+$|(?:h|hh|h6|t|t0|n_steps|tol|nrm|dev|devs)$")
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _checked_names(body, x, v, out):
    """The names in a body's lines, after refusing a constant or a name of the
    body's own that the march uses for its own: a body sees the march's names
    only as the state, time and outputs it is given."""
    lines = body.shared + body.accel("t", x, v, out) + (body.norm2(x, v) if body.norm2 else [])
    names = set(_IDENTIFIER.findall("\n".join(lines)))
    own = names - {*x, *v, *out, "t"}
    clash = sorted(n for n in own | set(body.params) if _MARCH_NAMES.match(n))
    if clash:
        raise AssertionError(f"emitted names {clash} clash with the march's own")
    return names


def _emit_march(body):
    """The classical RK4 march of a body, its four stages as straight-line code.

    Stage s holds the state y{s}_* (the step's start z* for s = 0) and the
    accelerations k{s}_*; a position's derivative is its stage's velocity.
    A stage value is written only where it is read: a stage position only
    where the stage's body reads it, and a velocity whose acceleration the
    body writes as the literal 0.0 not at all. Such a velocity takes one
    value u{i} = z{i} + 0.0 for stages 1 to 3 and the step's end, which is
    each of those values exactly: h > 0, so every h * 0.0 is +0.0. The
    step appends its end state to one flat list. In proper time each step
    ends by measuring g(v, v), raising GaugeViolation when v has left the
    cone or drifted from 1 by more than tol, and projecting v back onto
    g(v, v) = 1. The constants are unpacked into the march's locals once
    per call.
    """
    nv = body.nv
    proper = body.norm2 is not None
    z = [f"z{i}" for i in range(2 * nv)]
    outs = [[f"k{s}_{i}" for i in range(nv)] for s in range(4)]
    timed = "t" in _checked_names(body, z[:nv], z[nv:], outs[0])
    first = body.accel("t", z[:nv], z[nv:], outs[0])
    named = _IDENTIFIER.findall("\n".join(first))
    u = {nv + i: f"u{nv + i}" for i, k in enumerate(outs[0])
         if f"{k} = 0.0" in first and named.count(k) == 1}
    states = [z] + [[u.get(i, f"y{s}_{i}") for i in range(2 * nv)] for s in (1, 2, 3)]
    derivs = [state[nv:] + out for state, out in zip(states, outs)]
    lines = []
    for s, (state, out, t, step) in enumerate(zip(states, outs, ("t", "t + hh", "t + hh", "t + h"),
                                                  (None, "hh", "hh", "h"))):
        zeros = {f"{out[i - nv]} = 0.0" for i in u}
        accel = [line for line in body.accel(t, state[:nv], state[nv:], out) if line not in zeros]
        if s == 1:
            lines += [f"{u[i]} = {z[i]} + 0.0" for i in u]
        if s:  # a position where the stage's body reads it; a velocity that u does not carry
            read = set(_IDENTIFIER.findall("\n".join(accel)))
            lines += [f"{y} = {zi} + {step} * {d}"
                      for i, (y, zi, d) in enumerate(zip(state, z, derivs[s - 1]))
                      if (y in read if i < nv else i not in u)]
        lines += accel
    combined = [u.get(i) or f"{zi} + h6 * ({a} + 2.0 * {b} + 2.0 * {c} + {d})"
                for i, (zi, a, b, c, d) in enumerate(zip(z, *derivs))]
    lines.append(f"{_unpack(z)}= {', '.join(combined)}")
    if proper:
        v = z[nv:]
        lines += [*body.norm2(z[:nv], v),
                  "if not gvv > 0.0:",
                  "    _left_cone(gvv, k)",
                  "nrm = sqrt(gvv)",
                  "dev = abs(nrm - 1.0)",
                  "if dev > tol:",
                  "    _drifted(dev, tol, k)",
                  "devs.append(dev)",
                  f"{_unpack(v)}= {', '.join(f'{vi} / nrm' for vi in v)}"]
    lines.append(f"zs += {', '.join(z)},")
    return ["def factory(consts):",
            "    def march(t0, z, n_steps, h):",
            f"        {_unpack(body.params + ['tol'] if proper else body.params)}= consts",
            *_indent(body.shared, 2),
            f"        {_unpack(z)}= z",
            *(["        hh = 0.5 * h"] if "hh" in _IDENTIFIER.findall("\n".join(lines)) else []),
            "        h6 = h / 6.0",
            "        zs = [*z]",
            *(["        devs = []"] if proper else []),
            "        for k in range(n_steps):",
            *(["            t = t0 + k * h"] if timed else []),
            *_indent(lines, 3),
            f"        return {'zs, devs' if proper else 'zs'}",
            "    return march"]


def _unpack(names):
    """The target list of an unpacking assignment: "a, b, " or "()" for none."""
    return "".join(f"{n}, " for n in names) or "()"


def _sum(terms):
    """Terms added left to right, or the literal zero for none."""
    return " + ".join(terms) or "0.0"


def _times(*factors):
    """A left-to-right product; None stands for a factor that is exactly 1."""
    return " * ".join(f for f in factors if f is not None)


def _matvec_lines(out, matrix, pattern, v, first=0):
    """Lines setting out{i} = (M v)_i over M's nonzero entries (named
    {matrix}{i}_{j}), and each row's symbol: out{i}, the entry itself for a
    row whose one entry multiplies a factor that is exactly 1, or 0.0 for an
    empty row."""
    lines, symbols = [], []
    for i, cols in enumerate(pattern, first):
        expr = _sum([_times(f"{matrix}{i}_{j}", v[j]) for j in cols])
        if " " in expr:  # a product or a sum, not a name or the literal zero
            lines.append(f"{out}{i} = {expr}")
            expr = f"{out}{i}"
        symbols.append(expr)
    return lines, symbols


def _inner(u, w):
    """The expression u.w, over the entries of w that are not the literal zero."""
    return _sum([_times(ui, wi) for ui, wi in zip(u, w) if wi != "0.0"])


def _entry_names(matrix, pattern, first=0):
    return [f"{matrix}{i}_{j}" for i, cols in enumerate(pattern, first) for j in cols]


def _indent(lines, depth):
    return [" " * (4 * depth) + line for line in lines]


def _norm2_lines(g_pattern, v):
    """Lines setting gvv = g(v, v) for a constant metric."""
    lines, gv = _matvec_lines("gv", "g", g_pattern, v)
    return lines + [f"gvv = {_inner(v, gv)}"]


def _singular(k):
    raise SingularReducedHessian(f"velocity Hessian system singular (column {k})")


def _solve_lines(n, x):
    """Lines solving the n x n system a{i}_{j} x = b{i} in place, by Gaussian
    elimination with partial pivoting unrolled over the named entries.

    Column k pivots on the first row of largest |a_ik| (strict >) and calls
    _singular(k) on an exactly zero pivot, as the LU factorization behind
    np.linalg.solve fails on one; a row whose multiplier is exactly zero is
    skipped; back substitution runs from the last row, each row's products
    subtracted left to right. x names the solution.
    """
    lines = []
    for k in range(n):
        lines.append(f"p, ap = {k}, abs(a{k}_{k})" if k + 1 < n else f"ap = abs(a{k}_{k})")
        for i in range(k + 1, n):
            lines += [f"aq = abs(a{i}_{k})", "if aq > ap:", f"    p, ap = {i}, aq"]
        lines += ["if ap == 0.0:", f"    _singular({k})"]
        row = [f"a{k}_{j}" for j in range(k, n)] + [f"b{k}"]
        for i in range(k + 1, n):
            other = [f"a{i}_{j}" for j in range(k, n)] + [f"b{i}"]
            lines += [f"{'if' if i == k + 1 else 'elif'} p == {i}:",
                      f"    {_unpack(row + other)}= {', '.join(other + row)}"]
        for i in range(k + 1, n):
            lines += [f"r = a{i}_{k} / a{k}_{k}",
                      "if r != 0.0:",
                      *(f"    a{i}_{j} -= r * a{k}_{j}" for j in range(k + 1, n)),
                      f"    b{i} -= r * b{k}"]
    for k in reversed(range(n)):
        acc = " - ".join([f"b{k}"] + [f"a{k}_{j} * {x[j]}" for j in range(k + 1, n)])
        lines.append(f"{x[k]} = ({acc}) / a{k}_{k}")
    return lines


def _emit_em(proper, g_pattern, w_pattern):
    """EM-only acceleration from W = g^{-1} f: (s/m) W v in proper time, and
    (s/m) ((W v)^i - u^i (W v)^0) in coordinate time, where v = (1, u)."""
    params = ["m"] + _entry_names("g", g_pattern) + _entry_names("w", w_pattern)

    def accel(_t, _x, state_v, out):
        v = [*state_v] if proper else [None, *state_v]  # v^0 = 1
        wv_lines, wv = _matvec_lines("wv", "w", w_pattern, v)
        if not proper:  # project out the time row; an empty one leaves W v as it is
            wv0, wv = wv[0], wv[1:]
            if wv0 != "0.0":
                wv = [f"-({u} * {wv0})" if e == "0.0" else f"({e} - {u} * {wv0})"
                      for e, u in zip(wv, state_v)]
        return [*_norm2_lines(g_pattern, v),
                "if not gvv > 0.0:",  # nan too, at no cost
                "    _outside_cone(gvv)",
                *(["c = sqrt(gvv) / m"] if any(e != "0.0" for e in wv) else []),
                *wv_lines,
                *(f"{o} = c * {e}" if e != "0.0" else f"{o} = 0.0" for o, e in zip(out, wv))]

    norm2 = (lambda _x, v: _norm2_lines(g_pattern, v)) if proper else None
    return _Body(params, len(g_pattern) - (0 if proper else 1), accel, norm2)


def _function(name, args, lines, results):
    """Lines defining name(*args), which runs lines and returns the tuple of results."""
    return [f"def {name}({', '.join(args)}):", *_indent(lines, 1),
            f"    return {', '.join(results)},"]


def _emit_elimination(proper, g_pattern, f_pattern, tensors):
    """The general acceleration: the mass and tensor Hessians and the force,
    solved by _solve_lines on the reduced block (coordinate time) or on the
    system bordered by the gauge row (proper time). It is written once, as
    the function accel(v) that the four stages call."""
    dim = len(g_pattern)
    lo = 0 if proper else 1  # H's rows and columns lo..dim-1 are solved
    rows = range(lo, dim)
    params = ["m"] + _entry_names("g", g_pattern) + _entry_names("f", f_pattern, lo)
    for t, (_, pairs) in enumerate(tensors):
        params += [f"qn{t}", f"ea{t}", f"eb{t}"]
        params += [f"s{t}_{e}" for e in range(sum(len(rests) for _, _, rests in pairs))]

    def h(i, j):
        """The solved system's entry for H_ij."""
        return f"a{i - lo}_{j - lo}"

    def accel_lines(state_v, out):
        v = [*state_v] if proper else [None, *state_v]  # v^0 = 1
        lines, gv = _matvec_lines("gv", "g", g_pattern, v)
        lines += [f"gvv = {_inner(v, gv)}",
                  "if not gvv > 0.0:",
                  "    _outside_cone(gvv)",
                  "s = sqrt(gvv)",
                  "ms, ms3 = m / s, m / (s * gvv)"]
        for i in rows:
            for j in rows:
                mass = f"ms * g{i}_{j}" if j in g_pattern[i] else None
                outer = None if "0.0" in (gv[i], gv[j]) else f"ms3 * {gv[i]} * {gv[j]}"
                entry = f"{mass} - {outer}" if mass and outer else mass or outer and f"-({outer})"
                lines.append(f"{h(i, j)} = {entry or '0.0'}")
        for t, (rank, pairs) in enumerate(tensors):
            entries = count()
            sa_terms = [[] for _ in range(dim)]
            for p, (a, b, rests) in enumerate(pairs):
                terms = [_times(f"s{t}_{next(entries)}", *(v[r] for r in rest)) for rest in rests]
                lines.append(f"p{t}_{p} = {_sum(terms)}")
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
                      f"q1 = qn{t} * abs({c}) ** ea{t}",
                      f"q2 = qn{t} * abs({c}) ** eb{t} if {c} > 0.0 else -qn{t} * abs({c}) ** eb{t}"]
            for p, (a, b, _) in enumerate(pairs):
                if a >= lo:
                    lines.append(f"{h(a, b)} += q1 * p{t}_{p}")
                    if a != b:
                        lines.append(f"{h(b, a)} += q1 * p{t}_{p}")
            nz = [i for i in rows if sa[i] != "0.0"]
            lines += [f"q2s{i} = q2 * {sa[i]}" for i in nz]
            lines += [f"{h(i, j)} -= q2s{i} * {sa[j]}" for i in nz for j in nz]
        lines += [f"b{i - lo} = " + _sum([_times(f"f{i}_{j}", v[j]) for j in cols])
                  for i, cols in enumerate(f_pattern, lo)]
        if not proper:
            return lines + _solve_lines(dim - 1, out)
        # border H with the gauge row (g v)^T a = row = 0
        lines += [f"a{i}_{dim} = {gi}" for i, gi in enumerate(gv)]
        lines += [f"a{dim}_{j} = {gj}" for j, gj in enumerate(gv)]
        lines += [f"a{dim}_{dim} = 0.0", f"b{dim} = 0.0"]
        return lines + _solve_lines(dim + 1, out + ["mu"])

    def accel(_t, _x, v, out):
        return [f"{_unpack(out)}= accel({', '.join(v)})"]

    v, acc = [f"v{i}" for i in rows], [f"acc{i}" for i in rows]
    norm2 = (lambda _x, v: _norm2_lines(g_pattern, v)) if proper else None
    return _Body(params, dim - lo, accel, norm2, _function("accel", v, accel_lines(v, acc), acc))


def _emit_generic(proper, dim):
    """Varying fields: each stage solves the Euler-Lagrange rows of the spec
    by _coordinate_accel or _proper_accel, and proper time measures g(v, v)
    with the spec's metric at the step's end."""

    def accel(t, x, v, out):
        if proper:
            call = f"_proper_accel(spec, array([{', '.join(x)}]), array([{', '.join(v)}]))"
        else:
            call = f"_coordinate_accel(spec, {t}, [{', '.join(x)}], [{', '.join(v)}])"
        return [f"{_unpack(out)}= {call}.tolist()"]

    def norm2(x, v):
        return [f"gvv = quadratic_form(spec.metric(array([{', '.join(x)}])), "
                f"array([{', '.join(v)}]))"]

    return _Body(["spec"], dim if proper else dim - 1, accel, norm2 if proper else None)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def integrate(spec: LagrangianSpec, gauge: GaugeChoice, x0, v0,
              tau_end: float, step: float) -> Worldline:
    """Fixed-step RK4 world line from (x0, v0) in the chosen gauge.

    The number of steps is round(tau_end / step), and a ratio that is not
    finite, or a count above MAX_STEPS, is a DimensionMismatch, as is a
    g(v0, v0) or a field strength at x0 past the float range; the
    initial condition must satisfy the gauge condition to 1e-8 and is
    snapped exactly onto it.
    """
    if spec.dim < 2:
        raise DimensionMismatch(f"a world line needs dimension >= 2, got {spec.dim}")
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if x0.shape != (spec.dim,) or v0.shape != (spec.dim,):
        raise DimensionMismatch(f"initial data must have length {spec.dim}")
    if not (np.isfinite(x0).all() and np.isfinite(v0).all()):
        raise DimensionMismatch(
            f"initial data must be finite, got x0 = {x0.tolist()}, v0 = {v0.tolist()}")
    if step <= 0 or tau_end <= 0:
        raise DimensionMismatch("step and tau_end must be positive")
    if spec._stacked:
        raise DimensionMismatch("integration takes one spec, not a stack with per-point couplings")
    if spec.mass <= 0.0:
        raise SingularReducedHessian(
            "dynamics require the mass term; specs with only rank>=3 terms are rejected"
        )
    with np.errstate(over="ignore"):
        gvv0 = quadratic_form(spec.metric(x0), v0)
    if not math.isfinite(gvv0):
        raise DimensionMismatch(f"g(v0, v0) overflows to {gvv0} at v0 = {v0.tolist()}")
    if spec._charge_on:
        with np.errstate(over="ignore", invalid="ignore"):
            jac = spec.potential.jacobian(x0)
            qf = spec.charge * (jac.T - jac)
        if not np.isfinite(qf).all():
            raise DimensionMismatch(
                f"the field strength q (J^T - J) overflows at x0 = {x0.tolist()}")
    ratio = tau_end / step
    if not math.isfinite(ratio):
        raise DimensionMismatch(f"step count tau_end / step = {ratio} is not finite")
    n_steps = int(round(ratio))
    if n_steps < 1:
        raise DimensionMismatch("tau_end shorter than one step")
    if n_steps > MAX_STEPS:
        raise DimensionMismatch(f"step count {n_steps} is above the cap of {MAX_STEPS} steps")
    h = float(step)
    coordinate = gauge is GaugeChoice.COORDINATE_TIME
    t0 = float(x0[0]) if coordinate else 0.0
    taus = t0 + h * np.arange(n_steps + 1) if math.isfinite(t0 + h * n_steps) else None
    if taus is None or not np.all(np.diff(taus) > 0.0):
        raise DimensionMismatch(
            f"the grid {'x^0' if coordinate else 'tau'} = {t0} + k * {h}, k = 0..{n_steps}, "
            "does not increase strictly to a finite end")

    if coordinate:
        if abs(v0[0] - 1.0) > GAUGE_TOL:
            raise GaugeViolation(f"coordinate-time gauge needs v^0 = 1, got {v0[0]}")
        v0 = v0.copy()
        v0[0] = 1.0
        _check_reduced_hessian(spec, x0, v0)
        xs, vs = _integrate_coordinate(spec, x0, v0, taus, h)
        gauge_res = np.zeros(taus.shape[0])  # v^0 = 1 holds structurally
    elif gauge is GaugeChoice.PROPER_TIME:
        if gvv0 <= 0 or abs(np.sqrt(gvv0) - 1.0) > GAUGE_TOL:
            raise GaugeViolation(f"proper-time gauge needs g(v0,v0) = 1, got {gvv0}")
        v0 = v0 / np.sqrt(gvv0)
        xs, vs, gauge_res = _integrate_proper(spec, x0, v0, taus, h)
    else:
        raise DimensionMismatch(f"unknown gauge {gauge!r}")

    return Worldline(tau=taus, x=xs, v=vs, gauge=gauge, gauge_residual=gauge_res)


def conserved_drift(wl: Worldline, spec: LagrangianSpec) -> float:
    """Maximum |mass-shell residual| over the samples, recomputed from (x, v):
    rounding level (below 1e-12 on the cyclotron) at any step, an identity."""
    return float(np.max(np.abs(mass_shell_residual(spec, wl.x, wl.v))))


def energy_drift(wl: Worldline, spec: LagrangianSpec) -> float:
    """max |p_0 - p_0(0)| over the samples, p = momentum(spec, x, v), in either gauge.

    For x^0-independent fields the exact flow conserves p_0; in coordinate
    time it is minus the reduced Hamiltonian p_i u^i - L (Euler: L = p.v,
    v^0 = 1). Measured orders: 4.00 on a static weak field with an analytic
    phi_grad, in both gauges; 5.0 on a uniform magnetic rotation, where RK4's
    amplitude error is |R(iz)|^2 = 1 - z^6/72 + O(z^8), z = omega*step.
    """
    p0 = momentum(spec, wl.x, wl.v)[:, 0]
    return float(np.max(np.abs(p0 - p0[0])))
