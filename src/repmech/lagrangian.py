"""First-order homogeneous Lagrangian in canonical form and its calculus.

    L(x, v) = q A_a(x) v^a + m sqrt(g_ab(x) v^a v^b)
              + sum_n Q_n * (S_n(x; v, ..., v))^(1/n)

Every term is positively homogeneous of degree one in v, which forces the
Euler identity p.v - L = 0 and makes pi.pi = m^2 an algebraic identity for
the generalized momentum pi = m g v / sqrt(g(v,v)).

Derivatives come in two modes: closed-form term-wise formulas (primary) and
central finite differences of eval_L (independent oracle).

eval_L, momentum, velocity_hessian and position_gradient take x of shape
(..., P) and v of shape (..., N) and return shapes (...), (..., N),
(..., N, N) and (..., P): a single point is the batch shape (), and a batch
costs one numpy call per term. Every field is evaluated once per call, on
the whole batch. P is the metric's position_dim: N for a particle, dimM
for a brane whose velocities are its N Jacobian minors.

el_system(spec, x, v) -> (H, F, gv, row) is the Euler-Lagrange system H a = F
of one particle point and the proper-time gauge row (gv, row) that borders
it, which the world-line integrators solve at every RK4 stage of a spec
with a varying field: H is velocity_hessian and F is position_gradient
minus momentum_position_directional along v, from one evaluation of each
field.
The term formulas are private helpers that both it and those three kernels
call; the kernels stay as the batched forms and as its test oracle.

The couplings m, q and Q_n are floats, or arrays of the batch shape that
give each point its own value; a stack of specs is one spec whose couplings
are such arrays and whose fields return one value per point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeEvenRadicand,
    NotOneTimeMetric,
    NullVelocity,
    RepMechError,
    SpacelikeVelocity,
    ZeroRadicand,
)
from .fields import SymmetricTensorField, VectorPotentialField, zero_potential
from .geometry import FD_STEP, MetricField, central_difference, quadratic_form

# relative step of the finite-difference momentum oracle in v:
# h_a = MOMENTUM_FD_STEP * max(1, |v_a|)
MOMENTUM_FD_STEP = 1e-5


def _coupling(value):
    """A coupling as a float, or as a read-only float array of the batch shape."""
    if np.ndim(value) == 0:
        return float(value)
    value = np.array(value, dtype=float)
    value.setflags(write=False)
    return value


def _per_point(coupling, axes: int = 1):
    """A coupling as a factor of arrays with `axes` per-point axes after the batch.

    A float as it is; an array of the batch shape with `axes` unit axes appended.
    """
    return coupling if type(coupling) is float else coupling.reshape(coupling.shape + (1,) * axes)


@dataclass(frozen=True)
class LagrangianSpec:
    """Couplings plus background fields; the single source of truth for all terms.

    Each coupling (mass, charge, the Q_n of extra_terms) is a float or an
    array that broadcasts against the batch shape of the points the kernels
    are called on. Whether the mass and charge terms are on is settled here,
    once: a term is on when any of its couplings is nonzero.
    """

    metric: MetricField
    mass: float = 0.0
    charge: float = 0.0
    potential: VectorPotentialField = None
    extra_terms: Tuple[Tuple[float, SymmetricTensorField], ...] = ()
    _mass_on: bool = field(default=False, init=False, repr=False, compare=False)
    _charge_on: bool = field(default=False, init=False, repr=False, compare=False)
    _stacked: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        mass, charge = _coupling(self.mass), _coupling(self.charge)
        if np.any(mass < 0):
            raise DimensionMismatch("mass must be nonnegative")
        if self.potential is None:
            object.__setattr__(self, "potential", zero_potential(self.metric.dim))
        if self.potential.dim != self.metric.dim:
            raise DimensionMismatch("potential and metric dimensions differ")
        terms = tuple((_coupling(q), s) for q, s in self.extra_terms)
        for _, s in terms:
            if s.dim != self.metric.dim:
                raise DimensionMismatch("tensor term dimension differs from metric")
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "charge", charge)
        object.__setattr__(self, "extra_terms", terms)
        object.__setattr__(self, "_mass_on", bool(np.any(mass > 0.0)))
        object.__setattr__(self, "_charge_on", bool(np.any(charge != 0.0)))
        object.__setattr__(self, "_stacked", any(
            type(c) is not float for c in (mass, charge) + tuple(q for q, _ in terms)))

    @property
    def dim(self) -> int:
        return self.metric.dim

    def _check_point(self, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        metric = self.metric
        if x.shape != v.shape[:-1] + (metric.position_dim,) or v.shape[-1:] != (metric.dim,):
            raise DimensionMismatch(
                f"position/velocity must have shapes (..., {metric.position_dim}) and "
                f"(..., {metric.dim}), got {x.shape}, {v.shape}"
            )
        return x, v

    @property
    def all_fields_constant(self) -> bool:
        return (self.metric.is_constant
                and self.potential.is_constant
                and all(s.is_constant for _, s in self.extra_terms))


def _any(mask) -> bool:
    """Whether a domain check flags any point of a batch.

    A single point's mask is a numpy or Python bool; numpy's .any() on it
    would cost a sizeable share of a single-point kernel call.
    """
    return bool(mask.any()) if getattr(mask, "ndim", 0) else bool(mask)


def _first_bad_point(kernel):
    """Make a batch that fails a domain check raise what its first failing point raises.

    The checks run term by term over the whole batch, so a batch whose points
    fail different checks would otherwise raise by term, not by point order.
    Bisection finds that point in O(log n) batched calls; its error, run alone,
    is raised with its batch_index (also in the message), else the batch's own.
    A spec with per-point couplings holds one value per point of its batch and
    cannot be cut down with it, so its batch raises its own error.
    """
    @functools.wraps(kernel)
    def checked(spec, x, v):
        try:
            return kernel(spec, x, v)
        except RepMechError:
            x = np.asarray(x, dtype=float)
            v = np.asarray(v, dtype=float)
            if v.ndim < 2 or x.shape[:-1] != v.shape[:-1] or spec._stacked:
                raise
            xs = x.reshape(-1, x.shape[-1])
            vs = v.reshape(-1, v.shape[-1])
            lo, hi = 0, len(vs)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                try:
                    kernel(spec, xs[lo:mid], vs[lo:mid])
                except RepMechError:
                    hi = mid
                else:
                    lo = mid
            try:
                kernel(spec, xs[lo], vs[lo])
            except RepMechError as err:
                index = tuple(map(int, np.unravel_index(lo, v.shape[:-1])))
                found = type(err)(f"{err} (batch index {index})")
                found.batch_index = index
                raise found from None
            raise

    return checked


def signed_root(value, n: int):
    """Real n-th root; odd ranks use the signed root, even ranks require value >= 0."""
    if n % 2 == 0:
        if _any(value < 0):
            raise NegativeEvenRadicand(f"rank-{n} radicand is negative ({np.min(value)})")
        return value ** (1.0 / n)
    return np.copysign(np.abs(value) ** (1.0 / n), value)


def eval_L(spec: LagrangianSpec, x, v):
    """Evaluate the canonical Lagrangian at (x, v); shape (...)."""
    return eval_L_and_radicand(spec, x, v)[0]


@_first_bad_point
def eval_L_and_radicand(spec: LagrangianSpec, x, v):
    """(L, g(v,v)) at (x, v), each of shape (...), from one evaluation of each field.

    g(v,v) is the mass term's radicand, None without a mass term (the metric
    is then not evaluated); a brane reads its smallest volume radicand here.
    """
    x, v = spec._check_point(x, v)
    total = np.zeros(v.shape[:-1])[()]  # [()]: a single point's zero is a scalar
    gvv = None
    if spec._charge_on:
        total += spec.charge * np.vecdot(spec.potential(x), v)
    if spec._mass_on:
        gvv = quadratic_form(spec.metric(x), v)
        if _any(gvv < 0.0):
            raise SpacelikeVelocity(f"g(v,v) = {np.min(gvv)} < 0 with a mass term present")
        total += spec.mass * np.sqrt(gvv)
    for q_n, tensor in spec.extra_terms:
        total += q_n * signed_root(tensor.contraction(x, v), tensor.rank)
    return total, gvv


def _mass_term_data(spec, x, v):
    """g, g.v and g(v,v) of the mass term, where g(v,v) must be positive."""
    g = spec.metric(x)
    gv = np.matvec(g, v)
    gvv = np.vecdot(gv, v)
    if _any(gvv <= 0.0):
        _outside_cone(np.min(gvv))
    return g, gv, gvv


def _tensor_radicand(tensor, x, v):
    return _checked_radicand(tensor.rank, tensor.contraction(x, v))


def _checked_radicand(n, c):
    """A rank-n contraction c whose root can be differentiated: nonzero, and positive for even n."""
    if n % 2 == 0 and _any(c < 0.0):
        raise NegativeEvenRadicand(f"rank-{n} radicand is negative ({np.min(c)})")
    if _any(c == 0.0):
        raise ZeroRadicand(f"rank-{n} contraction vanishes; derivative undefined")
    return c


def _outside_cone(gvv):
    """Raise what the mass term's derivatives raise for a g(v, v) <= 0."""
    if gvv < 0.0:
        raise SpacelikeVelocity(f"g(v,v) = {gvv} < 0")
    raise NullVelocity("momentum of the mass term is undefined on the light cone")


@_first_bad_point
def momentum(spec: LagrangianSpec, x, v) -> np.ndarray:
    """Canonical momentum p_a = dL/dv^a, term-wise closed form; shape (..., N)."""
    x, v = spec._check_point(x, v)
    p = np.zeros(v.shape)
    if spec._charge_on:
        p += _per_point(spec.charge) * spec.potential(x)
    if spec._mass_on:
        _, gv, gvv = _mass_term_data(spec, x, v)
        p += _per_point(spec.mass) * gv / np.sqrt(gvv)[..., None]
    for q_n, tensor in spec.extra_terms:
        n = tensor.rank
        c = _tensor_radicand(tensor, x, v)
        s_contr = tensor.partial_contraction(x, v, 1)  # S_{a b...} v...v
        p += _per_point(q_n) * s_contr / (np.abs(c) ** (1.0 - 1.0 / n))[..., None]
    return p


def momentum_fd(spec: LagrangianSpec, x, v) -> np.ndarray:
    """Independent oracle: central finite differences of eval_L in v, shape (..., N)."""
    x, v = spec._check_point(x, v)
    return central_difference(lambda vv: eval_L(spec, x, vv), v,
                              MOMENTUM_FD_STEP * np.maximum(1.0, np.abs(v)))


def generalized_momentum(spec: LagrangianSpec, x, v, mode: str = "analytic") -> np.ndarray:
    """pi_a = p_a minus the potential and tensor contributions = m g v / sqrt(g(v,v)).

    Takes x and v of shape (..., N) in either mode. mode="fd" recomputes pi,
    for the whole batch, as the finite-difference momentum of the stripped
    (mass-only) Lagrangian, keeping the oracle route independent.
    """
    x, v = spec._check_point(x, v)
    if not spec._mass_on:
        return np.zeros(v.shape)
    if mode == "fd":
        stripped = LagrangianSpec(metric=spec.metric, mass=spec.mass)
        return momentum_fd(stripped, x, v)
    _, gv, gvv = _mass_term_data(spec, x, v)
    return _per_point(spec.mass) * gv / np.sqrt(gvv)[..., None]


def hamiltonian_residual(spec: LagrangianSpec, x, v, mode: str = "analytic") -> float:
    """p.v - L; identically zero by Euler's theorem for degree-1 homogeneity."""
    p = momentum(spec, x, v) if mode == "analytic" else momentum_fd(spec, x, v)
    return float(p @ np.asarray(v, dtype=float)) - eval_L(spec, x, v)


def mass_shell_residual(spec: LagrangianSpec, x, v, mode: str = "analytic"):
    """pi . g^{-1} . pi - m^2; an algebraic identity whenever the mass term is on.

    x and v have shape (..., N); the result has shape (...), a float for a
    single point.
    """
    x, v = spec._check_point(x, v)
    pi = generalized_momentum(spec, x, v, mode=mode)
    g = spec.metric(x)
    res = np.vecdot(pi, np.linalg.solve(g, pi[..., None])[..., 0]) - spec.mass ** 2
    return float(res) if res.ndim == 0 else res


def homogeneity_residual(spec: LagrangianSpec, x, v, lam):
    """L(x, lam*v) - lam*L(x, v) for lam > 0, a float or one scale per point."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise DimensionMismatch("homogeneity scale must be positive")
    x, v = spec._check_point(x, v)
    return eval_L(spec, x, lam[..., None] * v) - lam * eval_L(spec, x, v)


# ---------------------------------------------------------------------------
# second derivatives and position derivatives (used by the dynamics modules)
# ---------------------------------------------------------------------------

def _mass_hessian(mass, g, gv, gvv):
    """d2/dv2 of m sqrt(g(v,v)), from g, g.v and g(v,v)."""
    s = np.sqrt(gvv)[..., None, None]
    return _per_point(mass, 2) * (g / s - gv[..., :, None] * gv[..., None, :] / s ** 3)


def _tensor_hessian(q_n, n, c, s_a, s_ab):
    """d2/dv2 of Q_n c^(1/n), from c = S(v, ..., v) and its k = 1 and k = 2 partial contractions."""
    abs_c = np.abs(c)[..., None, None]
    return _per_point(q_n, 2) * (n - 1) * (
        s_ab * abs_c ** (1.0 / n - 1.0)
        - np.sign(c)[..., None, None] * (s_a[..., :, None] * s_a[..., None, :])
        * abs_c ** (1.0 / n - 2.0)
    )


def _charge_gradient(charge, jac, v):
    """d/dx^c of q A_a v^a: q v^a d_c A_a."""
    return _per_point(charge) * np.vecmat(v, jac)


def _charge_directional(charge, jac, w):
    """(d p_a / d x^c) w^c of the charge term, at one point: q d_c A_a w^c."""
    return charge * (jac @ w)


def _mass_gradient(mass, dg, v, gvv):
    """d/dx^c of m sqrt(g(v,v)): m d_c g_ab v^a v^b / (2 sqrt(g(v,v)))."""
    return (_per_point(mass) * np.einsum("...cab,...a,...b->...c", dg, v, v)
            / (2.0 * np.sqrt(gvv))[..., None])


def _mass_directional(mass, dg_w, v, gv, gvv):
    """(d p_a / d x^c) w^c of the mass term at one point, from dg_w = d_c g w^c."""
    s = np.sqrt(gvv)
    return mass * (dg_w @ v / s - gv * (v @ dg_w @ v) / (2.0 * s ** 3))


def _tensor_gradient(q_n, tensor, x, v, c):
    """d/dx of Q_n c^(1/n) for c = S(x; v, ..., v), through the FD contraction gradient."""
    n = tensor.rank
    dc = tensor.position_gradient_of_contraction(x, v)
    return _per_point(q_n) * dc * (np.abs(c) ** (1.0 / n - 1.0))[..., None] / n


def _tensor_directional(q_n, tensor, x, v, w):
    """(d p_a / d x^c) w^c of a tensor term at (x, v) of shape (..., N).

    FD of the term's momentum along w, in the parameter t of x + t w with
    the absolute step FD_STEP.
    """
    n = tensor.rank

    def term_p(t):
        xx = x + t[0] * w
        c = _tensor_radicand(tensor, xx, v)
        root = np.abs(c) ** (1.0 - 1.0 / n)
        return _per_point(q_n) * tensor.partial_contraction(xx, v, 1) / root[..., None]

    return central_difference(term_p, np.zeros(1), np.full(1, FD_STEP))[..., 0]


@_first_bad_point
def velocity_hessian(spec: LagrangianSpec, x, v) -> np.ndarray:
    """d2 L / dv dv, shape (..., N, N). Singular along v (degree-0 homogeneity of the momentum)."""
    x, v = spec._check_point(x, v)
    H = np.zeros(v.shape + v.shape[-1:])
    if spec._mass_on:
        H += _mass_hessian(spec.mass, *_mass_term_data(spec, x, v))
    for q_n, tensor in spec.extra_terms:
        c = _tensor_radicand(tensor, x, v)
        H += _tensor_hessian(q_n, tensor.rank, c, tensor.partial_contraction(x, v, 1),
                             tensor.partial_contraction(x, v, 2))
    return H


@_first_bad_point
def position_gradient(spec: LagrangianSpec, x, v) -> np.ndarray:
    """dL/dx_c at fixed v, shape (..., P).

    Exact for constant fields, FD-backed field gradients otherwise.
    """
    x, v = spec._check_point(x, v)
    out = np.zeros(x.shape)
    if spec._charge_on and not spec.potential.is_constant:
        out += _charge_gradient(spec.charge, spec.potential.jacobian(x), v)
    if spec._mass_on and not spec.metric.is_constant:
        _, _, gvv = _mass_term_data(spec, x, v)
        out += _mass_gradient(spec.mass, spec.metric.gradient(x), v, gvv)
    for q_n, tensor in spec.extra_terms:
        if not tensor.is_constant:
            out += _tensor_gradient(q_n, tensor, x, v, _tensor_radicand(tensor, x, v))
    return out


@_first_bad_point
def position_velocity_hessian(spec: LagrangianSpec, x, v) -> np.ndarray:
    """d2 L / dx^c dv^a as B[..., c, a], shape (..., P, N): row c is dp/dx^c.

    The batched form of momentum_position_directional (w.B is its value along
    w): analytic for the charge and mass terms, from one potential Jacobian
    and one metric gradient per call; a varying tensor term takes the
    directional FD of its momentum along each position axis.
    """
    x, v = spec._check_point(x, v)
    out = np.zeros(x.shape + v.shape[-1:])
    if spec._charge_on and not spec.potential.is_constant:
        out += _per_point(spec.charge, 2) * np.swapaxes(spec.potential.jacobian(x), -1, -2)
    if spec._mass_on and not spec.metric.is_constant:
        _, gv, gvv = _mass_term_data(spec, x, v)
        dg_v = np.matvec(spec.metric.gradient(x), v[..., None, :])  # (d_c g) v
        v_dg_v = np.vecdot(dg_v, v[..., None, :])
        s = np.sqrt(gvv)[..., None, None]
        out += _per_point(spec.mass, 2) * (
            dg_v / s - v_dg_v[..., :, None] * gv[..., None, :] / (2.0 * s ** 3))
    for q_n, tensor in spec.extra_terms:
        if not tensor.is_constant:
            out += np.stack([_tensor_directional(q_n, tensor, x, v, w)
                             for w in np.eye(x.shape[-1])], axis=-2)
    return out


def momentum_position_directional(spec: LagrangianSpec, x, v, direction) -> np.ndarray:
    """(dp_a / dx^c) w^c for a position direction w; used to expand d/dtau p(x, v)."""
    x, v = spec._check_point(x, v)
    w = np.asarray(direction, dtype=float)
    out = np.zeros(spec.dim)
    if spec._charge_on and not spec.potential.is_constant:
        out += _charge_directional(spec.charge, spec.potential.jacobian(x), w)
    if spec._mass_on and not spec.metric.is_constant:
        _, gv, gvv = _mass_term_data(spec, x, v)
        dg_w = np.einsum("cab,c->ab", spec.metric.gradient(x), w)
        out += _mass_directional(spec.mass, dg_w, v, gv, gvv)
    for q_n, tensor in spec.extra_terms:
        if not tensor.is_constant:
            out += _tensor_directional(q_n, tensor, x, v, w)
    return out


def el_system(spec: LagrangianSpec, x, v):
    """(H, F, gv, row) at one particle point (x, v) of shape (N,).

    H a = F are the Euler-Lagrange equations: H is velocity_hessian and
    F = position_gradient - (dp/dx).v, the rows that the acceleration must
    balance, so F - H a is the Euler-Lagrange residual; both come from one
    evaluation of each field, with the same domain checks. Each tensor is
    contracted once, down to S(v, ..., v, .^2), which v then contracts to
    its k = 1 and k = 0 values.

    gv = g.v (None without a mass term) and row = -1/2 d_c g_ab v^c v^a v^b
    (0.0 for a constant metric) are the differentiated proper-time gauge
    row that borders H.
    """
    x, v = spec._check_point(x, v)
    if v.ndim != 1 or x.shape != v.shape:
        raise DimensionMismatch(f"el_system takes one point (x, v) of a particle, each of "
                                f"shape ({spec.dim},), got {x.shape}, {v.shape}")
    H = np.zeros((v.size, v.size))
    F = np.zeros(v.size)
    gv, row = None, 0.0
    if spec._mass_on:
        g, gv, gvv = _mass_term_data(spec, x, v)
        H += _mass_hessian(spec.mass, g, gv, gvv)
        if not spec.metric.is_constant:
            dg = spec.metric.gradient(x)
            dg_v = np.einsum("cab,c->ab", dg, v)
            F += (_mass_gradient(spec.mass, dg, v, gvv)
                  - _mass_directional(spec.mass, dg_v, v, gv, gvv))
            row = -0.5 * (v @ dg_v @ v)
    for q_n, tensor in spec.extra_terms:
        s_ab = tensor.partial_contraction(x, v, 2)
        s_a = v.dot(s_ab)
        c = _checked_radicand(tensor.rank, v.dot(s_a))
        H += _tensor_hessian(q_n, tensor.rank, c, s_a, s_ab)
        if not tensor.is_constant:
            F += (_tensor_gradient(q_n, tensor, x, v, c)
                  - _tensor_directional(q_n, tensor, x, v, v))
    if spec._charge_on and not spec.potential.is_constant:
        jac = spec.potential.jacobian(x)
        F += _charge_gradient(spec.charge, jac, v) - _charge_directional(spec.charge, jac, v)
    return H, F, gv, row


# ---------------------------------------------------------------------------
# non-relativistic expansion in the one-time chart
# ---------------------------------------------------------------------------

def nonrelativistic_expansion(spec: LagrangianSpec, x, omega_space) -> Tuple[float, float]:
    """Exact L at v = (1, omega) and its small-velocity quadratic model.

    quadratic = q A_0 + q A_i omega^i + m (1 - 0.5 |g_ii| omega^i omega^i);
    both values are returned so callers can measure the quartic remainder.
    The chart must be one-time diagonal (g_00 = 1, g_ii < 0); whether v is
    timelike is eval_L's check, which raises when the mass term is on.
    """
    omega = np.asarray(omega_space, dtype=float)
    if omega.shape != (spec.dim - 1,):
        raise DimensionMismatch(f"expected {spec.dim - 1} spatial velocity components")
    g = spec.metric(x)
    d = np.diag(g)
    if np.max(np.abs(g - np.diag(d))) > 1e-10 or abs(d[0] - 1.0) > 1e-10 or np.any(d[1:] >= 0):
        raise NotOneTimeMetric("expansion chart requires a diagonal metric with g_00 = 1 "
                               "and a negative spatial diagonal")
    v = np.concatenate(([1.0], omega))
    exact = eval_L(spec, x, v)
    a = spec.potential(x)
    quadratic = (spec.charge * (a[0] + float(a[1:] @ omega))
                 + spec.mass * (1.0 - 0.5 * float(np.abs(d[1:]) @ (omega * omega))))
    return exact, quadratic
