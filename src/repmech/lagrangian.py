"""First-order homogeneous Lagrangian in canonical form and its calculus.

    L(x, v) = q A_a(x) v^a + m sqrt(g_ab(x) v^a v^b)
              + sum_n Q_n * (S_n(x; v, ..., v))^(1/n)

Every term is positively homogeneous of degree one in v, which forces the
Euler identity p.v - L = 0 and makes pi.pi = m^2 an algebraic identity for
the generalized momentum pi = m g v / sqrt(g(v,v)).

Derivatives are closed-form term-wise formulas in the fields' gradients,
except a varying tensor's x-derivative: central differences of
S(x; v, ..., v, .). momentum_fd (FD of eval_L in v) is the oracle. The
identities' residuals (homogeneity, Euler's p.v = L and the mass shell) are
the values the `check` battery reports.

eval_L, momentum, velocity_hessian and position_gradient take x of shape
(..., P) and v of shape (..., N) and return shapes (...), (..., N),
(..., N, N) and (..., P): a single point is the batch shape (), and a batch
costs one numpy call per term. Every field is evaluated once per call, on
the whole batch. P is the metric's position_dim: N for a particle, dimM
for a brane whose velocities are its N Jacobian minors.

el_system(spec, x, v) -> (H, B, gv, row) is the one second-derivative
kernel, on the same batches: H = L_vv, B = L_xv (row c is dp/dx^c) and the
proper-time gauge row (gv, row), from one evaluation of each field.
velocity_hessian is its H, and action_hessian reads H and B from one call.
By Euler's theorem L = p.v, so dL/dx^c = B[c, a] v^a: position_gradient is
that product, with B from el_system's own helper, which does not form H.
The Euler-Lagrange rows H a = F that the world-line integrators solve are
F = dL/dx - B^T.v = (B - B^T).v, which for the charge term is the Lorentz
force q F_ca v^a.

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
    """Raise what the mass term's derivatives raise for a g(v, v) that is not
    positive: a DimensionMismatch for one that overflowed to -inf or nan."""
    if not -np.inf < gvv:
        raise DimensionMismatch(f"g(v, v) overflows to {gvv}")
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


def generalized_momentum(spec: LagrangianSpec, x, v) -> np.ndarray:
    """pi_a = p_a minus the potential and tensor contributions = m g v / sqrt(g(v,v)).

    Takes x and v of shape (..., N); its oracle is momentum_fd of the mass-only spec.
    """
    x, v = spec._check_point(x, v)
    if not spec._mass_on:
        return np.zeros(v.shape)
    _, gv, gvv = _mass_term_data(spec, x, v)
    return _per_point(spec.mass) * gv / np.sqrt(gvv)[..., None]


def hamiltonian_residual(spec: LagrangianSpec, x, v, fd: bool = False):
    """|p.v - L| / max(|p.v| + |L|, 1e-300), shape (...) (a float for a single point).

    Zero by Euler's theorem; p is momentum, or momentum_fd for fd=True.
    """
    p = momentum_fd(spec, x, v) if fd else momentum(spec, x, v)
    pv = np.vecdot(p, np.asarray(v, dtype=float))
    lag = eval_L(spec, x, v)
    res = np.abs(pv - lag) / np.maximum(np.abs(pv) + np.abs(lag), 1e-300)
    return float(res) if res.ndim == 0 else res


def mass_shell_residual(spec: LagrangianSpec, x, v):
    """pi . g^{-1} . pi - m^2; an algebraic identity whenever the mass term is on.

    x and v have shape (..., N); the result has shape (...), a float for a
    single point.
    """
    x, v = spec._check_point(x, v)
    pi = generalized_momentum(spec, x, v)
    g = spec.metric(x)
    res = np.vecdot(pi, np.linalg.solve(g, pi[..., None])[..., 0]) - spec.mass ** 2
    return float(res) if res.ndim == 0 else res


def homogeneity_residual(spec: LagrangianSpec, x, v, lam):
    """|L(x, lam v) - lam L(x, v)| / (lam max(|L(x, v)|, 1)) for lam > 0.

    lam is a float or one scale per point; shape (...), a float for a single
    point. A scale that is not positive, nan included, raises DimensionMismatch.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam > 0):
        raise DimensionMismatch("homogeneity scale must be positive")
    x, v = spec._check_point(x, v)
    lag = eval_L(spec, x, v)
    res = np.abs(eval_L(spec, x, lam[..., None] * v) - lam * lag) / (
        lam * np.maximum(np.abs(lag), 1.0))
    return float(res) if res.ndim == 0 else res


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


def _tensor_contractions(tensor, x, v):
    """S(v, ..., v, .^2), its k = 1 value s_a = S(v, ..., v, .) and the checked radicand s_a v^a."""
    s_ab = tensor.partial_contraction(x, v, 2)
    s_a = np.matvec(s_ab, v)
    return s_ab, s_a, _checked_radicand(tensor.rank, np.vecdot(s_a, v))


def _tensor_mixed(q_n, tensor, x, v, s_a, c):
    """d p_a / d x^c of a tensor term as [..., c, a], shape (..., P, N).

    p_a = Q_n s_a |c|^(1/n - 1) for s_a = S(x; v, ..., v, .) and c = s_a v^a.
    The one finite difference is the central difference ds of s_a in x, with
    the absolute step FD_STEP on every position axis; dc = ds.v, and the
    powers of |c| multiply the quotients, so a batch rounds as its points.
    """
    n = tensor.rank
    ds = np.swapaxes(central_difference(lambda xx: tensor.partial_contraction(xx, v, 1), x,
                                        np.full(x.shape[-1], FD_STEP)), -1, -2)
    dc, c = np.matvec(ds, v)[..., :, None], c[..., None, None]
    return (_per_point(q_n, 2) * np.abs(c) ** (1.0 / n - 1.0)
            * (ds - (1.0 - 1.0 / n) * dc * s_a[..., None, :] / c))


def _mixed_block(spec, x, v, mass, tensors=None):
    """el_system's B and row at checked (x, v), without H.

    mass is the mass term's _mass_term_data (None without a mass term), so
    its cone check has run, for a constant metric too. tensors (each term's
    _tensor_contractions) are el_system's; without them each varying tensor
    term computes its own. Constant fields add nothing to B.
    """
    B = np.zeros(x.shape + v.shape[-1:])
    row = np.zeros(v.shape[:-1])[()]
    if spec._mass_on and not spec.metric.is_constant:
        _, gv, gvv = mass
        dg_v = np.matvec(spec.metric.gradient(x), v[..., None, :])  # (d_c g) v
        v_dg_v = np.vecdot(dg_v, v[..., None, :])
        s = np.sqrt(gvv)[..., None, None]
        B += _per_point(spec.mass, 2) * (
            dg_v / s - v_dg_v[..., :, None] * gv[..., None, :] / (2.0 * s ** 3))
        row = -0.5 * np.vecdot(v_dg_v, v) if x.shape == v.shape else None
    for i, (q_n, tensor) in enumerate(spec.extra_terms):
        if not tensor.is_constant:
            _, s_a, c = _tensor_contractions(tensor, x, v) if tensors is None else tensors[i]
            B += _tensor_mixed(q_n, tensor, x, v, s_a, c)
    if spec._charge_on and not spec.potential.is_constant:
        B += _per_point(spec.charge, 2) * np.swapaxes(spec.potential.jacobian(x), -1, -2)
    return B, row


@_first_bad_point
def el_system(spec: LagrangianSpec, x, v):
    """(H, B, gv, row) at (x, v): L_vv, L_xv and the proper-time gauge row.

    H = d2 L / dv dv has shape (..., N, N) and B[..., c, a] = d2 L / dx^c dv^a
    shape (..., P, N): row c of B is dp/dx^c. Each field is evaluated once:
    the metric, its gradient and the potential Jacobian, and each tensor is
    contracted once, down to S(v, ..., v, .^2), which v then contracts to its
    k = 1 and k = 0 values. B is analytic for the charge and mass terms; a
    varying tensor term takes central differences of S(v, ..., v, .) in x.

    gv = g.v, shape (..., N) (None without a mass term), and
    row = -1/2 d_c g_ab v^c v^a v^b, shape (...) (zero for a constant
    metric; None for a varying one where P != N, as on a brane), are the
    differentiated proper-time gauge row that borders H.
    """
    x, v = spec._check_point(x, v)
    H = np.zeros(v.shape + v.shape[-1:])
    mass = None
    if spec._mass_on:
        mass = _mass_term_data(spec, x, v)
        H += _mass_hessian(spec.mass, *mass)
    tensors = [_tensor_contractions(tensor, x, v) for _, tensor in spec.extra_terms]
    for (q_n, tensor), (s_ab, s_a, c) in zip(spec.extra_terms, tensors):
        H += _tensor_hessian(q_n, tensor.rank, c, s_a, s_ab)
    B, row = _mixed_block(spec, x, v, mass, tensors)
    return H, B, None if mass is None else mass[1], row


def velocity_hessian(spec: LagrangianSpec, x, v) -> np.ndarray:
    """d2 L / dv dv, shape (..., N, N): el_system's H.

    Singular along v (degree-0 homogeneity of the momentum).
    """
    return el_system(spec, x, v)[0]


@_first_bad_point
def _position_block(spec: LagrangianSpec, x, v):
    """el_system's B at (x, v), after the mass term's cone check and, since a
    constant term adds nothing to B, the sign of each constant even-rank
    contraction (a varying term's radicand is _mixed_block's check)."""
    x, v = spec._check_point(x, v)
    mass = _mass_term_data(spec, x, v) if spec._mass_on else None
    for _, tensor in spec.extra_terms:
        if tensor.is_constant and tensor.rank % 2 == 0:
            signed_root(tensor.contraction(x, v), tensor.rank)  # raises where L is undefined
    return _mixed_block(spec, x, v, mass)[0]


def position_gradient(spec: LagrangianSpec, x, v) -> np.ndarray:
    """dL/dx^c at fixed v, shape (..., P): B[c, a] v^a, bit for bit, for el_system's B.

    Zero when every field is constant. Raises what el_system raises for the
    mass term: SpacelikeVelocity or NullVelocity outside the open cone; a
    negative even-rank contraction raises NegativeEvenRadicand, as in eval_L.
    """
    return np.matvec(_position_block(spec, x, v), np.asarray(v, dtype=float))


def momentum_position_directional(spec: LagrangianSpec, x, v, direction) -> np.ndarray:
    """(dp_a / dx^c) w^c for a position direction w: w contracted with el_system's B."""
    return np.asarray(direction, dtype=float) @ _position_block(spec, x, v)


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
