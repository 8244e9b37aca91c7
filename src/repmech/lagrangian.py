"""First-order homogeneous Lagrangian in canonical form and its calculus.

    L(x, v) = q A_a(x) v^a + m sqrt(g_ab(x) v^a v^b)
              + sum_n Q_n * (S_n(x; v, ..., v))^(1/n)

Every term is positively homogeneous of degree one in v, which forces the
Euler identity p.v - L = 0 and makes pi.pi = m^2 an algebraic identity for
the generalized momentum pi = m g v / sqrt(g(v,v)).

Derivatives come in two modes: closed-form term-wise formulas (primary) and
central finite differences of eval_L (independent oracle).

eval_L, momentum, velocity_hessian and position_gradient take x and v of
one shape (..., N) and return shapes (...), (..., N), (..., N, N) and
(..., N): a single point is the batch shape (), and a batch of points costs
one numpy call per term. Fields that do not vary with position are
evaluated once per call; the others once per point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
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


@dataclass(frozen=True)
class LagrangianSpec:
    """Couplings plus background fields; the single source of truth for all terms."""

    metric: MetricField
    mass: float = 0.0
    charge: float = 0.0
    potential: VectorPotentialField = None
    extra_terms: Tuple[Tuple[float, SymmetricTensorField], ...] = ()

    def __post_init__(self):
        if self.mass < 0:
            raise DimensionMismatch("mass must be nonnegative")
        if self.potential is None:
            object.__setattr__(self, "potential", zero_potential(self.metric.dim))
        if self.potential.dim != self.metric.dim:
            raise DimensionMismatch("potential and metric dimensions differ")
        terms = tuple((float(q), s) for q, s in self.extra_terms)
        ranks = [s.rank for _, s in terms]
        if len(set(ranks)) != len(ranks):
            raise DimensionMismatch("extra-term ranks must be distinct")
        for _, s in terms:
            if s.dim != self.metric.dim:
                raise DimensionMismatch("tensor term dimension differs from metric")
        object.__setattr__(self, "extra_terms", terms)

    @property
    def dim(self) -> int:
        return self.metric.dim

    def _check_point(self, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if x.shape != v.shape or x.shape[-1:] != (self.dim,):
            raise DimensionMismatch(
                f"position/velocity must have shape (..., {self.dim}), got {x.shape}, {v.shape}"
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
    """
    @functools.wraps(kernel)
    def checked(spec, x, v):
        try:
            return kernel(spec, x, v)
        except RepMechError:
            x = np.asarray(x, dtype=float)
            v = np.asarray(v, dtype=float)
            if v.ndim < 2 or x.shape != v.shape:
                raise
            n = v.shape[-1]
            for i, (xi, vi) in enumerate(zip(x.reshape(-1, n), v.reshape(-1, n))):
                try:
                    kernel(spec, xi, vi)
                except RepMechError as err:
                    index = np.unravel_index(i, v.shape[:-1])
                    raise type(err)(f"{err} (batch index {tuple(map(int, index))})") from None
            raise

    return checked


def signed_root(value, n: int):
    """Real n-th root; odd ranks use the signed root, even ranks require value >= 0."""
    if n % 2 == 0:
        if _any(value < 0):
            raise NegativeEvenRadicand(f"rank-{n} radicand is negative ({np.min(value)})")
        return value ** (1.0 / n)
    return np.copysign(np.abs(value) ** (1.0 / n), value)


@_first_bad_point
def eval_L(spec: LagrangianSpec, x, v):
    """Evaluate the canonical Lagrangian at (x, v); shape (...)."""
    x, v = spec._check_point(x, v)
    total = np.zeros(v.shape[:-1])[()]  # [()]: a single point's zero is a scalar
    if spec.charge != 0.0:
        total = total + spec.charge * np.vecdot(spec.potential(x), v)
    if spec.mass > 0.0:
        gvv = quadratic_form(spec.metric(x), v)
        if _any(gvv < 0.0):
            raise SpacelikeVelocity(f"g(v,v) = {np.min(gvv)} < 0 with a mass term present")
        total = total + spec.mass * np.sqrt(gvv)
    for q_n, tensor in spec.extra_terms:
        total = total + q_n * signed_root(tensor.contraction(x, v), tensor.rank)
    return total


def _mass_term_data(spec, x, v):
    """g, g.v and g(v,v) of the mass term, where g(v,v) must be positive."""
    g = spec.metric(x)
    gv = np.matvec(g, v)
    gvv = np.vecdot(gv, v)
    if _any(gvv <= 0.0):
        if _any(gvv < 0.0):
            raise SpacelikeVelocity(f"g(v,v) = {np.min(gvv)} < 0")
        raise NullVelocity("momentum of the mass term is undefined on the light cone")
    return g, gv, gvv


def _tensor_radicand(tensor, x, v):
    c = tensor.contraction(x, v)
    if tensor.rank % 2 == 0 and _any(c < 0.0):
        raise NegativeEvenRadicand(f"rank-{tensor.rank} radicand is negative ({np.min(c)})")
    if _any(c == 0.0):
        raise ZeroRadicand(f"rank-{tensor.rank} contraction vanishes; derivative undefined")
    return c


@_first_bad_point
def momentum(spec: LagrangianSpec, x, v) -> np.ndarray:
    """Canonical momentum p_a = dL/dv^a, term-wise closed form; shape (..., N)."""
    x, v = spec._check_point(x, v)
    p = np.zeros(v.shape)
    if spec.charge != 0.0:
        p += spec.charge * spec.potential(x)
    if spec.mass > 0.0:
        _, gv, gvv = _mass_term_data(spec, x, v)
        p += spec.mass * gv / np.sqrt(gvv)[..., None]
    for q_n, tensor in spec.extra_terms:
        n = tensor.rank
        c = _tensor_radicand(tensor, x, v)
        s_contr = tensor.contraction_gradient(x, v) / n  # S_{a b...} v...v
        p += q_n * s_contr / (np.abs(c) ** (1.0 - 1.0 / n))[..., None]
    return p


def momentum_fd(spec: LagrangianSpec, x, v) -> np.ndarray:
    """Independent oracle: central finite differences of eval_L in v at one point."""
    x, v = spec._check_point(x, v)
    return central_difference(lambda vv: eval_L(spec, x, vv), v,
                              MOMENTUM_FD_STEP * np.maximum(1.0, np.abs(v)))


def generalized_momentum(spec: LagrangianSpec, x, v, mode: str = "analytic") -> np.ndarray:
    """pi_a = p_a minus the potential and tensor contributions = m g v / sqrt(g(v,v)).

    Takes x and v of shape (..., N) in the analytic mode. mode="fd"
    recomputes pi at one point as the finite-difference momentum of the
    stripped (mass-only) Lagrangian, keeping the oracle route independent.
    """
    x, v = spec._check_point(x, v)
    if spec.mass == 0.0:
        return np.zeros(v.shape)
    if mode == "fd":
        stripped = LagrangianSpec(metric=spec.metric, mass=spec.mass)
        return momentum_fd(stripped, x, v)
    _, gv, gvv = _mass_term_data(spec, x, v)
    return spec.mass * gv / np.sqrt(gvv)[..., None]


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


def homogeneity_residual(spec: LagrangianSpec, x, v, lam: float) -> float:
    """L(x, lam*v) - lam*L(x, v) for lam > 0."""
    if lam <= 0:
        raise DimensionMismatch("homogeneity scale must be positive")
    x, v = spec._check_point(x, v)
    return eval_L(spec, x, lam * v) - lam * eval_L(spec, x, v)


# ---------------------------------------------------------------------------
# second derivatives and position derivatives (used by the dynamics modules)
# ---------------------------------------------------------------------------

@_first_bad_point
def velocity_hessian(spec: LagrangianSpec, x, v) -> np.ndarray:
    """d2 L / dv dv, shape (..., N, N). Singular along v (degree-0 homogeneity of the momentum)."""
    x, v = spec._check_point(x, v)
    H = np.zeros(v.shape + v.shape[-1:])
    if spec.mass > 0.0:
        g, gv, gvv = _mass_term_data(spec, x, v)
        s = np.sqrt(gvv)[..., None, None]
        H += spec.mass * (g / s - gv[..., :, None] * gv[..., None, :] / s ** 3)
    for q_n, tensor in spec.extra_terms:
        n = tensor.rank
        c = _tensor_radicand(tensor, x, v)
        s_a = tensor.contraction_gradient(x, v) / n
        s_ab = tensor.contraction_hessian(x, v) / (n * (n - 1))
        abs_c = np.abs(c)[..., None, None]
        H += q_n * (n - 1) * (
            s_ab * abs_c ** (1.0 / n - 1.0)
            - np.sign(c)[..., None, None] * (s_a[..., :, None] * s_a[..., None, :])
            * abs_c ** (1.0 / n - 2.0)
        )
    return H


@_first_bad_point
def position_gradient(spec: LagrangianSpec, x, v) -> np.ndarray:
    """dL/dx_c at fixed v, shape (..., N).

    Exact for constant fields, FD-backed field gradients otherwise.
    """
    x, v = spec._check_point(x, v)
    out = np.zeros(v.shape)
    if spec.charge != 0.0 and not spec.potential.is_constant:
        out += spec.charge * np.vecmat(v, spec.potential.jacobian(x))
    if spec.mass > 0.0 and not spec.metric.is_constant:
        _, _, gvv = _mass_term_data(spec, x, v)
        dg = spec.metric.gradient(x)  # [..., c, a, b]
        out += (spec.mass * np.einsum("...cab,...a,...b->...c", dg, v, v)
                / (2.0 * np.sqrt(gvv))[..., None])
    for q_n, tensor in spec.extra_terms:
        if tensor.is_constant:
            continue
        n = tensor.rank
        c = _tensor_radicand(tensor, x, v)
        dc = tensor.position_gradient_of_contraction(x, v)
        out += q_n * dc * (np.abs(c) ** (1.0 / n - 1.0))[..., None] / n
    return out


def momentum_position_directional(spec: LagrangianSpec, x, v, direction) -> np.ndarray:
    """(dp_a / dx^c) w^c for a position direction w; used to expand d/dtau p(x, v)."""
    x, v = spec._check_point(x, v)
    w = np.asarray(direction, dtype=float)
    out = np.zeros(spec.dim)
    if spec.charge != 0.0 and not spec.potential.is_constant:
        out += spec.charge * (spec.potential.jacobian(x) @ w)
    if spec.mass > 0.0 and not spec.metric.is_constant:
        _, gv, gvv = _mass_term_data(spec, x, v)
        s = np.sqrt(gvv)
        dg_w = np.einsum("cab,c->ab", spec.metric.gradient(x), w)
        out += spec.mass * (dg_w @ v / s - gv * (v @ dg_w @ v) / (2.0 * s ** 3))
    for q_n, tensor in spec.extra_terms:
        if tensor.is_constant:
            continue
        # FD of this term's momentum contribution along w, in the parameter
        # t of x + t w with the absolute step FD_STEP
        n = tensor.rank

        def term_p(t):
            xx = x + t[0] * w
            c = _tensor_radicand(tensor, xx, v)
            return q_n * (tensor.contraction_gradient(xx, v) / n) / abs(c) ** (1.0 - 1.0 / n)

        out += central_difference(term_p, np.zeros(1), np.full(1, FD_STEP))[..., 0]
    return out


# ---------------------------------------------------------------------------
# non-relativistic expansion in the one-time chart
# ---------------------------------------------------------------------------

def _check_one_time_chart(g, tol=1e-10):
    off = g - np.diag(np.diag(g))
    if np.max(np.abs(off)) > tol:
        raise NotOneTimeMetric("expansion chart requires a diagonal metric")
    d = np.diag(g)
    if abs(d[0] - 1.0) > tol or np.any(d[1:] >= 0.0):
        raise NotOneTimeMetric(
            "expansion chart requires g_00 = 1 and negative spatial diagonal"
        )
    return d


def nonrelativistic_expansion(spec: LagrangianSpec, x, omega_space) -> Tuple[float, float]:
    """Exact L at v = (1, omega) and its small-velocity quadratic model.

    quadratic = q A_0 + q A_i omega^i + m (1 - 0.5 |g_ii| omega^i omega^i);
    both values are returned so callers can measure the quartic remainder.
    """
    omega = np.asarray(omega_space, dtype=float)
    x = np.asarray(x, dtype=float)
    if omega.shape != (spec.dim - 1,):
        raise DimensionMismatch(f"expected {spec.dim - 1} spatial velocity components")
    g = spec.metric(x)
    d = _check_one_time_chart(g)
    if float(omega @ omega) >= 1.0:
        raise SpacelikeVelocity("expansion requires |omega| < 1")
    v = np.concatenate(([1.0], omega))
    exact = eval_L(spec, x, v)
    a = spec.potential(x)
    quadratic = (spec.charge * (a[0] + float(a[1:] @ omega))
                 + spec.mass * (1.0 - 0.5 * float(np.abs(d[1:]) @ (omega * omega))))
    return exact, quadratic
