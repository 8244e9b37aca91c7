"""Seeded random-spec property sweeps over the homogeneous-Lagrangian identities.

SWEEPS is the battery behind `check`, one row per sweep. A sweep draws S
samples (spec, x, v) spanning EM + metric + rank-3/4 tensor terms, evaluates
one residual on all of them in one batched kernel call (an identity's is the
Lagrangian's own), and reports the worst against its tolerance.

The draw is a stack. random_spec draws the S specs as arrays, one row per
sample (a SpecStack); its spec() is one LagrangianSpec whose couplings and
fields hold one value per sample, so the kernels run on the (S, N) states
directly. States are rejection-sampled so radicands stay away from zero,
keeping finite-difference oracles inside their validity region; the
identity claims themselves hold on the whole open domain. random_state
draws candidates only for the rows not yet accepted, at most
STATE_ATTEMPTS per row, and draw_spec_state gives a row that runs out of
attempts a fresh spec.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .fields import (
    potential_from_function,
    symmetric_tensor_field,
    tensor_columns,
    tensor_indices,
)
from .geometry import metric_from_function, quadratic_form
from .lagrangian import (
    LagrangianSpec,
    generalized_momentum,
    hamiltonian_residual,
    homogeneity_residual,
    mass_shell_residual,
    momentum,
    momentum_fd,
)

RADICAND_FLOOR = 0.05  # least |tensor radicand| / |v^0|^n of a drawn state
STATE_ATTEMPTS = 100  # candidate states per row before its spec is redrawn


@dataclass(frozen=True)
class SweepResult:
    name: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool


def _per_sample_potential(values):
    """The potential whose value at sample i's point is values[i], for (S, N) points."""
    return potential_from_function(values.shape[-1], lambda x: values)


@dataclass(frozen=True)
class SpecStack:
    """S random one-time-metric specs as arrays, one row per sample.

    Row i's metric is diag(diagonal[i]) + 2 phi_i(x) e_0 e_0^T with
    phi_i(x) = amplitude[i] . sin(frequency[i] x): a flat row has amplitude
    0, a curved (weak-field) row the diagonal (1, -1, ..., -1). Its potential
    is the constant potential[i], and its extra terms are
    couplings[i, 0] * S3^(1/3) + couplings[i, 1] * S4^(1/4), with the
    entry arrays rank3[i] and rank4[i] of the symmetric tensors.
    """

    curved: np.ndarray  # (S,) bool
    diagonal: np.ndarray  # (S, N)
    amplitude: np.ndarray  # (S, N)
    frequency: np.ndarray  # (S,)
    mass: np.ndarray  # (S,)
    charge: np.ndarray  # (S,)
    potential: np.ndarray  # (S, N)
    couplings: np.ndarray  # (S, 2)
    rank3: np.ndarray  # (S, C3)
    rank4: np.ndarray  # (S, C4)

    def __len__(self) -> int:
        return len(self.mass)

    @property
    def dim(self) -> int:
        return self.diagonal.shape[-1]

    def take(self, rows) -> "SpecStack":
        """The stack of the given rows."""
        return SpecStack(*(getattr(self, f.name)[rows] for f in fields(self)))

    def put(self, rows, other: "SpecStack") -> None:
        """Overwrite the given rows with the rows of other, in order."""
        for f in fields(self):
            getattr(self, f.name)[rows] = getattr(other, f.name)

    def spec(self) -> LagrangianSpec:
        """The stack as one LagrangianSpec on (S, N) points, row i at sample i's point."""
        dim = self.dim
        diagonal, amplitude = self.diagonal, self.amplitude
        frequency = self.frequency[:, None]

        def metric(x):
            g = diagonal[:, :, None] * np.eye(dim)
            g[:, 0, 0] += 2.0 * np.vecdot(np.sin(frequency * x), amplitude)
            return g

        extras = tuple(
            (self.couplings[:, t], symmetric_tensor_field(rank, dim, lambda x, e=entries: e))
            for t, (rank, entries) in enumerate(((3, self.rank3), (4, self.rank4))))
        return LagrangianSpec(metric=metric_from_function(dim, metric), mass=self.mass,
                              charge=self.charge,
                              potential=_per_sample_potential(self.potential),
                              extra_terms=extras)


def _signs(rng, size):
    return rng.choice([-1.0, 1.0], size=size)


def _random_rank3(rng, samples: int, dim: int) -> np.ndarray:
    """(S, C3) entries: a solid (0,0,0) entry (column 0), which keeps the
    contraction well-conditioned for velocities near the time axis, and five
    draws at random multi-indices, a later draw of an index replacing an
    earlier one and a draw of (0,0,0) keeping the solid entry."""
    entries = np.zeros((samples, len(tensor_indices(3, dim))))
    entries[:, 0] = _signs(rng, samples) * rng.uniform(0.25, 0.6, size=samples)
    idx = rng.integers(0, dim, size=(samples, 5, 3))
    cols = tensor_columns(3, dim)[np.ravel_multi_index(tuple(np.moveaxis(idx, -1, 0)), (dim,) * 3)]
    values = np.where(cols == 0, entries[:, :1], rng.uniform(-0.35, 0.35, size=(samples, 5)))
    rows = np.arange(samples)
    for k in range(5):  # in draw order: the last draw of an index is its entry
        entries[rows, cols[:, k]] = values[:, k]
    return entries


def _random_rank4(rng, samples: int, dim: int) -> np.ndarray:
    """(S, C4) sorted-index entries of a sum of two weighted 4th powers of linear forms.

    The 4th powers keep the even radicand nonnegative; the forms get a
    guaranteed time component.
    """
    u = rng.uniform(-0.7, 0.7, size=(samples, 2, dim))
    u[..., 0] = _signs(rng, (samples, 2)) * rng.uniform(0.4, 1.0, size=(samples, 2))
    w = rng.uniform(0.2, 1.0, size=(samples, 2, 1))
    i, j, k, l = tensor_indices(4, dim).T
    # left to right, as the entry w u_i u_j u_k u_l is written
    terms = w * u[..., i] * u[..., j] * u[..., k] * u[..., l]
    return terms[:, 0] + terms[:, 1]


def random_spec(rng: np.random.Generator, samples: int, dim: int = 4,
                curved=None) -> SpecStack:
    """`samples` random one-time-metric specs with EM coupling and rank-3/4 terms.

    curved=None draws each row flat or weak-field with probability 1/2.
    """
    if curved is None:
        curved_rows = rng.integers(0, 2, size=samples).astype(bool)
    else:
        curved_rows = np.full(samples, bool(curved))
    diagonal = np.concatenate((rng.uniform(0.8, 1.2, size=(samples, 1)),
                               -rng.uniform(0.8, 1.2, size=(samples, dim - 1))), axis=1)
    diagonal[curved_rows] = np.concatenate(([1.0], -np.ones(dim - 1)))
    amplitude = rng.uniform(-0.05, 0.05, size=(samples, dim))
    amplitude[~curved_rows] = 0.0
    return SpecStack(
        curved=curved_rows,
        diagonal=diagonal,
        amplitude=amplitude,
        frequency=rng.uniform(0.5, 2.0, size=samples),
        mass=rng.uniform(0.5, 2.0, size=samples),
        charge=rng.uniform(-1.5, 1.5, size=samples),
        potential=rng.uniform(-1.0, 1.0, size=(samples, dim)),
        couplings=np.column_stack((rng.uniform(-0.6, 0.6, size=samples),
                                   rng.uniform(0.1, 0.6, size=samples))),
        rank3=_random_rank3(rng, samples, dim),
        rank4=_random_rank4(rng, samples, dim),
    )


def random_state(rng: np.random.Generator, stack: SpecStack):
    """(x, v, found): per row, x and a timelike v with g(v,v) >= 0.3 (v^0)^2 whose
    tensor radicands are at least RADICAND_FLOOR |v^0|^n.

    Each round draws candidates for the rows not yet accepted, about as many
    in all as there are rows, and accepts each row's first candidate that
    passes, which is what drawing them one at a time would accept. found is
    False on a row none of whose STATE_ATTEMPTS candidates passed.
    """
    samples, dim = len(stack), stack.dim
    x = np.zeros((samples, dim))
    v = np.zeros((samples, dim))
    todo = np.arange(samples)
    used = 0  # every row not yet accepted has failed this many candidates
    while todo.size and used < STATE_ATTEMPTS:
        k = min(samples // todo.size, STATE_ATTEMPTS - used)
        n = todo.size * k
        xs = rng.uniform(-1.0, 1.0, size=(n, dim))
        u = rng.uniform(-1.0, 1.0, size=(n, dim - 1))
        norm = np.linalg.norm(u, axis=-1, keepdims=True)
        speed = rng.uniform(0.05, 0.55, size=(n, 1))
        u *= np.divide(speed, norm, out=np.ones_like(norm), where=norm > 1e-9)
        vs = np.concatenate((np.ones((n, 1)), u), axis=1) * rng.uniform(0.5, 2.0, size=(n, 1))
        spec = stack.take(np.repeat(todo, k)).spec()
        ok = quadratic_form(spec.metric(xs), vs) >= 0.3 * vs[:, 0] ** 2
        for _q, tensor in spec.extra_terms:
            ok &= (np.abs(tensor.contraction(xs, vs))
                   >= RADICAND_FLOOR * np.abs(vs[:, 0]) ** tensor.rank)
        ok = ok.reshape(todo.size, k)
        hit = ok.any(axis=1)
        first = np.flatnonzero(hit) * k + ok[hit].argmax(axis=1)
        x[todo[hit]] = xs[first]
        v[todo[hit]] = vs[first]
        todo = todo[~hit]
        used += k
    found = np.ones(samples, dtype=bool)
    found[todo] = False
    return x, v, found


def draw_spec_state(rng: np.random.Generator, samples: int, curved=None):
    """(stack, x, v) for `samples` rows; a row whose state draw fails gets a fresh spec."""
    stack = random_spec(rng, samples, curved=curved)
    x, v, found = random_state(rng, stack)
    while not found.all():
        redo = np.flatnonzero(~found)
        fresh = random_spec(rng, redo.size, curved=curved)
        x[redo], v[redo], found[redo] = random_state(rng, fresh)
        stack.put(redo, fresh)
    return stack, x, v


# ---------------------------------------------------------------------------
# the battery: each sweep's residuals per sample, one batched kernel call each
# ---------------------------------------------------------------------------

def momentum_fd_residuals(spec, x, v) -> np.ndarray:
    """max |p - p_fd| / max(1, max |p|) per sample."""
    pa = momentum(spec, x, v)
    pf = momentum_fd(spec, x, v)
    return np.max(np.abs(pa - pf), axis=-1) / np.maximum(1.0, np.max(np.abs(pa), axis=-1))


def pi_invariance_residuals(spec, x, v, charge, potential, couplings) -> np.ndarray:
    """max |pi' - pi| per sample, pi' with the charges, potentials and tensor couplings
    replaced by the given (S,), (S, N) and (S, T) arrays."""
    other = replace(spec, charge=charge, potential=_per_sample_potential(potential),
                    extra_terms=tuple((q, s) for q, (_q, s) in zip(couplings.T, spec.extra_terms)))
    return np.max(np.abs(generalized_momentum(other, x, v) - generalized_momentum(spec, x, v)),
                  axis=-1)


def gauge_shift_residuals(spec, x, v, w, c) -> np.ndarray:
    """A -> A + df with f = c sin(w.x): max of |p' - p - q df| and |pi' - pi| per sample."""

    def shifted(xx, base=spec.potential):
        return base(xx) + (c * np.cos(np.vecdot(xx, w)))[..., None] * w

    spec2 = replace(spec, potential=potential_from_function(spec.dim, shifted))
    grad_f = (c * np.cos(np.vecdot(x, w)))[..., None] * w
    dp = (momentum(spec2, x, v) - momentum(spec, x, v)
          - np.expand_dims(spec.charge, -1) * grad_f)
    dpi = generalized_momentum(spec2, x, v) - generalized_momentum(spec, x, v)
    return np.maximum(np.max(np.abs(dp), axis=-1), np.max(np.abs(dpi), axis=-1))


# sweep name -> (the worst residual it passes with, the divisor of the battery's
# sample count, residuals(rng, spec, x, v) drawing any further inputs from rng,
# curved: None draws flat and weak-field rows, False flat ones only), in battery order
SWEEPS = {
    # |L(x, lam v) - lam L(x, v)| relative, at log-uniform scales in [1e-3, 1e3]
    "homogeneity": (1e-11, 1, lambda rng, spec, x, v: homogeneity_residual(
        spec, x, v, np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=len(x)))), None),
    # |p.v - L| relative, p closed-form or central differences of eval_L
    "euler_identity_analytic": (
        1e-10, 1, lambda rng, spec, x, v: hamiltonian_residual(spec, x, v), None),
    "euler_identity_fd": (
        1e-6, 2, lambda rng, spec, x, v: hamiltonian_residual(spec, x, v, fd=True), None),
    # |pi . g^{-1} . pi - m^2|
    "mass_shell_identity": (
        1e-9, 1, lambda rng, spec, x, v: np.abs(mass_shell_residual(spec, x, v)), None),
    "momentum_vs_fd": (1e-6, 2, lambda rng, spec, x, v: momentum_fd_residuals(spec, x, v), None),
    # pi depends only on (m, g, v): re-randomize q, A, Q_n at fixed (m, g, v)
    "pi_invariance": (1e-12, 3, lambda rng, spec, x, v: pi_invariance_residuals(
        spec, x, v, charge=rng.uniform(-5.0, 5.0, size=len(x)),
        potential=rng.uniform(-10.0, 10.0, size=x.shape),
        couplings=rng.uniform(-2.0, 2.0, size=(len(x), len(spec.extra_terms)))), None),
    # A -> A + df shifts p by q df and leaves pi unchanged
    "gauge_shift": (1e-10, 5, lambda rng, spec, x, v: gauge_shift_residuals(
        spec, x, v, rng.uniform(-1.0, 1.0, size=x.shape),
        rng.uniform(0.5, 1.5, size=len(x))), False),
}


def run_sweep(name: str, samples: int, seed: int) -> SweepResult:
    """The worst of SWEEPS[name]'s residuals over one stacked draw of `samples` rows."""
    tolerance, _divisor, residuals, curved = SWEEPS[name]
    rng = np.random.default_rng(seed)
    stack, x, v = draw_spec_state(rng, samples, curved=curved)
    worst = float(np.max(residuals(rng, stack.spec(), x, v)))
    return SweepResult(name, samples, worst, tolerance, worst <= tolerance)


def standard_sweeps(seed: int = 0, samples: int = 1000):
    """The sweep battery behind the `check` subcommand: sweep k of SWEEPS at seed + k,
    on samples // divisor rows, at least 100, or on all samples where the divisor is 1."""
    return [run_sweep(name, samples if divisor == 1 else max(100, samples // divisor), seed + k)
            for k, (name, (_tolerance, divisor, _residuals, _curved)) in enumerate(SWEEPS.items())]
