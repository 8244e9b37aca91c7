"""Background interaction fields: covector potentials and symmetric tensors.

Symmetric rank-n tensors are stored sparsely by sorted multi-index; each
stored entry is the common value of all its index permutations and enters
contractions weighted by the multinomial multiplicity n! / prod(k_d!).
Symmetry is therefore structural rather than enforced numerically.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from .errors import DimensionMismatch
from .geometry import pointwise

Index = Tuple[int, ...]


# ---------------------------------------------------------------------------
# vector potential
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorPotentialField:
    """Covector field A_a(x); kind in {"zero", "constant", "uniform-magnetic", "user"}."""

    dim: int
    kind: str
    _eval: Callable[[np.ndarray], np.ndarray]
    _jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fd_step: float = 1e-6

    def __call__(self, x) -> np.ndarray:
        """A at x of shape (..., N), as (..., N); a constant A is evaluated once."""
        x = np.asarray(x, dtype=float)
        if x.ndim > 1 and not self.is_constant:
            return pointwise(self, x)
        a = np.asarray(self._eval(x), dtype=float)
        if a.shape != (self.dim,):
            raise DimensionMismatch(f"potential evaluator returned shape {a.shape}")
        return a if x.ndim < 2 else np.broadcast_to(a, x.shape[:-1] + a.shape)

    def jacobian(self, x) -> np.ndarray:
        """J[..., a, c] = d A_a / d x^c; analytic when available, else central FD."""
        x = np.asarray(x, dtype=float)
        if x.ndim > 1:
            return pointwise(self.jacobian, x)
        if self._jac is not None:
            return np.asarray(self._jac(x), dtype=float)
        out = np.empty((self.dim, self.dim))
        for c in range(self.dim):
            h = self.fd_step * max(1.0, abs(x[c]))
            xp = x.copy()
            xm = x.copy()
            xp[c] += h
            xm[c] -= h
            out[:, c] = (self._eval(xp) - self._eval(xm)) / (2.0 * h)
        return out

    @property
    def has_analytic_jacobian(self) -> bool:
        return self._jac is not None

    @property
    def is_constant(self) -> bool:
        return self.kind in ("zero", "constant")


def zero_potential(dim: int) -> VectorPotentialField:
    z = np.zeros(dim)
    jz = np.zeros((dim, dim))
    return VectorPotentialField(dim, "zero", lambda x: z, lambda x: jz)


def constant_potential(values) -> VectorPotentialField:
    a = np.asarray(values, dtype=float).copy()
    a.setflags(write=False)
    jz = np.zeros((a.size, a.size))
    return VectorPotentialField(a.size, "constant", lambda x: a, lambda x: jz)


def uniform_magnetic_potential(dim: int, strength: float,
                               plane: Tuple[int, int] = (1, 2)) -> VectorPotentialField:
    """Symmetric-gauge potential for a uniform magnetic field in a spatial plane.

    With plane = (i, j): A_i = +B/2 * x^j, A_j = -B/2 * x^i, other components 0.
    """
    i, j = plane
    if not (0 < i < dim and 0 < j < dim and i != j):
        raise DimensionMismatch(f"plane indices {plane} invalid for dim {dim}")
    b2 = 0.5 * float(strength)

    def evaluate(x):
        a = np.zeros(dim)
        a[i] = b2 * x[j]
        a[j] = -b2 * x[i]
        return a

    jac = np.zeros((dim, dim))
    jac[i, j] = b2
    jac[j, i] = -b2
    jac.setflags(write=False)
    return VectorPotentialField(dim, "uniform-magnetic", evaluate, lambda x: jac)


def potential_from_function(dim: int, fn, jacobian=None) -> VectorPotentialField:
    return VectorPotentialField(dim, "user", fn, jacobian)


# ---------------------------------------------------------------------------
# symmetric tensors, sorted multi-index storage
# ---------------------------------------------------------------------------

def multiplicity(idx: Index) -> int:
    """Number of distinct permutations of a multi-index."""
    c = Counter(idx)
    m = math.factorial(len(idx))
    for k in c.values():
        m //= math.factorial(k)
    return m


def _canonical_entries(rank: int, dim: int, entries: Mapping[Index, float]) -> Dict[Index, float]:
    out: Dict[Index, float] = {}
    for idx, val in entries.items():
        idx = tuple(int(i) for i in idx)
        if len(idx) != rank:
            raise DimensionMismatch(f"multi-index {idx} does not have rank {rank}")
        if any(i < 0 or i >= dim for i in idx):
            raise DimensionMismatch(f"multi-index {idx} out of range for dim {dim}")
        key = tuple(sorted(idx))
        if key in out:
            raise DimensionMismatch(f"duplicate entry for multi-index {key}")
        out[key] = float(val)
    return out


@dataclass(frozen=True)
class SymmetricTensorField:
    """Fully symmetric rank-n tensor field S(x), n >= 3, over sorted multi-indices.

    Constant tensors carry their entries directly; analytic ones supply an
    evaluator returning the entry mapping at a position.
    """

    rank: int
    dim: int
    entries: Optional[Mapping[Index, float]] = None
    evaluator: Optional[Callable[[np.ndarray], Mapping[Index, float]]] = None
    kind: str = "constant"
    _weights: tuple = field(default=None, repr=False)  # cached (idx, counts, mult, coeff)

    def __post_init__(self):
        if self.rank < 3:
            raise DimensionMismatch("extra tensor terms start at rank 3")
        if (self.entries is None) == (self.evaluator is None):
            raise DimensionMismatch("provide exactly one of entries / evaluator")
        if self.entries is not None:
            canon = _canonical_entries(self.rank, self.dim, self.entries)
            object.__setattr__(self, "entries", canon)
            object.__setattr__(self, "_weights", self._build_weights(canon))

    @staticmethod
    def _build_weights(entries: Mapping[Index, float]):
        rows = []
        for idx, coeff in sorted(entries.items()):
            counts = tuple(sorted(Counter(idx).items()))
            rows.append((idx, counts, float(multiplicity(idx)), coeff))
        return tuple(rows)

    @property
    def is_constant(self) -> bool:
        return self.entries is not None

    def _rows(self, x):
        if self.is_constant:
            return self._weights
        entries = _canonical_entries(self.rank, self.dim, self.evaluator(np.asarray(x, dtype=float)))
        return self._build_weights(entries)

    # -- contraction and its velocity derivatives -------------------------
    # v has shape (..., N). The loops run over the stored rows only and index
    # v.T, whose first axis is the component, so one row updates every point
    # of a batch at once; a single point is the batch shape ().

    def contraction(self, x, v):
        """Full n-fold contraction S(v, ..., v), shape (...)."""
        v = np.asarray(v, dtype=float)
        if v.shape[-1:] != (self.dim,):
            raise DimensionMismatch(f"velocity shape {v.shape} vs tensor dim {self.dim}")
        if v.ndim > 1 and not self.is_constant:
            return pointwise(self.contraction, np.broadcast_to(x, v.shape), v)
        vt = v.T
        total = np.zeros(vt.shape[1:])
        for _idx, counts, mult, coeff in self._rows(x):
            prod = 1.0
            for d, k in counts:
                prod *= vt[d] ** k
            total = total + coeff * mult * prod
        return total.T

    def contraction_gradient(self, x, v) -> np.ndarray:
        """d/dv of the full contraction, shape (..., N); equals n * S_{a b...} v^b ... v."""
        v = np.asarray(v, dtype=float)
        if v.ndim > 1 and not self.is_constant:
            return pointwise(self.contraction_gradient, np.broadcast_to(x, v.shape), v)
        vt = v.T
        grad = np.zeros(vt.shape)
        for _idx, counts, mult, coeff in self._rows(x):
            for d, k in counts:
                prod = 1.0 if k == 1 else k * vt[d] ** (k - 1)
                for e, m in counts:
                    if e != d:
                        prod *= vt[e] ** m
                grad[d] += coeff * mult * prod
        return grad.T

    def contraction_hessian(self, x, v) -> np.ndarray:
        """d2/dv2 of the full contraction, shape (..., N, N).

        Equals n(n-1) * S_{a b c...} v ... v.
        """
        v = np.asarray(v, dtype=float)
        if v.ndim > 1 and not self.is_constant:
            return pointwise(self.contraction_hessian, np.broadcast_to(x, v.shape), v)
        vt = v.T
        # (N, N, reversed batch): the final .T restores (..., N, N) and, the
        # matrix being filled symmetrically, swapping its two axes is harmless
        hess = np.zeros((self.dim,) + vt.shape)
        for _idx, counts, mult, coeff in self._rows(x):
            for d, k in counts:
                # diagonal block
                if k >= 2:
                    prod = k * (k - 1) * vt[d] ** (k - 2)
                    for e, m in counts:
                        if e != d:
                            prod *= vt[e] ** m
                    hess[d, d] += coeff * mult * prod
                # off-diagonal blocks
                for e, m in counts:
                    if e <= d:
                        continue
                    prod = k * m
                    prod *= vt[d] ** (k - 1)
                    prod *= vt[e] ** (m - 1)
                    for f, p in counts:
                        if f != d and f != e:
                            prod *= vt[f] ** p
                    hess[d, e] += coeff * mult * prod
                    hess[e, d] += coeff * mult * prod
        return hess.T

    def position_gradient_of_contraction(self, x, v, fd_step: float = 1e-6) -> np.ndarray:
        """d/dx of S(x; v, ..., v), shape (..., N).

        Zero for constant tensors, central differences otherwise.
        """
        x = np.asarray(x, dtype=float)
        if self.is_constant:
            return np.zeros(np.shape(v))
        if np.ndim(v) > 1:
            return pointwise(
                lambda xi, vi: self.position_gradient_of_contraction(xi, vi, fd_step),
                np.broadcast_to(x, np.shape(v)), np.asarray(v, dtype=float))
        out = np.empty(x.shape)
        for c in range(x.size):
            h = fd_step * max(1.0, abs(x[c]))
            xp = x.copy()
            xm = x.copy()
            xp[c] += h
            xm[c] -= h
            out[c] = (self.contraction(xp, v) - self.contraction(xm, v)) / (2.0 * h)
        return out


def symmetric_tensor(rank: int, dim: int, entries: Mapping[Index, float]) -> SymmetricTensorField:
    """Constant tensor from {multi-index: value}; indices are sorted on entry."""
    return SymmetricTensorField(rank=rank, dim=dim, entries=dict(entries))


def symmetric_tensor_field(rank: int, dim: int, evaluator) -> SymmetricTensorField:
    return SymmetricTensorField(rank=rank, dim=dim, entries=None,
                                evaluator=evaluator, kind="analytic")


def eval_S(tensor: SymmetricTensorField, x, v) -> float:
    """Full contraction S(x; v, ..., v) with multiplicity weights."""
    return tensor.contraction(x, v)
