"""Background interaction fields: covector potentials and symmetric tensors.

A symmetric rank-n tensor over N components is stored as one dense numpy
array S of shape (N,) * n, filled from its sorted-index entries through all
index permutations, so symmetry is structural rather than enforced
numerically. Its memory is N^n floats: 625 for the largest tensor in use
(rank 4 in dim 5). A tensor with more than MAX_DENSE_ENTRIES = 2^24 entries
raises DimensionMismatch instead of allocating. A position-dependent
tensor holds one such array per point of the batch it is evaluated on.

One partial-contraction kernel contracts S with v until k free axes remain,
for v of shape (..., N): S(v, ..., v, .^k), the full contraction at k = 0.
The velocity gradient and Hessian of the full contraction are n and
n(n - 1) times its k = 1 and k = 2 values; the Lagrangian's kernels, which
would divide those factors out again, call the bare kernel.

The point particle evaluates these fields on its velocity (N = dim of the
target); the brane evaluates the same types on its Jacobian minors, with N
the number of minor components.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from .errors import DimensionMismatch
from .geometry import FD_STEP, central_difference, evaluated

Index = Tuple[int, ...]


# ---------------------------------------------------------------------------
# vector potential
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorPotentialField:
    """Covector field A_a(x); kind in {"zero", "constant", "uniform-magnetic", "user"}.

    Every kind evaluates A on positions (..., P) in one call, as (..., N),
    and its Jacobian as (..., N, P); P is N for a particle, dimM for a brane.
    """

    dim: int
    kind: str
    _eval: Callable[[np.ndarray], np.ndarray]
    _jac: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x) -> np.ndarray:
        """A at x of shape (..., P), as (..., N)."""
        return evaluated(self._eval, np.asarray(x, dtype=float), (self.dim,), "potential")

    def jacobian(self, x) -> np.ndarray:
        """J[..., a, c] = d A_a / d x^c.

        Analytic when available, else central differences of the evaluator
        with the relative step FD_STEP * max(1, |x_c|) of each point.
        """
        x = np.asarray(x, dtype=float)
        if self.is_constant:
            return np.zeros(x.shape[:-1] + (self.dim, x.shape[-1]))
        if self._jac is not None:
            return evaluated(self._jac, x, (self.dim, x.shape[-1]), "potential jacobian")
        return central_difference(self, x, FD_STEP * np.maximum(1.0, np.abs(x)))

    @property
    def is_constant(self) -> bool:
        return self.kind in ("zero", "constant")


def _uniform(value):
    """Evaluator of a value that does not vary with x, broadcast over x's batch shape."""
    value.setflags(write=False)
    return lambda x: value if x.ndim < 2 else np.broadcast_to(value, x.shape[:-1] + value.shape)


def zero_potential(dim: int) -> VectorPotentialField:
    return VectorPotentialField(dim, "zero", _uniform(np.zeros(dim)))


def constant_potential(values) -> VectorPotentialField:
    a = np.asarray(values, dtype=float).copy()
    return VectorPotentialField(a.size, "constant", _uniform(a))


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
        # through the transposes, whose first axis is the component, one
        # assignment fills a whole batch and a single point stays cheap
        a = np.zeros(x.shape)
        at, xt = a.T, x.T
        at[i] = b2 * xt[j]
        at[j] = -b2 * xt[i]
        return a

    jac = np.zeros((dim, dim))
    jac[i, j] = b2
    jac[j, i] = -b2
    return VectorPotentialField(dim, "uniform-magnetic", evaluate, _uniform(jac))


def potential_from_function(dim: int, fn, jacobian=None) -> VectorPotentialField:
    return VectorPotentialField(dim, "user", fn, jacobian)


# ---------------------------------------------------------------------------
# symmetric tensors, dense storage
# ---------------------------------------------------------------------------

# largest dense tensor, dim ** rank entries (128 MiB of floats)
MAX_DENSE_ENTRIES = 2 ** 24


def _canonical_entries(rank: int, dim: int, entries: Mapping[Index, float],
                       batch=None) -> Dict[Index, float]:
    """Entries by sorted multi-index: floats, or numbers and arrays of the given batch shape."""
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
        if batch is None:
            val = float(val)
        elif np.shape(val) not in ((), batch):
            raise DimensionMismatch(f"tensor entry {key} of shape {np.shape(val)}, batch {batch}")
        out[key] = val
    return out


@functools.lru_cache(maxsize=4)  # each holds dim ** rank indices, as many as S has entries
def _sorted_flat_index(rank: int, dim: int) -> np.ndarray:
    """For each flat index of a (dim,) * rank array, the flat index of its sorted multi-index."""
    shape = (dim,) * rank
    idx = np.indices(shape).reshape(rank, -1)
    out = np.ravel_multi_index(np.sort(idx, axis=0), shape)
    out.setflags(write=False)
    return out


def _dense(rank: int, dim: int, entries: Mapping[Index, float], batch=()) -> np.ndarray:
    """The batch + (dim,) * rank symmetric arrays: each sorted-index entry at all permutations."""
    shape = (dim,) * rank
    keys = np.array(list(entries), dtype=np.intp).reshape(-1, rank)
    # row c holds entry c and the last row the zero of every index without an
    # entry; the batch axes go last, so that each row is contiguous, and come
    # first again in the returned view
    rows = np.zeros((len(keys) + 1,) + batch)
    if batch:  # each entry a number or an array of the batch shape
        for c, val in enumerate(entries.values()):
            rows[c] = val
    else:
        rows[:-1] = list(entries.values())
    row_of = np.full(dim ** rank, len(keys))
    row_of[np.ravel_multi_index(tuple(keys.T), shape)] = np.arange(len(keys))
    dense = rows[row_of[_sorted_flat_index(rank, dim)]].reshape(shape + batch)
    return np.moveaxis(dense, range(rank), range(-rank, 0))


@dataclass(frozen=True)
class SymmetricTensorField:
    """Fully symmetric rank-n tensor field S(x), n >= 3, stored dense.

    Constant tensors carry their sorted-index entries and the dense array S
    built from them. Analytic ones supply an evaluator that maps positions
    (..., P) to the entry mapping, each value a number or an array of the
    batch shape; S is built for the whole batch in one call.
    """

    rank: int
    dim: int
    entries: Optional[Mapping[Index, float]] = None
    evaluator: Optional[Callable[[np.ndarray], Mapping[Index, float]]] = None
    kind: str = "constant"
    S: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.rank < 3:
            raise DimensionMismatch("extra tensor terms start at rank 3")
        if (self.entries is None) == (self.evaluator is None):
            raise DimensionMismatch("provide exactly one of entries / evaluator")
        if self.dim ** self.rank > MAX_DENSE_ENTRIES:
            raise DimensionMismatch(
                f"a rank-{self.rank} tensor in dim {self.dim} has {self.dim ** self.rank} "
                f"dense entries, more than {MAX_DENSE_ENTRIES}")
        if self.entries is not None:
            canon = _canonical_entries(self.rank, self.dim, self.entries)
            dense = _dense(self.rank, self.dim, canon)
            dense.setflags(write=False)
            object.__setattr__(self, "entries", canon)
            object.__setattr__(self, "S", dense)

    @property
    def is_constant(self) -> bool:
        return self.entries is not None

    def partial_contraction(self, x, v, k: int):
        """S(x; v, ..., v, .^k), the k-th velocity derivative of S(x; v, ..., v) over n!/(n-k)!.

        The one contraction kernel: S is contracted with v until k free axes
        remain, shape (...,) + (N,) * k for v of shape (..., N). S being
        symmetric, which axes are contracted does not matter. A constant S
        at a single point goes through ndarray.dot, which sums v against the
        second-to-last axis of an array of any rank and is the cheapest numpy
        product at these sizes; on a batch, it contracts axis 0 for every
        point in one matrix product, then the remaining axes by np.matvec.

        A position-dependent tensor builds S for x's batch, which broadcasts
        against v's, and contracts it one component of v at a time by
        elementwise products and sums, whose rounding, unlike a matrix
        product's, does not depend on the batch: a batch equals its points bit
        for bit. x keeps its own length: a brane's tensor acts on minor
        components, not on target coordinates.
        """
        v = np.asarray(v, dtype=float)
        if v.shape[-1:] != (self.dim,):
            raise DimensionMismatch(f"velocity shape {v.shape} vs tensor dim {self.dim}")
        n = self.dim
        S = self.S
        if S is None:
            x = np.asarray(x, dtype=float)
            entries = _canonical_entries(self.rank, n, self.evaluator(x), x.shape[:-1])
            t = _dense(self.rank, n, entries, x.shape[:-1])
            for free in range(self.rank - 1, k - 1, -1):
                w = v.reshape(v.shape[:-1] + (1,) * free + (n,))
                acc = t[..., 0] * w[..., 0]
                for c in range(1, n):
                    acc += t[..., c] * w[..., c]
                t = acc
        elif v.ndim == 1:
            t = S
            for _ in range(self.rank - k):
                t = v.dot(t)
        else:
            t = v.dot(S.reshape(n, -1))
            for _ in range(self.rank - k - 1):
                t = np.matvec(t.reshape(v.shape[:-1] + (-1, n)), v)
            t = t.reshape(v.shape[:-1] + (n,) * k)
        return t

    def contraction(self, x, v):
        """Full n-fold contraction S(v, ..., v), shape (...)."""
        return self.partial_contraction(x, v, 0)

    def contraction_gradient(self, x, v) -> np.ndarray:
        """d/dv of the full contraction, shape (..., N); equals n * S_{a b...} v^b ... v."""
        t = self.partial_contraction(x, v, 1)
        t *= self.rank  # in place: t is a fresh array
        return t

    def contraction_hessian(self, x, v) -> np.ndarray:
        """d2/dv2 of the full contraction, shape (..., N, N).

        Equals n(n-1) * S_{a b c...} v ... v.
        """
        t = self.partial_contraction(x, v, 2)
        t *= self.rank * (self.rank - 1)
        return t

    def position_gradient_of_contraction(self, x, v) -> np.ndarray:
        """d/dx of S(x; v, ..., v), shape (..., len(x)).

        Zero for constant tensors, otherwise central differences with the
        relative step FD_STEP * max(1, |x_c|) of each point.
        """
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if self.is_constant:
            return np.zeros(v.shape[:-1] + x.shape[-1:])
        return central_difference(lambda xx: self.contraction(xx, v), x,
                                  FD_STEP * np.maximum(1.0, np.abs(x)))


def symmetric_tensor(rank: int, dim: int, entries: Mapping[Index, float]) -> SymmetricTensorField:
    """Constant tensor from {multi-index: value}; indices are sorted on entry."""
    return SymmetricTensorField(rank=rank, dim=dim, entries=dict(entries))


def symmetric_tensor_field(rank: int, dim: int, evaluator) -> SymmetricTensorField:
    return SymmetricTensorField(rank=rank, dim=dim, entries=None,
                                evaluator=evaluator, kind="analytic")
