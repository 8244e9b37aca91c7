"""Background interaction fields: covector potentials and symmetric tensors.

A symmetric rank-n tensor over N components is one float array of its
C = binom(N + n - 1, n) sorted-index entries, shape batch + (C,), in the
column order that tensor_indices(n, N) defines for every module. A
constant tensor keeps its (C,) entries, checked once when it is built; a
position-dependent one maps positions (..., P) to entries (..., C), checked
by geometry.evaluated like every other field. Contractions gather the
entries into a dense array S of shape (N,) * n through all index
permutations, so symmetry is structural: N^n floats, 256 for the rank-4
tensors of the check sweeps in dim 4. A tensor with more than
MAX_DENSE_ENTRIES = 2^24 dense entries raises DimensionMismatch instead.

One partial-contraction kernel contracts S with v until k free axes remain,
for v of shape (..., N): S(v, ..., v, .^k), the full contraction at k = 0.
The Lagrangian's kernels call it bare; contraction_gradient and
contraction_hessian scale its k = 1 and k = 2 values by n and n(n - 1).
Derivatives in x are the Lagrangian's (see lagrangian.el_system).

The point particle evaluates these fields on its velocity (N = dim of the
target); the brane evaluates the same types on its Jacobian minors, with N
the number of minor components.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Tuple

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
    plane is a pair of integers (a bool is not), distinct and spatial.
    """
    if not ((isinstance(plane, Sequence) or (isinstance(plane, np.ndarray) and plane.ndim == 1))
            and len(plane) == 2
            and all(isinstance(p, (int, np.integer)) and not isinstance(p, bool) for p in plane)
            and all(0 < p < dim for p in plane) and plane[0] != plane[1]):
        raise DimensionMismatch(f"plane indices {plane} invalid for dim {dim}")
    i, j = plane
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
# symmetric tensors: sorted-index entries, expanded dense for contraction
# ---------------------------------------------------------------------------

# largest dense tensor, dim ** rank entries (128 MiB of floats)
MAX_DENSE_ENTRIES = 2 ** 24


def check_tensor_size(rank: int, dim: int) -> None:
    """Raise DimensionMismatch for a rank below 3 or over MAX_DENSE_ENTRIES dense entries."""
    if rank < 3:
        raise DimensionMismatch("extra tensor terms start at rank 3")
    if dim ** rank > MAX_DENSE_ENTRIES:
        raise DimensionMismatch(
            f"a rank-{rank} tensor in dim {dim} has {dim ** rank} "
            f"dense entries, more than {MAX_DENSE_ENTRIES}")


@functools.lru_cache(maxsize=16)
def tensor_indices(rank: int, dim: int) -> np.ndarray:
    """The sorted multi-indices, shape (C, rank): row c is the index of entry column c.

    The order is itertools.combinations_with_replacement(range(dim), rank). A size
    that check_tensor_size refuses raises DimensionMismatch.
    """
    check_tensor_size(rank, dim)
    idx = np.array(list(itertools.combinations_with_replacement(range(dim), rank)),
                   dtype=np.intp).reshape(-1, rank)
    idx.setflags(write=False)
    return idx


@functools.lru_cache(maxsize=4)  # each holds dim ** rank columns, as many as S has entries
def tensor_columns(rank: int, dim: int) -> np.ndarray:
    """For each flat index of a (dim,) * rank array, the entry column of its sorted multi-index.

    Built by gathers, one rank at a time from rank 1's arange(dim): flat index
    f * dim + i of rank r has column grow[columns[f], i], where grow[c, i] is
    the column of sorted (r - 1)-index c with i added, and each (c, i) is a
    sorted r-index with one of its entries taken out.
    """
    indices = [tensor_indices(rank, dim)]  # refuses rank < 3 and oversized S
    for _ in range(rank - 2):  # rank r - 1's sorted indices: rank r's ending in dim - 1, less it
        indices.append(indices[-1][indices[-1][:, -1] == dim - 1, :-1])
    columns = np.arange(dim)
    for idx in reversed(indices):  # ranks 2 to rank
        r = idx.shape[1]
        grow = np.empty((columns.max() + 1, dim), dtype=np.intp)
        weights = dim ** np.arange(r - 2, -1, -1)  # flat index of an (r - 1)-index
        for j in range(r):
            grow[columns[np.delete(idx, j, axis=1) @ weights], idx[:, j]] = np.arange(len(idx))
        columns = grow[columns].ravel()
    columns.setflags(write=False)
    return columns


def _canonical_entries(rank: int, dim: int, entries: Mapping[Index, float]) -> np.ndarray:
    """The (C,) entry array of {multi-index: value}, each index sorted; absent entries are 0."""
    sorted_entries = {}  # checked in full before the index tables, which can be large, are built
    for idx, val in entries.items():
        idx = tuple(int(i) for i in idx)
        if len(idx) != rank:
            raise DimensionMismatch(f"multi-index {idx} does not have rank {rank}")
        if any(i < 0 or i >= dim for i in idx):
            raise DimensionMismatch(f"multi-index {idx} out of range for dim {dim}")
        key = tuple(sorted(idx))
        if key in sorted_entries:
            raise DimensionMismatch(f"duplicate entry for multi-index {key}")
        sorted_entries[key] = float(val)
    column = tensor_columns(rank, dim)
    values = np.zeros(len(tensor_indices(rank, dim)))
    for key, val in sorted_entries.items():
        values[column[np.ravel_multi_index(key, (dim,) * rank)]] = val
    return values


def _dense(rank: int, dim: int, entries: np.ndarray) -> np.ndarray:
    """The batch + (dim,) * rank symmetric arrays of entries of shape batch + (C,):
    each entry at all permutations of its multi-index, in one gather."""
    # the batch axes go last, so that each of the dim ** rank rows is
    # contiguous, and come first again in the returned view
    dense = np.take(np.moveaxis(entries, -1, 0), tensor_columns(rank, dim), axis=0)
    dense = dense.reshape((dim,) * rank + entries.shape[:-1])
    return np.moveaxis(dense, range(rank), range(-rank, 0))


@dataclass(frozen=True)
class SymmetricTensorField:
    """Fully symmetric rank-n tensor field S(x), n >= 3, stored by its sorted-index entries.

    A constant tensor holds its entries, a read-only (C,) array in
    tensor_indices order, and the dense array S built from them once. A
    position-dependent one holds an evaluator that maps positions (..., P)
    to entries (..., C); S is built for the whole batch on each contraction.
    """

    rank: int
    dim: int
    entries: Optional[np.ndarray] = field(default=None, compare=False)
    evaluator: Optional[Callable[[np.ndarray], np.ndarray]] = None
    S: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        count = len(tensor_indices(self.rank, self.dim))  # refuses rank < 3 and oversized S
        if (self.entries is None) == (self.evaluator is None):
            raise DimensionMismatch("provide exactly one of entries / evaluator")
        if self.entries is not None:
            entries = np.array(self.entries, dtype=float)
            if entries.shape != (count,):
                raise DimensionMismatch(f"entries of shape {entries.shape}, need ({count},)")
            entries.setflags(write=False)
            dense = _dense(self.rank, self.dim, entries)
            dense.setflags(write=False)
            object.__setattr__(self, "entries", entries)
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
            shape = tensor_indices(self.rank, n).shape[:1]
            t = _dense(self.rank, n, evaluated(self.evaluator, x, shape, "tensor evaluator"))
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


def symmetric_tensor(rank: int, dim: int, entries: Mapping[Index, float]) -> SymmetricTensorField:
    """Constant tensor from {multi-index: value}; indices are sorted and checked here, once."""
    return SymmetricTensorField(rank, dim, entries=_canonical_entries(rank, dim, entries))


def symmetric_tensor_field(rank: int, dim: int, evaluator) -> SymmetricTensorField:
    """Position-dependent tensor: evaluator maps positions (..., P) to entries (..., C)."""
    return SymmetricTensorField(rank=rank, dim=dim, evaluator=evaluator)
