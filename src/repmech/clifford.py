"""Gamma-matrix algebra from Lie-algebra covariance, and the H = 0 operator.

Generators of a Lie algebra acting on the gamma vector by
[X_i, gamma^a] = rho(X_i)^a_b gamma^b are sought inside the real span of
the 2^N products of the N gammas (the quadratic ansatz X = x_ab gamma^a
gamma^b and its completion by higher products). The covariance equations of
all G generators share one coefficient matrix, so they are one linear
least-squares problem with G right-hand sides, solved in one call. It is
solvable precisely when the gammas satisfy the Clifford anticommutation
relations, which is what the solvability probe measures on perturbed sets.
The solution keeps what the clifford run reports: each X_i as a matrix, its
covariance residual, its grade leakage, and the kernel count.

Perturbed sets come as stacks along a leading trial axis: perturb_gammas
draws T perturbations in one call, trial by trial, the stream of T single
draws, and the solve builds the product bases, the commutator columns, the
right-hand sides, the X_i and their residuals for all T sets at once. Only
the least-squares call runs once per trial, as numpy has no stacked form of
it. A single set is the same code without the trial axis.

For the 4-gamma Dirac sets built here, and for 2-gamma Pauli sets, the
unconstrained system has a one-dimensional kernel, the identity direction;
the trace-zero constraint removes it and makes the solution unique (the
commutator form (1/4)[gamma^a, gamma^b] rather than (1/2) gamma^a gamma^b).
For odd N the product of all N gammas is central too: the kernel is 2 for
sigma_1, sigma_2, sigma_3, 5 for an N = 3 set whose product is a real
multiple of I, and 17 for the Dirac set with i*gamma^5. The operator
H = g.pi - m I and its determinant identity take any set, of any N and d.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, FormMismatch, UnsupportedDimension

KERNEL_TOL = 1e-10  # relative singular value counted in the kernel
PERTURBED_INDEX = 1  # the gamma matrix perturb_gammas changes

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _commutators(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (..., A, B, d, d) stack [a_i, b_j] of (..., A, d, d) and (..., B, d, d) stacks.

    The two leading shapes are equal. Each b_j meets all the a_i in two
    matrix products, the a_i stacked as an (A d, d) column and laid side by
    side as a (d, A d) row: one BLAS call per b_j and side in place of one
    per pair, with the bits of the d x d products taken one by one (every
    entry is the same length-d sum).
    """
    lead, (n_a, d), n_b = a.shape[:-3], a.shape[-3:-1], b.shape[-3]
    column = a.reshape(lead + (1, n_a * d, d))
    row = np.swapaxes(a, -3, -2).reshape(lead + (1, d, n_a * d))
    ab = np.swapaxes((column @ b).reshape(lead + (n_b, n_a, d, d)), -3, -4)
    ba = np.moveaxis((b @ row).reshape(lead + (n_b, d, n_a, d)), -2, -4)
    return ab - ba


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """Frobenius norms over the last two axes."""
    return np.linalg.norm(stack, axis=(-2, -1))


def _real_columns(stack: np.ndarray) -> np.ndarray:
    """A complex (..., k, N, d, d) stack as (..., 2 N d^2, k) real columns, real over imaginary."""
    cols = np.swapaxes(stack.reshape(stack.shape[:-3] + (-1,)), -1, -2)
    return np.concatenate([cols.real, cols.imag], axis=-2)


# ---------------------------------------------------------------------------
# gamma sets
# ---------------------------------------------------------------------------

def anticommutator_residual(matrices: Sequence[np.ndarray], form: np.ndarray):
    """max_ab || {g^a, g^b} - 2 h^ab I ||_F: a float for one set, an array for a stack of sets."""
    mats = np.asarray(matrices)
    prod = mats[..., :, None, :, :] @ mats[..., None, :, :, :]
    eye = np.eye(mats.shape[-1])
    res = prod + np.swapaxes(prod, -3, -4) - 2.0 * form[:, :, None, None] * eye
    worst = np.max(_frobenius(res), axis=(-2, -1))
    return float(worst) if worst.ndim == 0 else worst


@dataclass(frozen=True)
class GammaSet:
    """Concrete gamma matrices with their bilinear form and measured residual.

    matrices is one set, (N, d, d) with residual a float, or a stack of T
    sets along a leading trial axis, (T, N, d, d) with residual of shape (T,).
    """

    matrices: np.ndarray
    form: np.ndarray
    residual: float

    @property
    def n(self) -> int:
        return np.shape(self.matrices)[-3]

    @property
    def matrix_dim(self) -> int:
        return np.shape(self.matrices)[-1]


def _make_gamma_set(matrices, form) -> GammaSet:
    matrices = np.asarray(matrices, dtype=complex)
    form = np.asarray(form, dtype=float)
    return GammaSet(matrices=matrices, form=form, residual=anticommutator_residual(matrices, form))


def build_dirac_gammas(form: str = "minkowski") -> GammaSet:
    """The 4x4 Dirac matrices g^0 = sigma_3 (x) I and g^k = (i sigma_2) (x) sigma_k.

    {g^a, g^b} = 2 h^ab I with h = diag(1,-1,-1,-1) for form="minkowski";
    form="euclidean" multiplies the g^k by i, giving h = identity.
    """
    if form == "minkowski":
        spatial_unit, h = 1.0, np.diag([1.0, -1.0, -1.0, -1.0])
    elif form == "euclidean":
        spatial_unit, h = 1j, np.eye(4)
    else:
        raise UnsupportedDimension(f"unknown form {form!r}")
    mats = [np.kron(_SIGMA[2], np.eye(2))]
    mats += [spatial_unit * np.kron(1j * _SIGMA[1], s) for s in _SIGMA]
    return _make_gamma_set(mats, h)


def perturb_gammas(gam: GammaSet, magnitude: float, rng: np.random.Generator,
                   trials: Optional[int] = None) -> GammaSet:
    """Add a random Hermitian perturbation of given operator norm to matrix PERTURBED_INDEX.

    trials=None perturbs one set. trials=T gives a stack of T perturbed sets
    along a leading trial axis, each with its own perturbation. All draws are
    one rng.normal call of shape (T, 2, d, d): trial by trial, the real part
    before the imaginary part, the stream that T calls of one set each take.
    """
    dim = gam.matrix_dim
    lead = () if trials is None else (trials,)
    draws = rng.normal(size=lead + (2, dim, dim))
    h = draws[..., 0, :, :] + 1j * draws[..., 1, :, :]
    h = 0.5 * (h + np.swapaxes(h.conj(), -1, -2))
    h *= magnitude / np.linalg.norm(h, ord=2, axis=(-2, -1))[..., None, None]
    mats = np.broadcast_to(gam.matrices, lead + np.shape(gam.matrices)).copy()
    mats[..., PERTURBED_INDEX, :, :] += h
    with np.errstate(over="ignore", invalid="ignore"):
        perturbed = _make_gamma_set(mats, gam.form)
    if not np.all(np.isfinite(perturbed.residual)):
        raise FormMismatch(f"perturbation {magnitude} overflows the anticommutator residual")
    return perturbed


# ---------------------------------------------------------------------------
# Lie algebra specifications
# ---------------------------------------------------------------------------

def _structure_constants_from_rep(rho: np.ndarray) -> np.ndarray:
    """Fit [rho_i, rho_j] = C_ij^k rho_k by least squares; LieAlgebraSpec checks the closure."""
    g, n, _ = rho.shape
    cols = rho.reshape(g, n * n).T
    comm = _commutators(rho, rho).reshape(g * g, n * n).T
    return np.linalg.lstsq(cols, comm, rcond=None)[0].T.reshape(g, g, g)


def _jacobi_residual(c: np.ndarray) -> float:
    term = np.einsum("ijm,mkl->ijkl", c, c)
    cyc = term + np.einsum("jkm,mil->ijkl", c, c) + np.einsum("kim,mjl->ijkl", c, c)
    return float(np.max(np.abs(cyc)))


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Structure constants plus the vector representation acting on gamma indices.

    rho is stored as a homomorphism, [rho_i, rho_j] = C_ij^k rho_k, the same
    structure constants the generators close on. The gamma vector transforms
    in the conjugate slot, so the covariance condition contracts the
    transpose: [X_i, g^a] = (rho_i)[b, a] g^b.
    """

    structure: np.ndarray   # (G, G, G), [X_i, X_j] = C_ij^k X_k
    rho: np.ndarray         # (G, N, N) real matrices

    def __post_init__(self):
        c = np.asarray(self.structure, dtype=float)
        rho = np.asarray(self.rho, dtype=float)
        if np.max(np.abs(c + np.swapaxes(c, 0, 1))) > 1e-12:
            raise DimensionMismatch("structure constants must be antisymmetric in (i, j)")
        if _jacobi_residual(c) > 1e-12:
            raise DimensionMismatch("structure constants violate the Jacobi identity")
        closure = _commutators(rho, rho) - np.einsum("ijk,kab->ijab", c, rho)
        worst = float(np.max(_frobenius(closure)))
        if worst > 1e-12:
            raise DimensionMismatch(f"representation does not close on C (residual {worst:.2e})")
        object.__setattr__(self, "structure", c)
        object.__setattr__(self, "rho", rho)

    @property
    def n_generators(self) -> int:
        return self.rho.shape[0]

    @property
    def rep_dim(self) -> int:
        return self.rho.shape[1]


def _pair_generator(form: np.ndarray, mu: int, nu: int) -> np.ndarray:
    """Vector-rep matrix whose quadratic solution is (1/4)[g^mu, g^nu]."""
    n = form.shape[0]
    rho = np.zeros((n, n))
    rho[mu, nu] += form[nu, nu]
    rho[nu, mu] -= form[mu, mu]
    return rho


def pair_vector_algebra(form: np.ndarray, pairs: Sequence[Tuple[int, int]]) -> LieAlgebraSpec:
    form = np.asarray(form, dtype=float)
    rho = np.stack([_pair_generator(form, mu, nu) for mu, nu in pairs])
    return LieAlgebraSpec(structure=_structure_constants_from_rep(rho), rho=rho)


def lorentz_vector_algebra(form: np.ndarray) -> LieAlgebraSpec:
    """so(1,3) in the vector representation, generators indexed by pairs mu < nu."""
    return pair_vector_algebra(form, list(itertools.combinations(range(form.shape[0]), 2)))


def rotation_vector_algebra(form: np.ndarray) -> LieAlgebraSpec:
    """so(3) embedded in the spatial sector of the 4-dim vector representation."""
    return pair_vector_algebra(form, [(1, 2), (1, 3), (2, 3)])


def abelian_algebra(rep_dim: int) -> LieAlgebraSpec:
    """Single generator, C = 0, acting trivially on the gamma vector."""
    return LieAlgebraSpec(structure=np.zeros((1, 1, 1)), rho=np.zeros((1, rep_dim, rep_dim)))


# ---------------------------------------------------------------------------
# the linear solve for quadratic generators
# ---------------------------------------------------------------------------

def _product_basis(mats: np.ndarray):
    """Ordered gamma products B_s = g^{s1} g^{s2} ... over index subsets s, as a
    (..., 2^N, d, d) stack for a (..., N, d, d) stack of sets."""
    n, dim = mats.shape[-3], mats.shape[-1]
    subsets = [s for r in range(n + 1) for s in itertools.combinations(range(n), r)]
    position = {s: k for k, s in enumerate(subsets)}
    basis = np.empty(mats.shape[:-3] + (len(subsets), dim, dim), dtype=complex)
    basis[..., 0, :, :] = np.eye(dim)
    for k, s in enumerate(subsets[1:], 1):
        basis[..., k, :, :] = basis[..., position[s[:-1]], :, :] @ mats[..., s[-1], :, :]
    return subsets, basis


@dataclass(frozen=True)
class QuadraticGeneratorSolution:
    """The solved generators X_i with per-generator diagnostics.

    residuals are covariance-equation residuals; kernel_dim counts the
    near-null directions of the unconstrained system; grade_leakage is the
    norm of each X_i's product-basis coefficients outside grades {0, 2},
    nonzero only for defective (perturbed) gamma sets.
    """

    residuals: np.ndarray             # (G,), or (T, G) for a stack of T sets
    kernel_dim: int                   # or a (T,) integer array for a stack
    grade_leakage: np.ndarray         # (G,), or (T, G)
    generators: np.ndarray            # (G, d, d), or (T, G, d, d): the matrices X_i

    def trial(self, k: int) -> "QuadraticGeneratorSolution":
        """Trial k of a stacked solution, whose fields have a leading trial axis."""
        return QuadraticGeneratorSolution(self.residuals[k], int(self.kernel_dim[k]),
                                          self.grade_leakage[k], self.generators[k])


def _vector_targets(rho: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """The (..., G, N, d, d) right-hand sides rho_i[b, a] g^b of [X_i, g^a]."""
    return np.einsum("iba,...bkl->...iakl", rho, mats)


def solve_quadratic_generators(alg: LieAlgebraSpec, gam: GammaSet) -> QuadraticGeneratorSolution:
    """Solve [X_i, g^a] = rho_i[b, a] g^b for traceless X_i in the product span.

    The unknowns are the real coefficients of X_i on the 2^N gamma products
    B_s. Every generator's equations have the same coefficient matrix, the
    real and imaginary parts of the commutators [B_s, g^a], so all G
    generators are one least-squares solve with G right-hand sides. The
    trace-zero condition drops the identity product from the unknowns.
    Infeasibility (for gamma sets that are not Clifford) is reported through
    the residuals, never raised.

    For a stack of T sets every field gains a leading trial axis, kernel_dim
    becoming an integer array of shape (T,); each trial is its own
    least-squares call, with the same bits as the set solved alone.

    kernel_dim counts the singular values of the unconstrained system at or
    below KERNEL_TOL times the largest. Its identity column [I, g^a] is exactly
    zero in floating point, so it is the identity direction plus the count
    over the singular values that the solve already returns for the other
    columns; when every column is zero, every direction counts.
    """
    if alg.rep_dim != gam.n:
        raise DimensionMismatch("representation dimension must match the gamma count")
    mats = np.asarray(gam.matrices)
    lead, dim = mats.shape[:-3], mats.shape[-1]
    subsets, basis = _product_basis(mats)
    cols = _real_columns(_commutators(basis, mats))

    # trace(X) = 0 enforced by removing the identity basis element
    targets = _vector_targets(alg.rho, mats)
    rhs = _real_columns(targets)
    sol = np.empty(lead + (len(subsets) - 1, alg.n_generators))
    kernel_dim = np.empty(lead, dtype=int)
    for t in np.ndindex(lead):  # numpy has no stacked least squares
        sol[t], _, _, svals = np.linalg.lstsq(cols[t][:, 1:], rhs[t], rcond=None)
        kernel_dim[t] = 1 + np.sum(svals <= KERNEL_TOL * svals[0])
    xs = np.swapaxes(sol, -1, -2) @ basis[..., 1:, :, :].reshape(lead + (-1, dim * dim))
    xs = xs.reshape(lead + (alg.n_generators, dim, dim))
    residuals = np.max(_frobenius(_commutators(xs, mats) - targets), axis=-1)

    grades = np.array([len(s) for s in subsets[1:]])
    leakage = np.linalg.norm(sol[..., grades != 2, :], axis=-2)
    return QuadraticGeneratorSolution(residuals=residuals,
                                      kernel_dim=kernel_dim if lead else int(kernel_dim),
                                      grade_leakage=leakage, generators=xs)


def verify_lie_closure(sol: QuadraticGeneratorSolution, alg: LieAlgebraSpec) -> float:
    """max_ij || [X_i, X_j] - C_ij^k X_k ||_F over the reconstructed generators."""
    xs = sol.generators
    target = np.einsum("ijk,kab->ijab", alg.structure, xs)
    return float(np.max(_frobenius(_commutators(xs, xs) - target)))


def vector_covariance_check(sol: QuadraticGeneratorSolution, alg: LieAlgebraSpec,
                            gam: GammaSet) -> float:
    """max over (i, a) of || [X_i, g^a] - rho_i[b, a] g^b ||_F."""
    mats = np.asarray(gam.matrices)
    defect = _commutators(sol.generators, mats) - _vector_targets(alg.rho, mats)
    return float(np.max(_frobenius(defect)))


# ---------------------------------------------------------------------------
# the H = 0 operator and its determinant identity
# ---------------------------------------------------------------------------

def dirac_operator(q: float, m, a_const, p, gam: GammaSet) -> np.ndarray:
    """H = g^a (p_a - q A_a) - m I for a set of N gammas of size d x d.

    p has shape (N,) or (..., N) and m is a scalar or has a shape that
    broadcasts against p's leading shape; A is one constant N-covector. The
    result has shape (..., d, d), one operator per entry of the broadcast
    batch shape: pi = p - qA, broadcast to that shape, times the gammas as
    one (N, d^2) matrix in one product, then m subtracted on the diagonal.
    Where no real or imaginary part of an entry has two nonzero gamma terms,
    as in the Dirac and Pauli sets, the product equals the term-by-term sum
    up to the signs of zeros. Only the electromagnetic and mass terms enter.
    """
    n, d = gam.n, gam.matrix_dim
    p = np.asarray(p, dtype=float)
    a = np.asarray(a_const, dtype=float)
    m = np.asarray(m, dtype=float)
    if p.ndim == 0 or p.shape[-1] != n or a.shape != (n,):
        raise DimensionMismatch(f"p and A must be {n}-covectors")
    try:
        batch = np.broadcast_shapes(m.shape, p.shape[:-1])
    except ValueError:
        raise DimensionMismatch(
            f"mass shape {m.shape} does not broadcast against p shape {p.shape}") from None
    pi = np.broadcast_to(p - q * a, batch + (n,))
    h = (pi @ np.reshape(gam.matrices, (n, d * d))).reshape(batch + (d, d))
    diag = np.arange(d)
    h[..., diag, diag] -= m[..., None]
    return h


def mass_shell_determinant_residual(q: float, m, a_const, p, gam: GammaSet):
    """|det(g.pi - m I) - r| / max(1, |r|), r = (m^2 - pi.pi)^(d/2), pi = p - qA.

    pi.pi = h^ab pi_a pi_b with the set's form. For N >= 2 Clifford gammas,
    g.pi is traceless and squares to (pi.pi) I, so its eigenvalues are
    +-sqrt(pi.pi), d/2 times each; one gamma alone need not be traceless.
    Takes the shapes of dirac_operator: a scalar m with p of shape (N,)
    gives a float, else an array of the batch shape from one determinant.
    """
    h = dirac_operator(q, m, a_const, p, gam)
    pi = np.asarray(p, dtype=float) - q * np.asarray(a_const, dtype=float)
    pi_sq = np.sum((pi @ gam.form) * pi, axis=-1)
    m = np.asarray(m, dtype=float)
    r = (m * m - pi_sq) ** (gam.matrix_dim // 2)
    res = np.abs(np.linalg.det(h) - r) / np.maximum(1.0, np.abs(r))
    return float(res) if res.ndim == 0 else res
