"""Gamma-matrix algebra from Lie-algebra covariance, and the H = 0 operator.

Generators of a Lie algebra acting on the gamma vector by
[X_i, gamma^a] = rho(X_i)^a_b gamma^b are sought inside the real span of
the 2^N products of the N gammas (the quadratic ansatz X = x_ab gamma^a
gamma^b and its completion by higher products). The covariance equations of
all G generators share one coefficient matrix, so they are one linear
least-squares problem with G right-hand sides, solved in one call. It is
solvable precisely when the gammas satisfy the Clifford anticommutation
relations, which is what the solvability probe measures on perturbed sets.

For the 4-gamma Dirac sets built here, and for 2-gamma Pauli sets, the
unconstrained system has a one-dimensional kernel, the identity direction;
the trace-zero constraint removes it and makes the solution unique (the
commutator form (1/4)[gamma^a, gamma^b] rather than (1/2) gamma^a gamma^b).
For odd N the product of all N gammas is central too: the kernel is 2 for
sigma_1, sigma_2, sigma_3, 5 for an N = 3 set whose product is a real
multiple of I, and 17 for the Dirac set with i*gamma^5.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, FormMismatch, UnsupportedDimension

ANTICOMM_TOL = 1e-12
KERNEL_TOL = 1e-10  # relative singular value counted in the kernel
PERTURBED_INDEX = 1  # the gamma matrix perturb_gammas changes

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _commutators(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (A, B, d, d) stack [a_i, b_j] of two stacks of d x d matrices."""
    return a[:, None] @ b[None] - b[None] @ a[:, None]


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """Frobenius norms over the last two axes."""
    return np.linalg.norm(stack, axis=(-2, -1))


def _real_columns(stack: np.ndarray, k: int) -> np.ndarray:
    """A complex stack as k real columns, one per leading entry: real parts over imaginary."""
    cols = stack.reshape(k, -1).T
    return np.concatenate([cols.real, cols.imag])


# ---------------------------------------------------------------------------
# gamma sets
# ---------------------------------------------------------------------------

def anticommutator_residual(matrices: Sequence[np.ndarray], form: np.ndarray) -> float:
    """max_ab || {g^a, g^b} - 2 h^ab I ||_F."""
    mats = np.asarray(matrices)
    prod = mats[:, None] @ mats[None]
    eye = np.eye(mats.shape[-1])
    res = prod + prod.swapaxes(0, 1) - 2.0 * form[:, :, None, None] * eye
    return float(np.max(_frobenius(res)))


@dataclass(frozen=True)
class GammaSet:
    """Concrete gamma matrices with their bilinear form and measured residual."""

    matrices: Tuple[np.ndarray, ...]
    form: np.ndarray
    residual: float
    label: str = ""

    @property
    def n(self) -> int:
        return len(self.matrices)

    @property
    def matrix_dim(self) -> int:
        return self.matrices[0].shape[0]


def _make_gamma_set(matrices, form, label, strict=True) -> GammaSet:
    matrices = tuple(np.asarray(m, dtype=complex) for m in matrices)
    form = np.asarray(form, dtype=float)
    res = anticommutator_residual(matrices, form)
    if strict and res > ANTICOMM_TOL:
        raise FormMismatch(f"anticommutator residual {res:.3e} exceeds {ANTICOMM_TOL}")
    return GammaSet(matrices=matrices, form=form, residual=res, label=label)


def build_dirac_gammas(form: str = "minkowski") -> GammaSet:
    """Standard 4x4 Dirac-representation matrices for {g^a, g^b} = 2 h^ab I.

    form="minkowski": h = diag(1,-1,-1,-1). form="euclidean": the spatial
    matrices are multiplied by i, giving h = identity.
    """
    if form == "minkowski":
        spatial_unit, h = 1.0, np.diag([1.0, -1.0, -1.0, -1.0])
    elif form == "euclidean":
        spatial_unit, h = 1j, np.eye(4)
    else:
        raise UnsupportedDimension(f"unknown form {form!r}")
    mats = np.zeros((4, 4, 4), dtype=complex)
    mats[0, :2, :2] = np.eye(2)
    mats[0, 2:, 2:] = -np.eye(2)
    for k, s in enumerate(_SIGMA, 1):
        mats[k, :2, 2:] = spatial_unit * s
        mats[k, 2:, :2] = -spatial_unit * s
    return _make_gamma_set(mats, h, f"dirac-{form}")


def perturb_gammas(gam: GammaSet, magnitude: float, rng: np.random.Generator) -> GammaSet:
    """Add a random Hermitian perturbation of given operator norm to matrix PERTURBED_INDEX."""
    dim = gam.matrix_dim
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (h + h.conj().T)
    h *= magnitude / np.linalg.norm(h, ord=2)
    mats = list(gam.matrices)
    mats[PERTURBED_INDEX] = mats[PERTURBED_INDEX] + h
    with np.errstate(over="ignore", invalid="ignore"):
        perturbed = _make_gamma_set(mats, gam.form, f"{gam.label}-perturbed", strict=False)
    if not np.isfinite(perturbed.residual):
        raise FormMismatch(f"perturbation {magnitude} overflows the anticommutator residual")
    return perturbed


# ---------------------------------------------------------------------------
# Lie algebra specifications
# ---------------------------------------------------------------------------

def _structure_constants_from_rep(rho: np.ndarray) -> Tuple[np.ndarray, float]:
    """Fit [rho_i, rho_j] = C_ij^k rho_k by least squares over the rep span."""
    g, n, _ = rho.shape
    cols = rho.reshape(g, n * n).T
    comm = _commutators(rho, rho).reshape(g * g, n * n).T
    coef = np.linalg.lstsq(cols, comm, rcond=None)[0]
    worst = float(np.max(np.linalg.norm(cols @ coef - comm, axis=0)))
    return coef.T.reshape(g, g, g), worst


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
    label: str = ""
    pairs: Tuple[Tuple[int, int], ...] = ()  # index pairs for pair-built algebras

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


def pair_vector_algebra(form: np.ndarray, pairs: Sequence[Tuple[int, int]],
                        label: str) -> LieAlgebraSpec:
    form = np.asarray(form, dtype=float)
    rho = np.stack([_pair_generator(form, mu, nu) for mu, nu in pairs])
    c, res = _structure_constants_from_rep(rho)
    if res > 1e-12:
        raise DimensionMismatch("pair generators failed to close")
    return LieAlgebraSpec(structure=c, rho=rho, label=label,
                          pairs=tuple((int(a), int(b)) for a, b in pairs))


def lorentz_vector_algebra(form: np.ndarray = None) -> LieAlgebraSpec:
    """so(1,3) in the vector representation, generators indexed by pairs mu < nu."""
    if form is None:
        form = np.diag([1.0, -1.0, -1.0, -1.0])
    pairs = list(itertools.combinations(range(form.shape[0]), 2))
    return pair_vector_algebra(form, pairs, "lorentz")


def rotation_vector_algebra(form: np.ndarray = None) -> LieAlgebraSpec:
    """so(3) embedded in the spatial sector of the 4-dim vector representation."""
    if form is None:
        form = np.diag([1.0, -1.0, -1.0, -1.0])
    pairs = [(1, 2), (1, 3), (2, 3)]
    return pair_vector_algebra(form, pairs, "so3")


def abelian_algebra(rep_dim: int = 4) -> LieAlgebraSpec:
    """Single generator, C = 0, acting trivially on the gamma vector."""
    return LieAlgebraSpec(structure=np.zeros((1, 1, 1)),
                          rho=np.zeros((1, rep_dim, rep_dim)), label="abelian")


# ---------------------------------------------------------------------------
# the linear solve for quadratic generators
# ---------------------------------------------------------------------------

def _product_basis(gam: GammaSet):
    """Ordered gamma products B_s = g^{s1} g^{s2} ... over index subsets s, stacked."""
    subsets = [s for r in range(gam.n + 1) for s in itertools.combinations(range(gam.n), r)]
    position = {s: k for k, s in enumerate(subsets)}
    basis = np.empty((len(subsets), gam.matrix_dim, gam.matrix_dim), dtype=complex)
    basis[0] = np.eye(gam.matrix_dim)
    for k, s in enumerate(subsets[1:], 1):
        basis[k] = basis[position[s[:-1]]] @ gam.matrices[s[-1]]
    return subsets, basis


@dataclass(frozen=True)
class QuadraticGeneratorSolution:
    """Solved generator coefficients with per-generator diagnostics.

    coefficients holds the quadratic-ansatz arrays (x_i)_ab (antisymmetric
    placement of the grade-2 product coefficients); grade_leakage is the
    coefficient mass outside grades {0, 2}, nonzero only for defective
    (perturbed) gamma sets. residuals are covariance-equation residuals;
    kernel_dim counts the near-null directions of the unconstrained system.
    """

    coefficients: np.ndarray          # (G, N, N)
    basis_coefficients: np.ndarray    # (G, 2**N) in the product basis
    residuals: np.ndarray             # (G,)
    kernel_dim: int
    grade_leakage: np.ndarray         # (G,)
    subsets: Tuple[Tuple[int, ...], ...]
    generators: np.ndarray            # (G, d, d) reconstructed matrices X_i


def _vector_targets(rho: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """The (G, N, d, d) right-hand sides rho_i[b, a] g^b of [X_i, g^a]."""
    return np.einsum("iba,bkl->iakl", rho, mats)


def solve_quadratic_generators(alg: LieAlgebraSpec, gam: GammaSet) -> QuadraticGeneratorSolution:
    """Solve [X_i, g^a] = rho_i[b, a] g^b for traceless X_i in the product span.

    The unknowns are the real coefficients of X_i on the 2^N gamma products
    B_s. Every generator's equations have the same coefficient matrix, the
    real and imaginary parts of the commutators [B_s, g^a], so all G
    generators are one least-squares solve with G right-hand sides. The
    trace-zero condition drops the identity product from the unknowns.
    Infeasibility (for gamma sets that are not Clifford) is reported through
    the residuals, never raised.

    kernel_dim counts the singular values of the unconstrained system at or
    below KERNEL_TOL times the largest. Its identity column [I, g^a] is exactly
    zero in floating point, so it is the identity direction plus the count
    over the singular values that the solve already returns for the other
    columns; when every column is zero, every direction counts.
    """
    if alg.rep_dim != gam.n:
        raise DimensionMismatch("representation dimension must match the gamma count")
    subsets, basis = _product_basis(gam)
    mats = np.asarray(gam.matrices)
    cols = _real_columns(_commutators(basis, mats), len(subsets))

    # trace(X) = 0 enforced by removing the identity basis element
    targets = _vector_targets(alg.rho, mats)
    rhs = _real_columns(targets, alg.n_generators)
    sol, _, _, svals = np.linalg.lstsq(cols[:, 1:], rhs, rcond=None)
    kernel_dim = 1 + int(np.sum(svals <= KERNEL_TOL * svals[0]))
    coeffs = np.zeros((alg.n_generators, len(subsets)))
    coeffs[:, 1:] = sol.T
    xs = np.tensordot(coeffs, basis, axes=1)
    residuals = np.max(_frobenius(_commutators(xs, mats) - targets), axis=1)

    grades = np.array([len(s) for s in subsets])
    a, b = np.array([s for s in subsets if len(s) == 2], dtype=int).reshape(-1, 2).T
    quad = np.zeros((alg.n_generators, gam.n, gam.n))
    quad[:, a, b] = 0.5 * coeffs[:, grades == 2]
    quad[:, b, a] = -0.5 * coeffs[:, grades == 2]
    leakage = np.linalg.norm(coeffs[:, (grades != 0) & (grades != 2)], axis=1)
    return QuadraticGeneratorSolution(
        coefficients=quad, basis_coefficients=coeffs, residuals=residuals,
        kernel_dim=kernel_dim, grade_leakage=leakage,
        subsets=tuple(subsets), generators=xs,
    )


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

_MINKOWSKI4 = np.diag([1.0, -1.0, -1.0, -1.0])


def dirac_operator(q: float, m, a_const, p, gam: GammaSet) -> np.ndarray:
    """H = g^a (p_a - q A_a) - m I for a Minkowski 4x4 gamma set.

    p has shape (4,) or (..., 4) and m is a scalar or has a shape that
    broadcasts against p's leading shape; A is one constant 4-covector. The
    result has shape (..., 4, 4), one operator per entry of the broadcast
    batch shape: pi = p - qA, broadcast to that shape, times the gammas as
    one (4, 16) matrix in one product, then m subtracted on the diagonal.
    Every entry of the Dirac set's operator has at most one nonzero gamma
    term, so the product equals the term-by-term sum up to the signs of
    zeros. Only the electromagnetic and mass terms enter; higher tensor
    terms have no defined reduction here.
    """
    if gam.n != 4 or not np.allclose(gam.form, _MINKOWSKI4, atol=1e-12):
        raise FormMismatch("dirac_operator requires the Minkowski 4x4 gamma set")
    p = np.asarray(p, dtype=float)
    a = np.asarray(a_const, dtype=float)
    m = np.asarray(m, dtype=float)
    if p.ndim == 0 or p.shape[-1] != 4 or a.shape != (4,):
        raise DimensionMismatch("p and A must be 4-covectors")
    try:
        batch = np.broadcast_shapes(m.shape, p.shape[:-1])
    except ValueError:
        raise DimensionMismatch(
            f"mass shape {m.shape} does not broadcast against p shape {p.shape}") from None
    pi = np.broadcast_to(p - q * a, batch + (4,))
    h = (pi @ np.reshape(gam.matrices, (4, 16))).reshape(batch + (4, 4))
    diag = np.arange(4)
    h[..., diag, diag] -= m[..., None]
    return h


def mass_shell_determinant_residual(q: float, m, a_const, p, gam: GammaSet):
    """|det(g.pi - m I) - (pi.pi - m^2)^2| with pi = p - qA raised by the form.

    Takes the shapes of dirac_operator. A scalar m with p of shape (4,)
    gives a float; otherwise the result is an array of the broadcast batch
    shape (...), from one stacked determinant.
    """
    h = dirac_operator(q, m, a_const, p, gam)
    pi = np.asarray(p, dtype=float) - q * np.asarray(a_const, dtype=float)
    pi_sq = np.sum((pi @ np.linalg.inv(gam.form)) * pi, axis=-1)
    m = np.asarray(m, dtype=float)
    res = np.abs(np.linalg.det(h) - (pi_sq - m * m) ** 2)
    return float(res) if res.ndim == 0 else res
