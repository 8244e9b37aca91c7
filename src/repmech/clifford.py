"""Gamma-matrix algebra from Lie-algebra covariance, and the H = 0 operator.

Generators of a Lie algebra acting on the gamma vector by
[X_i, gamma^a] = rho(X_i)^a_b gamma^b are sought inside the real span of
the 2^N products of the N gammas (the quadratic ansatz X = x_ab gamma^a
gamma^b and its completion by higher products). For each generator this is
a linear system; it is solvable precisely when the gammas satisfy the
Clifford anticommutation relations, which is what the solvability probe
measures on perturbed sets.

For the 2- and 4-gamma sets built here the unconstrained system has a
one-dimensional kernel, the identity direction; the trace-zero constraint
removes it and makes the solution unique (the commutator form
(1/4)[gamma^a, gamma^b] rather than (1/2) gamma^a gamma^b). For odd N the
product of all N gammas is central too: kernels of 2, 5 and 17 were measured.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, FormMismatch, UnsupportedDimension

ANTICOMM_TOL = 1e-12

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


# ---------------------------------------------------------------------------
# gamma sets
# ---------------------------------------------------------------------------

def anticommutator_residual(matrices: Sequence[np.ndarray], form: np.ndarray) -> float:
    """max_ab || {g^a, g^b} - 2 h^ab I ||_F."""
    dim = matrices[0].shape[0]
    eye = np.eye(dim)
    worst = 0.0
    for a, ga in enumerate(matrices):
        for b, gb in enumerate(matrices):
            res = ga @ gb + gb @ ga - 2.0 * form[a, b] * eye
            worst = max(worst, float(np.linalg.norm(res)))
    return worst


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
    eye2 = np.eye(2, dtype=complex)
    g0 = np.block([[eye2, np.zeros((2, 2))], [np.zeros((2, 2)), -eye2]])
    spatial = [np.block([[np.zeros((2, 2)), s], [-s, np.zeros((2, 2))]]) for s in _SIGMA]
    if form == "minkowski":
        mats = [g0] + spatial
        h = np.diag([1.0, -1.0, -1.0, -1.0])
    elif form == "euclidean":
        mats = [g0] + [1j * s for s in spatial]
        h = np.eye(4)
    else:
        raise UnsupportedDimension(f"unknown form {form!r}")
    return _make_gamma_set(mats, h, f"dirac-{form}")


def build_pauli_gammas(form: str = "euclidean") -> GammaSet:
    """2x2 toy set: sigma_1, sigma_2 (euclidean) or sigma_3, i*sigma_1 (minkowski)."""
    if form == "euclidean":
        return _make_gamma_set([_SIGMA[0], _SIGMA[1]], np.eye(2), "pauli-euclidean")
    if form == "minkowski":
        return _make_gamma_set([_SIGMA[2], 1j * _SIGMA[0]],
                               np.diag([1.0, -1.0]), "pauli-minkowski")
    raise UnsupportedDimension(f"unknown form {form!r}")


def perturb_gammas(gam: GammaSet, magnitude: float, rng: np.random.Generator,
                   index: int = 1) -> GammaSet:
    """Add a random Hermitian perturbation of given operator norm to one matrix."""
    dim = gam.matrix_dim
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (h + h.conj().T)
    h *= magnitude / np.linalg.norm(h, ord=2)
    mats = list(gam.matrices)
    mats[index] = mats[index] + h
    return _make_gamma_set(mats, gam.form, f"{gam.label}-perturbed", strict=False)


# ---------------------------------------------------------------------------
# Lie algebra specifications
# ---------------------------------------------------------------------------

def _structure_constants_from_rep(rho: np.ndarray) -> Tuple[np.ndarray, float]:
    """Fit [rho_i, rho_j] = C_ij^k rho_k by least squares over the rep span."""
    g, n, _ = rho.shape
    cols = rho.reshape(g, n * n).T
    c = np.zeros((g, g, g))
    worst = 0.0
    for i in range(g):
        for j in range(g):
            comm = (rho[i] @ rho[j] - rho[j] @ rho[i]).reshape(n * n)
            coef, res, *_ = np.linalg.lstsq(cols, comm, rcond=None)
            c[i, j] = coef
            worst = max(worst, float(np.linalg.norm(cols @ coef - comm)))
    return c, worst


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
        cols = rho.reshape(rho.shape[0], -1).T
        worst = 0.0
        for i in range(rho.shape[0]):
            for j in range(rho.shape[0]):
                comm = (rho[i] @ rho[j] - rho[j] @ rho[i]).ravel()
                worst = max(worst, float(np.linalg.norm(comm - cols @ c[i, j])))
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
    """Ordered gamma products B_s = g^{s1} g^{s2} ... over index subsets s."""
    dim = gam.matrix_dim
    subsets = []
    basis = []
    for r in range(gam.n + 1):
        for s in itertools.combinations(range(gam.n), r):
            mat = np.eye(dim, dtype=complex)
            for a in s:
                mat = mat @ gam.matrices[a]
            subsets.append(s)
            basis.append(mat)
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
    _generators: Tuple[np.ndarray, ...]

    def generators(self) -> Tuple[np.ndarray, ...]:
        """Reconstructed matrices X_i."""
        return self._generators


def solve_quadratic_generators(alg: LieAlgebraSpec, gam: GammaSet,
                               kernel_tol: float = 1e-10) -> QuadraticGeneratorSolution:
    """Solve [X_i, g^a] = rho_i^a_b g^b for traceless X_i in the product span.

    Infeasibility (for gamma sets that are not Clifford) is reported through
    the residuals, never raised.
    """
    if alg.rep_dim != gam.n:
        raise DimensionMismatch("representation dimension must match the gamma count")
    subsets, basis = _product_basis(gam)
    dim = gam.matrix_dim
    n_eq = gam.n * dim * dim

    cols = np.empty((2 * n_eq, len(basis)))
    for a_idx, b_mat in enumerate(basis):
        col = np.concatenate(
            [(b_mat @ gmu - gmu @ b_mat).ravel() for gmu in gam.matrices]
        )
        cols[:n_eq, a_idx] = col.real
        cols[n_eq:, a_idx] = col.imag

    # kernel of the unconstrained system (identity direction for Clifford sets)
    svals = np.linalg.svd(cols, compute_uv=False)
    kernel_dim = int(np.sum(svals < kernel_tol * svals[0]))

    # trace(X) = 0 enforced by removing the identity basis element
    keep = [k for k, s in enumerate(subsets) if s != ()]
    cols_c = cols[:, keep]

    g_count = alg.n_generators
    coeffs = np.zeros((g_count, len(basis)))
    residuals = np.empty(g_count)
    xs = []
    quad = np.zeros((g_count, gam.n, gam.n))
    leakage = np.empty(g_count)
    pair_pos = {s: k for k, s in enumerate(subsets) if len(s) == 2}
    for i in range(g_count):
        target = np.concatenate(
            [sum(alg.rho[i][nu, mu] * gam.matrices[nu] for nu in range(gam.n)).ravel()
             for mu in range(gam.n)]
        )
        rhs = np.concatenate([target.real, target.imag])
        sol, *_ = np.linalg.lstsq(cols_c, rhs, rcond=None)
        coeffs[i, keep] = sol
        x_mat = sum(c * b for c, b in zip(coeffs[i], basis))
        xs.append(x_mat)
        residuals[i] = max(
            float(np.linalg.norm((x_mat @ gmu - gmu @ x_mat)
                                 - sum(alg.rho[i][nu, mu] * gam.matrices[nu]
                                       for nu in range(gam.n))))
            for mu, gmu in enumerate(gam.matrices)
        )
        for (a, b), k in pair_pos.items():
            quad[i, a, b] += 0.5 * coeffs[i, k]
            quad[i, b, a] -= 0.5 * coeffs[i, k]
        leakage[i] = float(np.linalg.norm(
            [coeffs[i, k] for k, s in enumerate(subsets) if len(s) in (1, 3, 4)]
        ))
    return QuadraticGeneratorSolution(
        coefficients=quad, basis_coefficients=coeffs, residuals=residuals,
        kernel_dim=kernel_dim, grade_leakage=leakage,
        subsets=tuple(subsets), _generators=tuple(xs),
    )


def verify_lie_closure(sol: QuadraticGeneratorSolution, alg: LieAlgebraSpec) -> float:
    """max_ij || [X_i, X_j] - C_ij^k X_k ||_F over the reconstructed generators."""
    xs = sol.generators()
    worst = 0.0
    for i, xi in enumerate(xs):
        for j, xj in enumerate(xs):
            target = sum(alg.structure[i, j, k] * xs[k] for k in range(len(xs)))
            worst = max(worst, float(np.linalg.norm(xi @ xj - xj @ xi - target)))
    return worst


def vector_covariance_check(sol: QuadraticGeneratorSolution, alg: LieAlgebraSpec,
                            gam: GammaSet) -> float:
    """max over (i, a) of || [X_i, g^a] - rho_i[b, a] g^b ||_F."""
    worst = 0.0
    for i, xi in enumerate(sol.generators()):
        for mu, gmu in enumerate(gam.matrices):
            target = sum(alg.rho[i][nu, mu] * gam.matrices[nu] for nu in range(gam.n))
            worst = max(worst, float(np.linalg.norm(xi @ gmu - gmu @ xi - target)))
    return worst


def extract_vector_rep(generators: Sequence[np.ndarray], gam: GammaSet):
    """Recover rho_i from [X_i, g^a] = rho_i[b, a] g^b by projection on the g span.

    Returns (rho, fit_residual); rho uses the homomorphism convention of
    LieAlgebraSpec, so it can be compared to alg.rho directly.
    """
    cols = np.stack([g.ravel() for g in gam.matrices], axis=1)
    cols_r = np.vstack([cols.real, cols.imag])
    rho = np.zeros((len(generators), gam.n, gam.n))
    worst = 0.0
    for i, x in enumerate(generators):
        for mu, gmu in enumerate(gam.matrices):
            comm = (x @ gmu - gmu @ x).ravel()
            rhs = np.concatenate([comm.real, comm.imag])
            coef, *_ = np.linalg.lstsq(cols_r, rhs, rcond=None)
            rho[i, :, mu] = coef
            worst = max(worst, float(np.linalg.norm(cols_r @ coef - rhs)))
    return rho, worst


# ---------------------------------------------------------------------------
# the H = 0 operator and its determinant identity
# ---------------------------------------------------------------------------

_MINKOWSKI4 = np.diag([1.0, -1.0, -1.0, -1.0])


def dirac_operator(q: float, m, a_const, p, gam: GammaSet) -> np.ndarray:
    """H = g^a (p_a - q A_a) - m I for a Minkowski 4x4 gamma set.

    p has shape (4,) or (..., 4) and m is a scalar or has a shape that
    broadcasts against p's leading shape; A is one constant 4-covector. The
    result has shape (..., 4, 4), one operator per batch entry. Only the
    electromagnetic and mass terms enter; higher tensor terms have no defined
    reduction here.
    """
    if gam.n != 4 or not np.allclose(gam.form, _MINKOWSKI4, atol=1e-12):
        raise FormMismatch("dirac_operator requires the Minkowski 4x4 gamma set")
    p = np.asarray(p, dtype=float)
    a = np.asarray(a_const, dtype=float)
    m = np.asarray(m, dtype=float)
    if p.ndim == 0 or p.shape[-1] != 4 or a.shape != (4,):
        raise DimensionMismatch("p and A must be 4-covectors")
    try:
        np.broadcast_shapes(m.shape, p.shape[:-1])
    except ValueError:
        raise DimensionMismatch(
            f"mass shape {m.shape} does not broadcast against p shape {p.shape}") from None
    pi = p - q * a
    h = -m[..., None, None] * np.eye(4, dtype=complex)
    for alpha in range(4):
        h = h + gam.matrices[alpha] * pi[..., alpha, None, None]
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


def mass_term_trace_identity(gam: GammaSet, g) -> float:
    """|| g_ab g^a g^b - N I ||_F: the symmetric contraction collapses to N times I.

    The quadratic mass term sqrt(g_ab g^a g^b) is therefore sqrt(N) I rather
    than I; dirac_operator keeps the conventional unit normalization and this
    function surfaces the alternative number.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != gam.form.shape or not np.allclose(g, gam.form, atol=1e-12):
        raise FormMismatch("metric must equal the gamma set's bilinear form")
    contraction = sum(g[a, b] * gam.matrices[a] @ gam.matrices[b]
                      for a in range(gam.n) for b in range(gam.n))
    return float(np.linalg.norm(contraction - gam.n * np.eye(gam.matrix_dim)))
