"""The stacked Clifford solve and checks against their one-generator, one-pair loops."""

import numpy as np
import pytest

from oracles import (build_pauli_gammas, extract_vector_rep, gamma_set,
                     per_generator_quadratic_solve, per_pair_structure_constants)
from repmech import (
    abelian_algebra,
    anticommutator_residual,
    build_dirac_gammas,
    lorentz_vector_algebra,
    pair_vector_algebra,
    perturb_gammas,
    rotation_vector_algebra,
    solve_quadratic_generators,
    vector_covariance_check,
    verify_lie_closure,
)
from repmech.clifford import _SIGMA, _structure_constants_from_rep

FORMS = ("minkowski", "euclidean")
ALGEBRAS = {
    "lorentz": lorentz_vector_algebra,
    "so3": rotation_vector_algebra,
    "abelian": lambda form: abelian_algebra(4),
}
MAGNITUDES = (0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 0.3)
# batching reorders sums and the least-squares blocking; the fields agree to
# rounding, measured at 4.4e-16 over every case below
AGREE = 1e-13


def _gammas(build, form, magnitude):
    gam = build(form)
    if magnitude == 0.0:
        return gam
    return perturb_gammas(gam, magnitude, np.random.default_rng(3))


def _assert_matches_oracle(alg, gam):
    sol = solve_quadratic_generators(alg, gam)
    ref = per_generator_quadratic_solve(alg, gam)
    assert sol.kernel_dim == ref["kernel_dim"]
    # the generators are the coefficients times the product basis: this pins the coefficients
    for name in ("residuals", "grade_leakage", "generators"):
        np.testing.assert_allclose(getattr(sol, name), ref[name], rtol=0, atol=AGREE,
                                   err_msg=name)
    return sol, ref


@pytest.mark.parametrize("magnitude", MAGNITUDES)
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("algebra", sorted(ALGEBRAS))
def test_stacked_solve_matches_per_generator_solve(algebra, form, magnitude):
    gam = _gammas(build_dirac_gammas, form, magnitude)
    alg = ALGEBRAS[algebra](gam.form)
    sol, ref = _assert_matches_oracle(alg, gam)
    xs = ref["generators"]
    closure = max(float(np.linalg.norm(
        xi @ xj - xj @ xi - sum(alg.structure[i, j, k] * xk for k, xk in enumerate(xs))))
        for i, xi in enumerate(xs) for j, xj in enumerate(xs))
    assert abs(verify_lie_closure(sol, alg) - closure) <= AGREE
    # the covariance check is the largest per-generator residual
    assert abs(vector_covariance_check(sol, alg, gam) - np.max(ref["residuals"])) <= AGREE


@pytest.mark.parametrize("magnitude", MAGNITUDES)
@pytest.mark.parametrize("form, h", [("euclidean", np.eye(2)),
                                     ("minkowski", np.diag([1.0, -1.0]))])
def test_two_gamma_leakage_is_the_grade_one_mass(form, h, magnitude):
    gam = _gammas(build_pauli_gammas, form, magnitude)
    sol, ref = _assert_matches_oracle(pair_vector_algebra(h, [(0, 1)]), gam)
    grade_one = [k for k, s in enumerate(ref["subsets"]) if len(s) == 1]
    np.testing.assert_allclose(
        sol.grade_leakage, np.linalg.norm(ref["basis_coefficients"][:, grade_one], axis=1),
        rtol=0, atol=AGREE)


@pytest.mark.parametrize("magnitude", MAGNITUDES)
@pytest.mark.parametrize("form", FORMS)
def test_batching_keeps_each_right_hand_side_apart(form, magnitude):
    gam = _gammas(build_dirac_gammas, form, magnitude)
    alone = solve_quadratic_generators(rotation_vector_algebra(gam.form), gam)
    lorentz = solve_quadratic_generators(lorentz_vector_algebra(gam.form), gam)
    # so(3) is the pairs (1, 2), (1, 3), (2, 3): the last three Lorentz generators
    np.testing.assert_allclose(lorentz.generators[3:], alone.generators, rtol=0, atol=1e-14)
    np.testing.assert_allclose(lorentz.residuals[3:], alone.residuals, rtol=0, atol=1e-14)


def _random_rep(seed):
    """Three random 4x4 matrices: their commutators leave their span."""
    return np.random.default_rng(seed).normal(size=(3, 4, 4))


@pytest.mark.parametrize("rho", [ALGEBRAS[a](build_dirac_gammas(f).form).rho
                                 for a in sorted(ALGEBRAS) for f in FORMS]
                         + [_random_rep(seed) for seed in range(3)])
def test_stacked_structure_constants_match_per_pair_fit(rho):
    c_ref = per_pair_structure_constants(rho)
    np.testing.assert_allclose(_structure_constants_from_rep(rho), c_ref, rtol=0, atol=AGREE)


@pytest.mark.parametrize("magnitude", MAGNITUDES)
@pytest.mark.parametrize("form", FORMS)
def test_stacked_vector_rep_fit_matches_per_commutator_fit(form, magnitude):
    gam = _gammas(build_dirac_gammas, form, magnitude)
    xs = solve_quadratic_generators(lorentz_vector_algebra(gam.form), gam).generators
    rho, worst = extract_vector_rep(xs, gam)
    cols = np.stack([g.ravel() for g in gam.matrices], axis=1)
    cols = np.vstack([cols.real, cols.imag])
    worst_ref = 0.0
    for i, x in enumerate(xs):
        for a, ga in enumerate(gam.matrices):
            comm = (x @ ga - ga @ x).ravel()
            rhs = np.concatenate([comm.real, comm.imag])
            coef, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
            np.testing.assert_allclose(rho[i, :, a], coef, rtol=0, atol=AGREE)
            worst_ref = max(worst_ref, float(np.linalg.norm(cols @ coef - rhs)))
    assert abs(worst - worst_ref) <= AGREE


@pytest.mark.parametrize("magnitude", MAGNITUDES)
@pytest.mark.parametrize("form", FORMS)
def test_anticommutator_residual_matches_per_pair_loop(form, magnitude):
    gam = _gammas(build_dirac_gammas, form, magnitude)
    eye = np.eye(gam.matrix_dim)
    worst = max(float(np.linalg.norm(ga @ gb + gb @ ga - 2.0 * gam.form[a, b] * eye))
                for a, ga in enumerate(gam.matrices) for b, gb in enumerate(gam.matrices))
    assert abs(anticommutator_residual(gam.matrices, gam.form) - worst) <= AGREE


@pytest.mark.parametrize("form, unit", [("minkowski", 1.0), ("euclidean", 1j)])
def test_dirac_gammas_are_the_block_matrices(form, unit):
    eye2, zero = np.eye(2), np.zeros((2, 2))
    expected = [np.block([[eye2, zero], [zero, -eye2]])]
    expected += [unit * np.block([[zero, s], [-s, zero]]) for s in _SIGMA]
    np.testing.assert_array_equal(build_dirac_gammas(form).matrices, expected)


# the even sets, perturbed or not, are compared with the oracle in _assert_matches_oracle
KERNELS = {"pauli3": 2, "pauli3-real-volume": 5, "dirac+i*gamma5": 17, "one-gamma": 2}


@pytest.mark.parametrize("kind", KERNELS)
def test_kernel_dim_is_the_svd_count_of_the_whole_system(kind):
    gam = gamma_set(kind)
    assert gam.residual == 0.0
    alg = abelian_algebra(gam.n)
    sol = solve_quadratic_generators(alg, gam)
    assert sol.kernel_dim == per_generator_quadratic_solve(alg, gam)["kernel_dim"]
    assert sol.kernel_dim == KERNELS[kind]
