import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repmech import (
    DimensionMismatch,
    FormMismatch,
    LieAlgebraSpec,
    abelian_algebra,
    build_dirac_gammas,
    dirac_operator,
    extract_vector_rep,
    lorentz_vector_algebra,
    mass_shell_determinant_residual,
    perturb_gammas,
    rotation_vector_algebra,
    solve_quadratic_generators,
    vector_covariance_check,
    verify_lie_closure,
)

FORMS = ("minkowski", "euclidean")
ALGEBRAS = {
    "lorentz": lorentz_vector_algebra,
    "so3": rotation_vector_algebra,
    "abelian": lambda form: abelian_algebra(4),
}


def _samples(rng, n):
    """Momenta and masses drawn like the CLI's determinant check."""
    return rng.normal(size=(n, 4)) * 1.5, rng.uniform(0.0, 2.0, size=n)


def _minkowski_square(p):
    return p[..., 0] ** 2 - np.sum(p[..., 1:] ** 2, axis=-1)


class TestDiracGenerators:
    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("algebra", sorted(ALGEBRAS))
    def test_generators_close_and_are_covariant(self, form, algebra):
        gam = build_dirac_gammas(form)
        alg = ALGEBRAS[algebra](gam.form)
        sol = solve_quadratic_generators(alg, gam)
        assert sol.kernel_dim == 1
        assert np.max(sol.residuals) <= 1e-12
        assert verify_lie_closure(sol, alg) <= 1e-12
        assert vector_covariance_check(sol, alg, gam) <= 1e-12

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("algebra", sorted(ALGEBRAS))
    def test_extract_vector_rep_round_trips_rho(self, form, algebra):
        gam = build_dirac_gammas(form)
        alg = ALGEBRAS[algebra](gam.form)
        rho, fit = extract_vector_rep(solve_quadratic_generators(alg, gam).generators(), gam)
        assert fit <= 1e-12
        np.testing.assert_allclose(rho, alg.rho, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("form", FORMS)
    def test_grade_leakage_grows_with_perturbation(self, form):
        gam = build_dirac_gammas(form)
        alg = lorentz_vector_algebra(gam.form)
        leakage = [float(np.max(solve_quadratic_generators(alg, gam).grade_leakage))]
        for magnitude in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 0.3):
            # one seed per magnitude: the same direction, scaled
            pert = perturb_gammas(gam, magnitude, np.random.default_rng(3))
            leakage.append(float(np.max(solve_quadratic_generators(alg, pert).grade_leakage)))
        assert leakage[0] <= 1e-15
        assert all(b > a for a, b in zip(leakage, leakage[1:]))

    def test_representation_that_does_not_close_is_rejected(self):
        e01 = np.zeros((4, 4))
        e01[0, 1] = 1.0
        rho = np.stack([e01, e01.T])  # [E01, E10] = diag(1, -1, 0, 0), but C = 0
        with pytest.raises(DimensionMismatch, match="does not close"):
            LieAlgebraSpec(structure=np.zeros((2, 2, 2)), rho=rho)


class TestDeterminantIdentity:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.floats(-2.0, 2.0))
    def test_batched_equals_per_sample(self, seed, q):
        rng = np.random.default_rng(seed)
        gam = build_dirac_gammas("minkowski")
        p, m = _samples(rng, 50)
        a = rng.normal(size=4)
        batched = mass_shell_determinant_residual(q, m, a, p, gam)
        single = [mass_shell_determinant_residual(q, float(mk), a, pk, gam)
                  for mk, pk in zip(m, p)]
        assert batched.shape == (50,)
        assert all(isinstance(r, float) for r in single)
        np.testing.assert_allclose(batched, single, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(
            dirac_operator(q, m, a, p, gam),
            [dirac_operator(q, float(mk), a, pk, gam) for mk, pk in zip(m, p)])

    def test_identity_holds_and_broadcasts(self):
        gam = build_dirac_gammas("minkowski")
        p, m = _samples(np.random.default_rng(0), 24)
        target = (_minkowski_square(p) - m * m) ** 2
        res = mass_shell_determinant_residual(0.0, m, np.zeros(4), p, gam)
        assert np.max(res / np.maximum(1.0, np.abs(target))) <= 1e-12
        grid = mass_shell_determinant_residual(0.0, m.reshape(4, 6), np.zeros(4),
                                               p.reshape(4, 6, 4), gam)
        np.testing.assert_array_equal(grid, res.reshape(4, 6))
        # one momentum against a batch of masses
        masses = mass_shell_determinant_residual(0.0, m, np.zeros(4), p[0], gam)
        assert masses.shape == (24,)
        np.testing.assert_allclose(masses, [mass_shell_determinant_residual(
            0.0, float(mk), np.zeros(4), p[0], gam) for mk in m], rtol=0, atol=1e-13)

    def test_euclidean_set_is_a_form_mismatch(self):
        gam = build_dirac_gammas("euclidean")
        with pytest.raises(FormMismatch):
            dirac_operator(0.0, 1.0, np.zeros(4), np.ones(4), gam)
        with pytest.raises(FormMismatch):
            mass_shell_determinant_residual(0.0, 1.0, np.zeros(4), np.ones((3, 4)), gam)

    @pytest.mark.parametrize("p, m, a", [
        (np.ones(3), 1.0, np.zeros(4)),
        (np.ones((5, 3)), 1.0, np.zeros(4)),
        (1.0, 1.0, np.zeros(4)),
        (np.ones((5, 4)), np.ones(3), np.zeros(4)),
        (np.ones((5, 4)), 1.0, np.zeros(3)),
    ])
    def test_bad_shapes_are_a_dimension_mismatch(self, p, m, a):
        gam = build_dirac_gammas("minkowski")
        with pytest.raises(DimensionMismatch):
            dirac_operator(0.0, m, a, p, gam)
        with pytest.raises(DimensionMismatch):
            mass_shell_determinant_residual(0.0, m, a, p, gam)
