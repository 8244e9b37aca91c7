import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (build_pauli_gammas, dirac_operator_terms, extract_vector_rep,
                     mass_term_trace_identity)

from repmech import (
    DimensionMismatch,
    FormMismatch,
    LieAlgebraSpec,
    abelian_algebra,
    build_dirac_gammas,
    dirac_operator,
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
        rho, fit = extract_vector_rep(solve_quadratic_generators(alg, gam).generators, gam)
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

    @pytest.mark.parametrize("build", [build_dirac_gammas, build_pauli_gammas])
    def test_a_perturbation_that_overflows_the_residual_is_refused(self, build, recwarn):
        gam = build()
        with pytest.raises(FormMismatch, match=r"^perturbation 1e\+300 overflows the anticomm"):
            perturb_gammas(gam, 1e300, np.random.default_rng(3))
        assert not recwarn.list
        assert np.isfinite(perturb_gammas(gam, 1e50, np.random.default_rng(3)).residual)

    def test_representation_that_does_not_close_is_rejected(self):
        e01 = np.zeros((4, 4))
        e01[0, 1] = 1.0
        rho = np.stack([e01, e01.T])  # [E01, E10] = diag(1, -1, 0, 0), but C = 0
        with pytest.raises(DimensionMismatch, match="does not close"):
            LieAlgebraSpec(structure=np.zeros((2, 2, 2)), rho=rho)


# The batched and per-sample residuals are two roundings of one determinant,
# so they may differ by rounding at the scale max(1, (pi.pi - m^2)^2). Over
# 150 000 seeded samples the difference reached 1.0 eps of that scale; the
# bound allows DET_ROUNDING times that.
DET_ROUNDING = 16


def _rounding_excess(batched, single, q, m, a, p):
    """Per-sample |batched - single| in units of the allowed rounding; <= 1 passes."""
    scale = np.maximum(1.0, (_minkowski_square(p - q * a) - m * m) ** 2)
    return np.abs(batched - np.asarray(single)) / (DET_ROUNDING * np.finfo(float).eps * scale)


def _batched_and_single(seed, q):
    rng = np.random.default_rng(seed)
    gam = build_dirac_gammas("minkowski")
    p, m = _samples(rng, 50)
    a = rng.normal(size=4)
    batched = mass_shell_determinant_residual(q, m, a, p, gam)
    single = [mass_shell_determinant_residual(q, float(mk), a, pk, gam)
              for mk, pk in zip(m, p)]
    return batched, single, (m, a, p, gam)


class TestDeterminantIdentity:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.floats(-2.0, 2.0))
    @example(72505778, -1.7445070858406275)  # differed by 1.14e-13, past an absolute 1e-13
    def test_batched_equals_per_sample(self, seed, q):
        batched, single, (m, a, p, gam) = _batched_and_single(seed, q)
        assert batched.shape == (50,)
        assert all(isinstance(r, float) for r in single)
        assert np.all(_rounding_excess(batched, single, q, m, a, p) <= 1.0)
        np.testing.assert_array_equal(
            dirac_operator(q, m, a, p, gam),
            [dirac_operator(q, float(mk), a, pk, gam) for mk, pk in zip(m, p)])

    def test_rounding_bound_rejects_a_shifted_sample(self):
        q = -1.7445070858406275
        batched, single, (m, a, p, _gam) = _batched_and_single(72505778, q)
        assert np.all(_rounding_excess(batched, single, q, m, a, p) <= 1.0)
        for k in (0, int(np.argmax(np.abs(batched)))):
            shifted = batched.copy()
            shifted[k] += 1e-9
            assert _rounding_excess(shifted, single, q, m, a, p)[k] > 1.0

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

    @pytest.mark.parametrize("p_shape, m_shape", [
        ((4,), ()), ((37, 4), (37,)), ((37, 4), ()), ((4,), (9,)),
        ((6, 1, 4), (5,)), ((1, 4), (3, 1)), ((2, 3, 4), (2, 3)), ((0, 4), (0,)),
    ])
    def test_one_product_equals_the_four_terms(self, p_shape, m_shape):
        gam = build_dirac_gammas("minkowski")
        for seed in range(20):
            rng = np.random.default_rng(seed)
            p, m = rng.normal(size=p_shape) * 1.5, rng.uniform(0.0, 2.0, size=m_shape)
            q, a = rng.normal(), rng.normal(size=4)
            h = dirac_operator(q, m, a, p, gam)
            ref = dirac_operator_terms(q, m, a, p, gam)
            assert h.shape == ref.shape == np.broadcast_shapes(m_shape, p_shape[:-1]) + (4, 4)
            np.testing.assert_array_equal(h, ref)
            # only the signs of zeros may differ, and the determinants do not see them
            assert np.linalg.det(h).tobytes() == np.linalg.det(ref).tobytes()

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


PAULI_FORMS = {"euclidean": np.eye(2), "minkowski": np.diag([1.0, -1.0])}


@pytest.mark.parametrize("form", PAULI_FORMS)
def test_pauli_anticommutators_are_twice_the_form(form):
    gam = build_pauli_gammas(form)
    g = PAULI_FORMS[form]
    assert np.array_equal(gam.form, g)
    for a, ga in enumerate(gam.matrices):
        for b, gb in enumerate(gam.matrices):
            assert np.array_equal(ga @ gb + gb @ ga, 2.0 * g[a, b] * np.eye(2))


@pytest.mark.parametrize("build, form", [(build_dirac_gammas, f) for f in FORMS]
                         + [(build_pauli_gammas, f) for f in PAULI_FORMS])
def test_mass_term_trace_identity_is_the_closed_form(build, form):
    # with {g^a, g^b} = 2 h^ab I and a diagonal form of entries +-1,
    # g_ab g^a g^b = sum_a h_aa (g^a)^2 = sum_a h_aa h^aa I = N I exactly
    gam = build(form)
    contraction = np.einsum("ab,aij,bjk->ik", gam.form, np.array(gam.matrices),
                            np.array(gam.matrices))
    assert np.array_equal(contraction, gam.n * np.eye(gam.matrix_dim))
    assert mass_term_trace_identity(gam, gam.form) == 0.0
    with pytest.raises(FormMismatch):
        mass_term_trace_identity(gam, -gam.form)
