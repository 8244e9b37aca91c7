import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (assert_guard, build_pauli_gammas, dirac_operator_terms, extract_vector_rep,
                     gamma_set, mass_term_trace_identity)

from repmech import (
    DimensionMismatch,
    FormMismatch,
    LieAlgebraSpec,
    UnsupportedDimension,
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
from repmech.clifford import _make_gamma_set

FORMS = ("minkowski", "euclidean")
ALGEBRAS = {
    "lorentz": lorentz_vector_algebra,
    "so3": rotation_vector_algebra,
    "abelian": lambda form: abelian_algebra(4),
}


# Clifford sets of N >= 2 gammas: the Dirac and Pauli sets in both forms, and four others
CLIFFORD_SETS = {
    **{f"dirac-{form}": lambda form=form: build_dirac_gammas(form) for form in FORMS},
    **{f"pauli-{form}": lambda form=form: build_pauli_gammas(form) for form in FORMS},
    **{kind: lambda kind=kind: gamma_set(kind)
       for kind in ("pauli3", "pauli3-real-volume", "dirac+i*gamma5", "pauli-scaled")},
}


def _samples(rng, n, dim=4):
    """Momenta of dim components and masses drawn like the CLI's determinant check."""
    return rng.normal(size=(n, dim)) * 1.5, rng.uniform(0.0, 2.0, size=n)


def _square(p, form):
    """pi.pi = h^ab p_a p_b, one sample and one (a, b) term at a time."""
    n = form.shape[0]
    flat = [sum(form[a, b] * pk[a] * pk[b] for a in range(n) for b in range(n))
            for pk in np.reshape(p, (-1, n))]
    return np.reshape(flat, np.shape(p)[:-1])


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
# so they may differ by rounding at the scale max(1, (pi.pi - m^2)^2), which
# is what the residual is relative to. Over 150 000 seeded samples the
# difference reached 1.0 eps of that scale; the bound allows DET_ROUNDING
# times that.
DET_ROUNDING = 16


def _rounding_excess(batched, single):
    """Per-sample |batched - single| in units of the allowed rounding; <= 1 passes."""
    return np.abs(batched - np.asarray(single)) / (DET_ROUNDING * np.finfo(float).eps)


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
        assert np.all(_rounding_excess(batched, single) <= 1.0)
        np.testing.assert_array_equal(
            dirac_operator(q, m, a, p, gam),
            [dirac_operator(q, float(mk), a, pk, gam) for mk, pk in zip(m, p)])

    def test_rounding_bound_rejects_a_shifted_sample(self):
        q = -1.7445070858406275
        batched, single, _ = _batched_and_single(72505778, q)
        assert np.all(_rounding_excess(batched, single) <= 1.0)
        for k in (0, int(np.argmax(np.abs(batched)))):
            shifted = batched.copy()
            shifted[k] += 1e-13
            assert _rounding_excess(shifted, single)[k] > 1.0

    def test_identity_holds_and_broadcasts(self):
        gam = build_dirac_gammas("minkowski")
        p, m = _samples(np.random.default_rng(0), 24)
        target = (m * m - _square(p, gam.form)) ** 2
        res = mass_shell_determinant_residual(0.0, m, np.zeros(4), p, gam)
        assert np.max(res) <= 1e-12
        # relative to max(1, |(pi.pi - m^2)^2|)
        det = np.linalg.det(dirac_operator(0.0, m, np.zeros(4), p, gam))
        np.testing.assert_allclose(res, np.abs(det - target) / np.maximum(1.0, target),
                                   rtol=0, atol=1e-15)
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

    @pytest.mark.parametrize("kind", CLIFFORD_SETS)
    def test_identity_holds_on_every_set(self, kind):
        # (g.pi)^2 = (pi.pi) I and tr(g.pi) = 0, so det(g.pi - m) = (m^2 - pi.pi)^(d/2)
        gam, q = CLIFFORD_SETS[kind](), 0.3
        rng = np.random.default_rng(1)
        p, m = _samples(rng, 2000, gam.n)
        a = rng.normal(size=gam.n)
        pi_sq, eye = _square(p - q * a, gam.form), np.eye(gam.matrix_dim)
        slash = dirac_operator(q, 0.0, a, p, gam)
        scale = np.maximum(1.0, np.abs(pi_sq))[:, None, None]
        assert np.max(np.abs(slash @ slash - pi_sq[:, None, None] * eye) / scale) <= 1e-14
        assert np.max(np.abs(np.trace(slash, axis1=1, axis2=2))) <= 1e-14
        target = (m * m - pi_sq) ** (gam.matrix_dim // 2)
        det = np.linalg.det(dirac_operator(q, m, a, p, gam))
        res = mass_shell_determinant_residual(q, m, a, p, gam)
        assert np.max(res) <= 1e-12
        np.testing.assert_allclose(res, np.abs(det - target) / np.maximum(1.0, np.abs(target)),
                                   rtol=0, atol=1e-15)
        single = [mass_shell_determinant_residual(q, float(mk), a, pk, gam)
                  for mk, pk in zip(m[:50], p[:50])]
        assert np.all(_rounding_excess(res[:50], single) <= 1.0)

    def test_a_single_gamma_that_is_not_traceless_breaks_the_identity(self):
        # g = I squares to h I with h = 1, but det(pi I - m) = (pi - m)^2, not m^2 - pi^2
        gam = _make_gamma_set([np.eye(2)], np.eye(1))
        assert gam.residual == 0.0
        res = mass_shell_determinant_residual(0.0, 1.0, np.zeros(1), np.array([2.0]), gam)
        assert res == pytest.approx(4.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("kind", CLIFFORD_SETS)
    def test_one_product_equals_the_terms_on_every_set(self, kind):
        gam = CLIFFORD_SETS[kind]()
        rng = np.random.default_rng(2)
        p, m = _samples(rng, 40, gam.n)
        q, a = rng.normal(), rng.normal(size=gam.n)
        h = dirac_operator(q, m, a, p, gam)
        assert h.shape == (40, gam.matrix_dim, gam.matrix_dim)
        np.testing.assert_array_equal(h, dirac_operator_terms(q, m, a, p, gam))

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


@pytest.mark.parametrize("build, form", [(build_dirac_gammas, f) for f in FORMS]
                         + [(build_pauli_gammas, f) for f in PAULI_FORMS])
def test_anticommutators_are_exactly_twice_the_form(build, form):
    gam = build(form)
    assert gam.residual == 0.0
    if build is build_pauli_gammas:
        assert np.array_equal(gam.form, PAULI_FORMS[form])
    for a, ga in enumerate(gam.matrices):
        for b, gb in enumerate(gam.matrices):
            assert np.array_equal(ga @ gb + gb @ ga,
                                  2.0 * gam.form[a, b] * np.eye(gam.matrix_dim))


@pytest.mark.parametrize("form", FORMS)
def test_a_perturbed_set_is_built_and_reports_its_residual(form):
    gam = perturb_gammas(build_dirac_gammas(form), 1e-3, np.random.default_rng(3))
    assert gam.residual > 1e-6


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


# [X0, X1] = X1, [X0, X2] = X2, [X1, X2] = X0: antisymmetric, but the Jacobi
# sum [X0, [X1, X2]] + [X1, [X2, X0]] + [X2, [X0, X1]] is -2 X0
_NOT_JACOBI = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 1), (0, 2, 2), (1, 2, 0)):
    _NOT_JACOBI[_i, _j, _k], _NOT_JACOBI[_j, _i, _k] = 1.0, -1.0

# guard -> (call, error, message): input checks that no other test reaches
GUARDS = {
    "rep_of_another_dim": (
        lambda: solve_quadratic_generators(abelian_algebra(3), build_dirac_gammas("minkowski")),
        DimensionMismatch, "representation dimension must match the gamma count"),
    "unknown_form": (lambda: build_dirac_gammas("lorentzian"), UnsupportedDimension,
                     "unknown form 'lorentzian'"),
    "structure_not_antisymmetric": (
        lambda: LieAlgebraSpec(structure=np.ones((1, 1, 1)), rho=np.zeros((1, 2, 2))),
        DimensionMismatch, "structure constants must be antisymmetric in (i, j)"),
    "structure_not_jacobi": (lambda: LieAlgebraSpec(structure=_NOT_JACOBI, rho=np.zeros((3, 2, 2))),
                             DimensionMismatch, "structure constants violate the Jacobi identity"),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_each_guard_raises_its_error(guard):
    assert_guard(GUARDS, guard)
