import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from oracles import (cell_centers, curve_embedding, dense_contraction, dense_symmetric_tensor,
                     entry_array, multivector_metric, reparameterized)
from repmech import (
    BraneEmbedding,
    BraneSpec,
    DimensionMismatch,
    LagrangianSpec,
    NegativeRadicand,
    brane_action,
    cylinder_patch_embedding,
    discrete_action,
    generalized_velocity,
    graph_embedding,
    gridded_embedding,
    integral_gauge_check,
    metric_from_function,
    minkowski_metric,
    minor_indices,
    nonrelativistic_brane_expansion,
    potential_from_function,
    straight_chord_path,
    symmetric_tensor,
    symmetric_tensor_field,
    tilted_plane_embedding,
    uniform_magnetic_potential,
)
from repmech.cli import main, parse_config, run
from repmech.errors import ConfigError
from repmech.geometry import (
    MetricField,
    _minors,
    _multivector_metric_matrix,
    constant_diagonal_metric,
    euclidean_metric,
    weak_field_metric,
)

EUCLID3 = euclidean_metric(3)
ONE_TIME3 = constant_diagonal_metric([1.0, 1.0, -1.0])
# conformally Euclidean and position-dependent, so brane_action evaluates positions
VARYING4 = metric_from_function(4, lambda x: (1.0 + 0.1 * np.sin(x[..., :1, None])) * np.eye(4))


def _dims():
    return st.integers(1, 5).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m)))


def _random_symmetric(rng, n):
    a = rng.normal(size=(n, n))
    return a + a.T


def _square_graph():
    """x3 = z1^2 over the unit square, with its analytic gradient."""
    return graph_embedding(lambda Z: np.atleast_2d(Z)[:, 0] ** 2,
                           grad=lambda Z: np.column_stack([2.0 * np.atleast_2d(Z)[:, 0],
                                                           np.zeros(len(np.atleast_2d(Z)))]),
                           resolution=(8, 4))


def _interpolant_area(nodes):
    """Exact area of the piecewise-linear interpolant of x3 = z1^2 on z1 nodes, z2 in [0, 1]."""
    dz = np.diff(nodes)
    slopes = np.diff(nodes ** 2) / dz
    return float(np.sum(dz * np.sqrt(1.0 + slopes ** 2)))


def _square_nodes(z1):
    z2 = np.linspace(0.0, 1.0, 5)
    Z1, Z2 = np.meshgrid(z1, z2, indexing="ij")
    values = np.stack([Z1, Z2, Z1 ** 2], axis=-1)
    return [z1, z2], values


def _chord_curve():
    """A perturbed 5-point chord in 3+1 and the D = 1 embedding that walks it.

    One cell per chord segment: the cell centre is the segment midpoint and
    the cell width is 1, so each cell is one term of discrete_action.
    """
    rng = np.random.default_rng(7)
    end = np.array([2.0, 0.4, -0.3, 0.2])
    path = straight_chord_path(np.zeros(4), end, 5,
                               perturbation=0.05 * rng.normal(size=(5, 4)) * [0, 1, 1, 1])
    nodes = np.vstack([path.x_start, path.interior, path.x_end])
    steps = np.diff(nodes, axis=0)
    k_grid = np.arange(nodes.shape[0], dtype=float)

    def fn(Z):
        z = np.atleast_2d(Z)[:, 0]
        return np.column_stack([np.interp(z, k_grid, nodes[:, a]) for a in range(4)])

    def jac(Z):
        k = np.clip(np.floor(np.atleast_2d(Z)[:, 0]).astype(int), 0, len(steps) - 1)
        return steps[k][:, :, None]

    return path, curve_embedding(fn, jacobian=jac, box=(0.0, float(len(steps))),
                                 resolution=len(steps))


def _surface_in_4d():
    """x(z) = (z1, z2, 0.3 z1 z2, 0.4 sin z1) over [0, 1] x [0.5, 1.5], analytic Jacobian."""

    def evaluate(Z):
        Z = np.atleast_2d(Z)
        return np.column_stack([Z[:, 0], Z[:, 1], 0.3 * Z[:, 0] * Z[:, 1], 0.4 * np.sin(Z[:, 0])])

    def jac(Z):
        Z = np.atleast_2d(Z)
        J = np.zeros((Z.shape[0], 4, 2))
        J[:, 0, 0] = 1.0
        J[:, 1, 1] = 1.0
        J[:, 2, 0] = 0.3 * Z[:, 1]
        J[:, 2, 1] = 0.3 * Z[:, 0]
        J[:, 3, 0] = 0.4 * np.cos(Z[:, 0])
        return J

    return BraneEmbedding(d=2, dim_m=4, box=np.array([[0.0, 1.0], [0.5, 1.5]]),
                          resolution=(6, 5), evaluator=evaluate, jacobian=jac)


class TestMinors:
    @settings(max_examples=60, deadline=None)
    @given(_dims(), st.integers(0, 2 ** 31 - 1))
    def test_minors_match_submatrix_determinants(self, dims, seed):
        dim_m, d = dims
        J = np.random.default_rng(seed).normal(size=(7, dim_m, d))
        expect = np.stack([np.linalg.det(J[:, list(c), :]) for c in minor_indices(dim_m, d)],
                          axis=-1)
        assert np.max(np.abs(_minors(J) - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))

    @settings(max_examples=60, deadline=None)
    @given(_dims(), st.integers(0, 2 ** 31 - 1))
    def test_cauchy_binet(self, dims, seed):
        dim_m, d = dims
        rng = np.random.default_rng(seed)
        J = rng.normal(size=(5, dim_m, d))
        g = _random_symmetric(rng, dim_m)
        G = _multivector_metric_matrix(g, d)
        combos = minor_indices(dim_m, d)
        reference = np.array([[multivector_metric(g, c1, c2) for c2 in combos] for c1 in combos])
        assert np.max(np.abs(G - reference)) <= 1e-12 * max(1.0, np.max(np.abs(reference)))
        w = _minors(J)
        lhs = np.einsum("ni,ij,nj->n", w, G, w)
        gram = np.einsum("nad,ab,nbe->nde", J, g, J)
        rhs = np.linalg.det(gram)
        # rounding scales: the absolute terms of the sum, Hadamard's bound on the det
        scale = np.maximum(np.einsum("ni,ij,nj->n", np.abs(w), np.abs(G), np.abs(w)),
                           np.prod(np.linalg.norm(gram, axis=2), axis=1))
        assert np.all(np.abs(lhs - rhs) <= 1e-13 * scale)

    def test_generalized_velocity_reads_minors_by_index(self):
        emb = cylinder_patch_embedding(2.0)
        gv = generalized_velocity(emb, np.array([0.3, 0.4]))
        assert gv[(0, 1)] == pytest.approx(-2.0 * math.sin(0.4), abs=1e-15)
        assert gv[(0, 2)] == pytest.approx(2.0 * math.cos(0.4), abs=1e-15)
        assert gv[(1, 2)] == 0.0


class TestBraneAction:
    @pytest.mark.parametrize("slope", [0.0, 0.75, 1.4])
    def test_tilted_plane(self, slope):
        box = ((-0.3, 0.9), (0.2, 1.7))
        emb = tilted_plane_embedding(slope, box=box, resolution=(32, 16))
        expect = 1.7 * math.sqrt(1.0 + slope ** 2) * 1.2 * 1.5
        action, details = brane_action(BraneSpec(EUCLID3, mass=1.7, charge=0.0), emb,
                                       details=True)
        assert action == pytest.approx(expect, rel=1e-12)
        assert details["min_radicand"] == pytest.approx(1.0 + slope ** 2, rel=1e-14)
        assert details["gauge_deviation"] == 0.0

    def test_cylinder_patch(self):
        box = ((0.0, 1.3), (0.4, 2.9))
        emb = cylinder_patch_embedding(0.8, box=box, resolution=(16, 64))
        action = brane_action(BraneSpec(EUCLID3, mass=1.1, charge=0.0), emb)
        assert action == pytest.approx(1.1 * 0.8 * 1.3 * 2.5, rel=1e-12)

    def test_constant_metric_matches_per_cell_determinant(self):
        # same constant matrix, one marked constant (w^T G w) and one not (det(J^T g J))
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 3))
        g = a @ a.T + 3.0 * np.eye(3)
        emb = graph_embedding(lambda Z: np.sin(np.atleast_2d(Z)).sum(axis=1),
                              grad=lambda Z: np.cos(np.atleast_2d(Z)), resolution=(12, 10))
        fast = brane_action(BraneSpec(MetricField(3, "constant", lambda x: g), mass=1.0), emb)
        generic = brane_action(BraneSpec(MetricField(
            3, "user", lambda x: np.broadcast_to(g, x.shape[:-1] + g.shape)), mass=1.0), emb)
        assert fast == pytest.approx(generic, rel=1e-13)

    def test_reparameterization_invariance(self):
        # minors pick up det(psi'), so the midpoint sums converge to one integral
        emb = cylinder_patch_embedding(1.5, box=((0.0, 1.0), (0.0, 1.0)))
        exact = 1.5
        spec = BraneSpec(EUCLID3, mass=1.0, charge=0.0)

        def psi(Z):
            Z = np.atleast_2d(Z)
            return np.column_stack([np.expm1(Z[:, 0]) / math.expm1(1.0), Z[:, 1] ** 2])

        def psi_jacobian(Z):
            Z = np.atleast_2d(Z)
            out = np.zeros((Z.shape[0], 2, 2))
            out[:, 0, 0] = np.exp(Z[:, 0]) / math.expm1(1.0)
            out[:, 1, 1] = 2.0 * Z[:, 1]
            return out

        moved = reparameterized(emb, psi, psi_jacobian)
        z = np.array([0.3, 0.7])
        w_moved = generalized_velocity(moved, z).components
        w_orig = generalized_velocity(emb, psi(z)[0]).components
        assert np.allclose(w_moved, np.linalg.det(psi_jacobian(z)[0]) * w_orig,
                           rtol=1e-14, atol=1e-15)

        errors = []
        for n in (16, 32, 64):
            coarse = reparameterized(cylinder_patch_embedding(1.5, box=((0.0, 1.0), (0.0, 1.0)),
                                                              resolution=(n, n)),
                                     psi, psi_jacobian)
            errors.append(abs(brane_action(spec, coarse) - exact))
        assert errors[-1] < 1e-4
        assert errors[0] / errors[1] > 3.5 and errors[1] / errors[2] > 3.5

    @pytest.mark.parametrize("metric", [minkowski_metric(4),
                                        weak_field_metric(4, lambda x: 0.05 * np.sin(x[..., 1]))],
                             ids=["minkowski", "weak_field"])
    def test_curve_matches_point_particle_discrete_action(self, metric):
        path, emb = _chord_curve()
        potential = uniform_magnetic_potential(4, 0.7)
        particle = LagrangianSpec(metric=metric, mass=1.3, charge=0.6, potential=potential)
        brane_spec = BraneSpec(metric=metric, mass=1.3, charge=0.6, potential=potential)
        assert brane_action(brane_spec, emb) == pytest.approx(discrete_action(particle, path),
                                                              rel=1e-13)

    def test_curve_with_a_tensor_term_matches_discrete_action(self):
        path, emb = _chord_curve()
        metric = weak_field_metric(4, lambda x: 0.05 * np.sin(x[..., 1]))
        terms = ((0.4, symmetric_tensor(3, 4, {(0, 0, 0): 0.9, (0, 1, 1): -0.2, (1, 2, 3): 0.1})),)
        particle = LagrangianSpec(metric=metric, mass=1.3, charge=0.6,
                                  potential=uniform_magnetic_potential(4, 0.7), extra_terms=terms)
        brane_spec = BraneSpec(metric=metric, mass=1.3, charge=0.6,
                               potential=particle.potential, extra_terms=terms)
        assert brane_action(brane_spec, emb) == pytest.approx(discrete_action(particle, path),
                                                              rel=1e-13)

    def test_tensor_and_user_potential_terms_match_a_per_cell_sum(self):
        # D = 2 in dimM = 4: the fields act on C = 6 minor components at 4 coordinates
        emb = _surface_in_4d()
        potential = potential_from_function(6, lambda x: np.stack(np.broadcast_arrays(
            x[..., 0], x[..., 1] * x[..., 2], np.sin(x[..., 3]), 1.0, -x[..., 0] * x[..., 3], 0.5),
            axis=-1))
        constant = {(0, 0, 0): 0.8, (0, 1, 5): -0.3, (2, 4, 4): 0.2}

        def varying(x):
            return {(0, 0, 0): 1.0 + x[..., 0] * x[..., 3], (1, 2, 3): x[..., 2]}

        terms = ((0.4, symmetric_tensor(3, 6, constant)),
                 (-0.25, symmetric_tensor_field(3, 6, lambda x: entry_array(3, 6, varying(x)))))
        spec = BraneSpec(euclidean_metric(4), mass=1.1, charge=0.7, potential=potential,
                         extra_terms=terms)
        densities = []
        for z in cell_centers(emb):
            x = emb.points(z[None, :])[0]
            w = generalized_velocity(emb, z).components
            density = 1.1 * math.sqrt(w @ w) + 0.7 * float(potential(x) @ w)
            for q_n, entries in ((0.4, constant), (-0.25, varying(x))):
                c = dense_contraction(dense_symmetric_tensor(3, 6, entries), w)
                density += q_n * math.copysign(abs(c) ** (1.0 / 3.0), c)
            densities.append(density)
        assert brane_action(spec, emb) == pytest.approx(
            math.fsum(densities) * emb.cell_volume, rel=1e-14)

    def test_negative_radicand_carries_first_bad_cell(self):
        # det(J^T g J) = 1 - (2 z1)^2 in diag(1, 1, -1): negative from z1 > 1/2,
        # first reached at cell centre z1 = 0.5625, row 4 of 8
        emb = _square_graph()
        with pytest.raises(NegativeRadicand) as info:
            brane_action(BraneSpec(ONE_TIME3, mass=1.0, charge=0.0), emb)
        assert info.value.cell == (4, 0)
        brane_action(BraneSpec(ONE_TIME3, mass=0.0, charge=0.0), emb)

    def test_negative_radicand_in_one_cell_of_a_fine_grid(self):
        # the Jacobian's slope is 1.5 in cell (200, 137) of 256 x 256 and 0.5 in every
        # other, so det(J^T g J) = 1 - slope^2 in diag(1, 1, -1) is negative there only
        resolution = (256, 256)

        def grad(Z):
            inside = np.all(np.floor(Z * resolution) == (200, 137), axis=1)
            return np.column_stack([np.where(inside, 1.5, 0.5), np.zeros(len(Z))])

        emb = graph_embedding(lambda Z: 0.5 * Z[:, 0], grad=grad, resolution=resolution)
        with pytest.raises(NegativeRadicand, match=r"at cell \(200, 137\)") as info:
            brane_action(BraneSpec(ONE_TIME3, mass=1.0, charge=0.0), emb)
        assert info.value.cell == (200, 137)

    def test_negative_radicand_on_timelike_slope(self):
        emb = tilted_plane_embedding(0.5, resolution=(4, 4))
        with pytest.raises(NegativeRadicand) as info:
            brane_action(BraneSpec(minkowski_metric(3), mass=1.0, charge=0.0), emb)
        assert info.value.cell == (0, 0)


class TestGauge:
    @pytest.mark.parametrize("emb,deviation", [
        (_square_graph(), 0.0),
        (cylinder_patch_embedding(2.0, box=((0.0, 1.0), (0.0, 0.5)), resolution=(4, 4)),
         1.0 + 2.0 * math.sin(0.4375)),
    ], ids=["graph", "cylinder"])
    def test_action_details_agree_with_integral_gauge_check(self, emb, deviation):
        _, details = brane_action(BraneSpec(EUCLID3, mass=1.0, charge=0.0), emb, details=True)
        assert details["gauge_deviation"] == integral_gauge_check(emb)
        assert details["gauge_deviation"] == pytest.approx(deviation, abs=1e-15)

    def test_nonrelativistic_expansion_at_one_cell(self):
        slope = 0.01
        emb = graph_embedding(lambda Z: slope * np.atleast_2d(Z)[:, 0] ** 2,
                              grad=lambda Z: np.column_stack(
                                  [2.0 * slope * np.atleast_2d(Z)[:, 0],
                                   np.zeros(len(np.atleast_2d(Z)))]),
                              resolution=(8, 4))
        spec = BraneSpec(ONE_TIME3, mass=1.2, charge=0.0)
        exact, quadratic = nonrelativistic_brane_expansion(spec, emb, (5, 2))
        z1 = cell_centers(emb)[np.ravel_multi_index((5, 2), emb.resolution)][0]
        velocity = 2.0 * slope * z1
        assert exact == pytest.approx(1.2 * math.sqrt(1.0 - velocity ** 2), rel=1e-15)
        assert quadratic == pytest.approx(1.2 * (1.0 - 0.5 * velocity ** 2), rel=1e-15)
        with pytest.raises(DimensionMismatch):
            nonrelativistic_brane_expansion(spec, emb, (8, 0))

    def test_nonrelativistic_expansion_negative_radicand_carries_the_cell(self):
        # x = 0.9 z^2 in 1+1 Minkowski: w = (1, 1.8 z), and at the centre
        # z = 0.9375 of cell 7 of 8 the radicand 1 - (1.8 z)^2 is negative
        emb = graph_embedding(lambda Z: 0.9 * np.atleast_2d(Z)[:, 0] ** 2,
                              grad=lambda Z: 1.8 * np.atleast_2d(Z), box=((0.0, 1.0),),
                              resolution=(8,))
        spec = BraneSpec(minkowski_metric(2), mass=1.0, charge=0.0)
        with pytest.raises(NegativeRadicand) as info:
            nonrelativistic_brane_expansion(spec, emb, (7,))
        assert info.value.cell == (7,)
        exact, _ = nonrelativistic_brane_expansion(spec, emb, (0,))
        assert exact == pytest.approx(math.sqrt(1.0 - (1.8 * 0.0625) ** 2), rel=1e-15)


class TestGriddedEmbedding:
    def test_uniform_nodes_integrate_the_interpolant(self):
        z1 = np.linspace(0.0, 1.0, 6)
        axes, values = _square_nodes(z1)
        action = brane_action(BraneSpec(EUCLID3, mass=1.0, charge=0.0),
                              gridded_embedding(axes, values))
        assert action == pytest.approx(_interpolant_area(z1), rel=1e-14)

    def test_uneven_nodes_rejected(self):
        axes, values = _square_nodes(np.array([0.0, 0.1, 0.15, 0.5, 0.6, 1.0]))
        with pytest.raises(DimensionMismatch, match="evenly spaced"):
            gridded_embedding(axes, values)

    def test_an_axis_of_one_node_is_rejected(self):
        with pytest.raises(DimensionMismatch, match="at least 2 nodes per axis, got 1"):
            gridded_embedding([np.array([0.5]), np.linspace(0.0, 1.0, 3)], np.zeros((1, 3, 3)))
        with pytest.raises(DimensionMismatch, match="at least one axis"):
            gridded_embedding([], np.zeros(3))

    def _write_csv(self, path, z1):
        return self._write_rows(path, *_square_nodes(z1))

    @staticmethod
    def _write_rows(path, axes, values, order=None):
        """Rows z then x of every node, in C order or permuted by order; its grid_csv config."""
        d, dim_m = len(axes), values.shape[-1]
        mesh = np.meshgrid(*axes, indexing="ij")
        rows = np.column_stack([m.ravel() for m in mesh] + [values.reshape(-1, dim_m)])
        np.savetxt(path, rows if order is None else rows[order], delimiter=",", fmt="%.17g")
        return (f"embedding: {{kind: grid_csv, path: '{path.as_posix()}', d: {d}, "
                f"dim_m: {dim_m}}}\nspec: {{metric: {{kind: euclidean, dim: {dim_m}}}, "
                "mass: 1.0, charge: 0.0}\n")

    def test_csv_row_order_does_not_change_the_summary(self, tmp_path):
        axes, values = _curved_nodes(2)
        shuffled = np.random.default_rng(5).permutation(values[..., 0].size)
        keys = ("action", "min_radicand", "gauge_deviation")
        summaries = []
        for name, order in (("ordered", None), ("shuffled", shuffled)):
            text = self._write_rows(tmp_path / f"{name}.csv", axes, values, order)
            summary, _ = run("brane", parse_config(text, "brane"), tmp_path)
            summaries.append([float(summary[k]).hex() for k in keys])
        assert summaries[0] == summaries[1]

    @pytest.mark.parametrize("d", [1, 3])
    def test_csv_grid_gives_the_action_of_the_arrays_it_was_written_from(self, tmp_path, d):
        axes, values = _curved_nodes(d)
        order = np.random.default_rng(d).permutation(values[..., 0].size)
        text = self._write_rows(tmp_path / "nodes.csv", axes, values, order)
        summary, _ = run("brane", parse_config(text, "brane"), tmp_path)
        spec = BraneSpec(euclidean_metric(d + 2), mass=1.0, charge=0.0)
        expected = brane_action(spec, gridded_embedding(axes, values))
        assert float(summary["action"]).hex() == expected.hex()

    def test_csv_linspace_nodes_pass_the_spacing_check(self, tmp_path):
        # nodes read back from text differ from an exact spacing in the last bits
        z1 = np.linspace(-0.7, 0.3, 129)
        text = self._write_csv(tmp_path / "nodes.csv", z1)
        summary, _ = run("brane", parse_config(text, "brane"), tmp_path)
        assert summary["action"] == pytest.approx(_interpolant_area(z1), rel=1e-13)
        assert summary["gauge_deviation"] <= 1e-12

    def test_csv_uneven_nodes_are_a_config_error(self, tmp_path):
        text = self._write_csv(tmp_path / "uneven.csv",
                               np.array([0.0, 0.1, 0.15, 0.5, 0.6, 1.0]))
        with pytest.raises(ConfigError, match="uneven.csv.*evenly spaced"):
            parse_config(text, "brane")
        config = tmp_path / "brane.yaml"
        config.write_text(text)
        assert main(["brane", "--config", str(config), "--out", str(tmp_path)]) == 2


def _curved_nodes(d):
    """Evenly spaced axes on boxes of unequal sides and non-linear node values.

    The target has D + 2 coordinates: the parameters, a product of sines and
    a cubic, so that every corner term of the interpolant is exercised.
    """
    rng = np.random.default_rng(0)
    axes = [np.linspace(-0.4 + 0.3 * a, 0.6 + 0.7 * a, 5 + 2 * a) for a in range(d)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    wave = np.prod(np.sin(1.7 * mesh + rng.uniform(0.0, 1.0, d)), axis=-1)
    cubic = np.sum(mesh ** 3, axis=-1) - mesh[..., 0] * mesh[..., -1]
    return axes, np.concatenate([mesh, wave[..., None], cubic[..., None]], axis=-1)


def _cell_centre_jacobians(values, steps):
    """Derivative of the multilinear interpolant at every cell centre.

    Along axis a it is the node difference over the step, averaged over the
    2^(D-1) cell edges parallel to a; cells come in row-major order.
    """
    d = values.ndim - 1
    columns = []
    for a in range(d):
        g = np.diff(values, axis=a) / steps[a]
        for b in range(d):
            if b != a:
                lo = [slice(None)] * g.ndim
                hi = list(lo)
                lo[b], hi[b] = slice(None, -1), slice(1, None)
                g = 0.5 * (g[tuple(lo)] + g[tuple(hi)])
        columns.append(g.reshape(-1, values.shape[-1]))
    return np.stack(columns, axis=-1)


class TestGridInterpolantOracle:
    """gridded_embedding against scipy's RegularGridInterpolator and the closed-form derivative."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_points_match_scipy_at_centres_and_interior_points(self, d):
        axes, values = _curved_nodes(d)
        emb = gridded_embedding(axes, values)
        oracle = RegularGridInterpolator(tuple(axes), values, method="linear")
        rng = np.random.default_rng(d)
        inner = np.column_stack([rng.uniform(a[0], a[-1], 200) for a in axes])
        scale = np.max(np.abs(values))
        for Z in (cell_centers(emb), inner):
            assert np.max(np.abs(emb.points(Z) - oracle(Z))) <= 1e-15 * scale

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_jacobians_at_centres_are_the_multilinear_derivative(self, d):
        axes, values = _curved_nodes(d)
        emb = gridded_embedding(axes, values)
        steps = [a[1] - a[0] for a in axes]
        expected = _cell_centre_jacobians(values, steps)
        assert np.max(np.abs(emb.jacobians(cell_centers(emb)) - expected)) <= 1e-13

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_jacobians_off_centre_are_their_cells_derivative(self, d):
        # the interpolant is linear along each axis inside a cell, so a short
        # central difference of scipy's interpolant that stays in the cell is exact
        axes, values = _curved_nodes(d)
        emb = gridded_embedding(axes, values)
        oracle = RegularGridInterpolator(tuple(axes), values, method="linear")
        rng = np.random.default_rng(10 + d)
        Z = np.column_stack([rng.uniform(a[0], a[-1], 100) for a in axes])
        spacing = np.array([a[1] - a[0] for a in axes])
        frac = (Z - emb.box[:, 0]) / spacing % 1.0
        Z = Z[np.all((frac > 1e-3) & (frac < 1 - 1e-3), axis=1)]
        step = 1e-6 * spacing
        fd = np.stack([(oracle(Z + step[a] * np.eye(d)[a]) - oracle(Z - step[a] * np.eye(d)[a]))
                       / (2.0 * step[a]) for a in range(d)], axis=-1)
        assert len(Z) > 90
        assert np.max(np.abs(emb.jacobians(Z) - fd)) <= 1e-7 * np.max(np.abs(values))

    def test_extrapolates_linearly_from_the_edge_cell(self):
        axes, values = _curved_nodes(2)
        emb = gridded_embedding(axes, values)
        oracle = RegularGridInterpolator(tuple(axes), values, method="linear",
                                         bounds_error=False, fill_value=None)
        Z = emb.box[:, 0] + np.array([[-0.2, 0.1], [0.3, 1.4], [-0.1, -0.3]]) * np.ptp(emb.box, axis=1)
        assert np.max(np.abs(emb.points(Z) - oracle(Z))) <= 1e-14 * np.max(np.abs(values))

    def test_action_on_513_nodes_matches_the_interpolator_path(self):
        # the scipy interpolant with half-spacing central differences at the
        # cell centres, as the action was computed before the numpy interpolant
        z1 = np.linspace(-0.5, 0.5, 513)
        z2 = np.linspace(0.0, 2.0, 513)
        Z1, Z2 = np.meshgrid(z1, z2, indexing="ij")
        values = np.stack([Z1, Z2, 0.3 * np.sin(2.0 * Z1) * np.cos(Z2) + Z1 ** 3], axis=-1)
        interp = RegularGridInterpolator((z1, z2), values, method="linear")
        half = 0.5 * np.array([z1[1] - z1[0], z2[1] - z2[0]])

        def jac(Z):
            return np.stack([(interp(Z + half[a] * np.eye(2)[a]) - interp(Z - half[a] * np.eye(2)[a]))
                             / (2.0 * half[a]) for a in range(2)], axis=-1)

        emb = gridded_embedding([z1, z2], values)
        reference = BraneEmbedding(d=2, dim_m=3, box=emb.box, resolution=emb.resolution,
                                   evaluator=interp, jacobian=jac)
        spec = BraneSpec(EUCLID3, mass=1.0, charge=0.0)
        assert brane_action(spec, emb) == pytest.approx(brane_action(spec, reference), rel=1e-13)


class TestFiniteDifferenceJacobians:
    @pytest.mark.parametrize("make", [lambda: tilted_plane_embedding(0.75, resolution=(6, 5)),
                                      lambda: cylinder_patch_embedding(1.3, resolution=(6, 5))],
                             ids=["tilted_plane", "cylinder_patch"])
    def test_an_embedding_without_a_jacobian_matches_the_analytic_one(self, make):
        emb = make()
        fd = BraneEmbedding(d=emb.d, dim_m=emb.dim_m, box=emb.box, resolution=emb.resolution,
                            evaluator=emb.evaluator)
        Z = cell_centers(emb)
        assert np.max(np.abs(fd.jacobians(Z) - emb.jacobians(Z))) <= 1e-8


class TestEmbeddingContract:
    """Evaluators and Jacobians take the (n, D) batch and are called once per batch.

    The metric depends on position, so brane_action calls the evaluator too.
    """

    @staticmethod
    def _with(evaluator=None, jacobian=None):
        emb = _surface_in_4d()
        return BraneEmbedding(d=2, dim_m=4, box=emb.box, resolution=emb.resolution,
                              evaluator=evaluator or emb.evaluator,
                              jacobian=jacobian or emb.jacobian)

    def test_a_wrongly_shaped_evaluator_or_jacobian_is_a_dimension_mismatch(self):
        emb = self._with(evaluator=lambda Z: np.zeros((len(Z), 5)))
        with pytest.raises(DimensionMismatch, match="embedding evaluator"):
            emb.points(cell_centers(emb))
        with pytest.raises(DimensionMismatch, match="embedding evaluator"):
            brane_action(BraneSpec(VARYING4), emb)
        emb = self._with(jacobian=lambda Z: np.zeros((len(Z), 5, 2)))
        with pytest.raises(DimensionMismatch, match="embedding jacobian"):
            emb.jacobians(cell_centers(emb))
        with pytest.raises(DimensionMismatch, match="embedding jacobian"):
            brane_action(BraneSpec(VARYING4), emb)

    @pytest.mark.parametrize("which", ["evaluator", "jacobian"])
    def test_an_evaluators_own_error_propagates_from_its_one_call(self, which):
        class EvaluatorError(Exception):
            pass

        calls = []

        def failing(Z):
            calls.append(Z.shape)
            raise EvaluatorError("no batch")

        emb = self._with(**{which: failing})
        with pytest.raises(EvaluatorError, match="no batch"):
            brane_action(BraneSpec(VARYING4), emb)
        assert calls == [(emb.n_cells, 2)]


def test_a_small_spatial_scale_builds_the_compound_metric():
    # |det G| = |det g|^3 = 2e-14 here: the degeneracy test is relative to the scale of G
    g = constant_diagonal_metric([1.0, -0.03, -0.03, -0.03])
    lag = BraneSpec(g).lagrangian(2)
    assert np.array_equal(lag.metric(np.zeros(4)), _multivector_metric_matrix(g(np.zeros(4)), 2))
