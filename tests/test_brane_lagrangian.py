"""The brane as the particle's Lagrangian on its Jacobian minors.

D = 2 in dimM = 4 (C = 6 minor components) with a position-dependent,
positive-definite user metric: brane_action against a per-cell
det(J^T g J) oracle, and the particle identities (mass shell, momentum)
on the minor space.
"""

import math

import numpy as np
import pytest

from oracles import brane_action_per_cell, cell_centers, entry_array, fd_gradient
from repmech import (
    BraneEmbedding,
    BraneSpec,
    DimensionMismatch,
    SpacelikeVelocity,
    brane_action,
    el_system,
    eval_L,
    mass_shell_residual,
    metric_from_function,
    minkowski_metric,
    momentum,
    momentum_fd,
    position_gradient,
    potential_from_function,
    symmetric_tensor,
    symmetric_tensor_field,
)
from repmech.geometry import _minors, compound_metric


def _evaluate(Z):
    Z = np.atleast_2d(Z)
    return np.column_stack([Z[:, 0], Z[:, 1], 0.3 * Z[:, 0] * Z[:, 1], 0.4 * np.sin(Z[:, 0])])


def _jacobian(Z):
    Z = np.atleast_2d(Z)
    J = np.zeros((Z.shape[0], 4, 2))
    J[:, 0, 0] = 1.0
    J[:, 1, 1] = 1.0
    J[:, 2, 0] = 0.3 * Z[:, 1]
    J[:, 2, 1] = 0.3 * Z[:, 0]
    J[:, 3, 0] = 0.4 * np.cos(Z[:, 0])
    return J


BOX = ((0.0, 1.0), (0.5, 1.5))
RESOLUTION = (7, 5)
EMB = BraneEmbedding(d=2, dim_m=4, box=np.array(BOX), resolution=RESOLUTION,
                     evaluator=_evaluate, jacobian=_jacobian)


def _user_g(x):
    """I + B B^T with B varying smoothly in x: symmetric positive definite everywhere."""
    x0, x1, x2, x3 = np.moveaxis(x, -1, 0)
    rows = [[np.sin(x0), 0.3, 0.1 * x2, 0.0],
            [0.2, np.cos(x1), 0.0, 0.4 * x3],
            [0.1 * x0 * x1, 0.0, 0.5, 0.2],
            [0.0, 0.3 * x2, 0.1, np.sin(x3)]]
    b = np.empty(x.shape[:-1] + (4, 4))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            b[..., i, j] = entry
    return np.eye(4) + b @ np.swapaxes(b, -1, -2)


USER_METRIC = metric_from_function(4, _user_g)


def _potential(x):
    x0, x1, x2, x3 = np.moveaxis(x, -1, 0)
    return np.stack(np.broadcast_arrays(x0, x1 * x2, np.sin(x3), 1.0, -x0 * x3, 0.5), axis=-1)


CONSTANT = {(0, 0, 0): 0.8, (0, 1, 5): -0.3, (2, 4, 4): 0.2}


def _varying(x):
    return {(0, 0, 0): 1.0 + x[..., 0] * x[..., 3], (1, 2, 3): x[..., 2]}


def _spec(with_terms):
    if not with_terms:
        return BraneSpec(USER_METRIC, mass=1.3, charge=0.0), {}
    terms = ((0.4, symmetric_tensor(3, 6, CONSTANT)),
             (-0.25, symmetric_tensor_field(3, 6, lambda x: entry_array(3, 6, _varying(x)))))
    spec = BraneSpec(USER_METRIC, mass=1.3, charge=0.7,
                     potential=potential_from_function(6, _potential), extra_terms=terms)
    oracle_terms = {"charge": 0.7, "potential": _potential,
                    "tensors": ((0.4, 3, lambda x: CONSTANT), (-0.25, 3, _varying))}
    return spec, oracle_terms


def _cells():
    Z = cell_centers(EMB)
    return EMB.points(Z), _minors(EMB.jacobians(Z))


@pytest.mark.parametrize("with_terms", [False, True], ids=["volume", "all_terms"])
def test_action_matches_the_per_cell_determinant_oracle(with_terms):
    spec, terms = _spec(with_terms)
    expect = brane_action_per_cell(_evaluate, _jacobian, BOX, RESOLUTION, _user_g, 1.3, **terms)
    assert brane_action(spec, EMB) == pytest.approx(expect, rel=1e-13)


def test_radicand_is_the_gram_determinant_per_cell():
    X, w = _cells()
    G = compound_metric(USER_METRIC, 2)(X)
    J = EMB.jacobians(cell_centers(EMB))
    gram = np.array([np.linalg.det(Jk.T @ _user_g(xk) @ Jk) for Jk, xk in zip(J, X)])
    assert np.max(np.abs(np.einsum("ni,nij,nj->n", w, G, w) - gram)) <= 1e-13 * np.max(gram)
    _, details = brane_action(_spec(False)[0], EMB, details=True)
    assert details["min_radicand"] == pytest.approx(np.min(gram), rel=1e-13)


def test_mass_shell_on_the_minors():
    # pi = m G w / sqrt(w^T G w) drops the potential and tensor terms, so
    # pi . G^-1 . pi = m^2 at every cell
    lag = _spec(True)[0].lagrangian(2)
    X, w = _cells()
    residual = mass_shell_residual(lag, X, w)
    assert residual.shape == (EMB.n_cells,)
    assert np.max(np.abs(residual)) <= 1e-12


def test_momentum_matches_finite_differences_on_the_minors():
    lag = _spec(True)[0].lagrangian(2)
    X, w = _cells()
    p = momentum(lag, X, w)
    for k in range(0, EMB.n_cells, 5):
        fd = momentum_fd(lag, X[k], w[k])
        assert np.max(np.abs(p[k] - fd)) <= 1e-8 * max(1.0, np.max(np.abs(p[k])))
    # Euler's identity for the degree-1 Lagrangian: p.w = L
    assert np.max(np.abs(np.vecdot(p, w) - eval_L(lag, X, w))) <= 1e-13


def test_position_gradient_has_the_target_length():
    lag = _spec(True)[0].lagrangian(2)
    X, w = _cells()
    for k in (0, 17):
        grad = position_gradient(lag, X[k], w[k])
        assert grad.shape == (4,)
        fd = fd_gradient(lambda y: eval_L(lag, y, w[k]), X[k])
        assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))


def test_compound_metric_shapes():
    assert compound_metric(USER_METRIC, 1) is USER_METRIC
    G = compound_metric(USER_METRIC, 2)
    assert (G.dim, G.position_dim) == (6, 4)
    assert G(np.zeros(4)).shape == (6, 6)
    assert G(np.zeros((3, 5, 4))).shape == (3, 5, 6, 6)
    with pytest.raises(DimensionMismatch, match="length 4"):
        G(np.zeros(6))
    lag = _spec(False)[0].lagrangian(2)
    with pytest.raises(DimensionMismatch):
        eval_L(lag, np.zeros((3, 6)), np.ones((3, 6)))
    with pytest.raises(DimensionMismatch):
        eval_L(lag, np.zeros((2, 4)), np.ones((3, 6)))


def test_compound_of_a_constant_metric_is_constant():
    # in 3+1 Minkowski the metric on the six minors is diag(-1, -1, -1, 1, 1, 1)
    G = compound_metric(minkowski_metric(4), 2)
    assert G.is_constant and (G.dim, G.position_dim) == (6, 4)
    assert np.array_equal(G(np.ones(4)), np.diag([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0]))
    assert G(np.ones((3, 4))).shape == (3, 6, 6)
    assert np.array_equal(G.gradient(np.ones(4)), np.zeros((4, 6, 6)))


def test_batch_error_names_the_first_bad_cell():
    # in 3+1 Minkowski the metric on the six minors is diag(-1, -1, -1, 1, 1, 1):
    # w = (0.2, 0, 0, 1, 0, 0) is timelike, (1, 0, 0, 0.3, 0, 0) spacelike
    lag = BraneSpec(minkowski_metric(4), mass=1.0, charge=0.0).lagrangian(2)
    w = np.tile([0.2, 0.0, 0.0, 1.0, 0.0, 0.0], (16, 1))
    w[[6, 11]] = [1.0, 0.0, 0.0, 0.3, 0.0, 0.0]
    with pytest.raises(SpacelikeVelocity, match=r"batch index \(6,\)"):
        eval_L(lag, np.zeros((16, 4)), w)


def test_brane_without_a_potential_has_no_charge_term():
    spec = BraneSpec(USER_METRIC, mass=1.3)  # charge defaults to 1
    assert spec.lagrangian(2).charge == 0.0
    assert brane_action(spec, EMB) == pytest.approx(
        brane_action_per_cell(_evaluate, _jacobian, BOX, RESOLUTION, _user_g, 1.3), rel=1e-13)
    assert math.isfinite(brane_action(BraneSpec(USER_METRIC, mass=0.0), EMB))


def test_el_system_on_the_minors():
    # B has one row per target coordinate; Euler's identity dL/dx = B.w holds
    # there as for a particle, bit for bit; the proper-time row needs P = N and is None
    lag = _spec(True)[0].lagrangian(2)
    X, w = _cells()
    H, B, gv, row = el_system(lag, X, w)
    assert H.shape == (EMB.n_cells, 6, 6) and B.shape == (EMB.n_cells, 4, 6)
    assert gv.shape == (EMB.n_cells, 6) and row is None
    assert np.array_equal(np.matvec(B, w), position_gradient(lag, X, w))
    for k in (0, 17):
        ref = np.array([fd_gradient(lambda y: momentum(lag, y, w[k])[a], X[k])
                        for a in range(6)]).T
        assert np.max(np.abs(B[k] - ref)) <= 1e-7 * np.max(np.abs(ref))
