import functools
import itertools
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repmech.fields as fields
from oracles import (
    assert_guard,
    dense_contraction,
    dense_symmetric_tensor,
    entry_array,
    fd_gradient,
    per_point,
    tensor_columns_reference,
)
from repmech import (
    DimensionMismatch,
    LagrangianSpec,
    MetricField,
    constant_potential,
    el_system,
    potential_from_function,
    symmetric_tensor,
    symmetric_tensor_field,
    uniform_magnetic_potential,
    zero_potential,
)
from repmech.cli import main
from repmech.fields import MAX_DENSE_ENTRIES, SymmetricTensorField, tensor_columns, tensor_indices
from repmech.sweeps import standard_sweeps

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@functools.lru_cache(maxsize=None)
def _sympy_kernel(rank, dim, keys):
    """S(v, ..., v), its gradient and its Hessian as sympy polynomials, lambdified.

    Entry I (a sorted multi-index with k_d copies of d) enters with its
    multinomial weight n! / prod(k_d!) times prod v_d^k_d, so no dense array
    is involved. Each function takes v of shape (..., N) and c of shape
    (..., len(keys)), one coefficient per key, and returns the flat
    components (..., m). At |v| and |c| it gives the size of the terms that
    rounding acts on.
    """
    v = sp.symbols(f"v0:{dim}")
    c = sp.symbols(f"c0:{len(keys)}")
    poly = sum(ci * sp.factorial(rank) / sp.prod([sp.factorial(idx.count(d)) for d in set(idx)])
               * sp.prod([v[d] for d in idx]) for ci, idx in zip(c, keys))
    grad = [sp.diff(poly, va) for va in v]
    hess = [sp.diff(poly, va, vb) for va in v for vb in v]

    def compiled(exprs):
        fn = sp.lambdify([v, c], exprs, "numpy")

        def evaluate(vv, cc):
            values = fn(list(np.moveaxis(vv, -1, 0)), list(np.moveaxis(cc, -1, 0)))
            return np.stack([np.broadcast_to(np.asarray(e, dtype=float), vv.shape[:-1])
                             for e in values], axis=-1)
        return evaluate

    return compiled([poly]), compiled(grad), compiled(hess)


def _coefficients(base, x):
    """Entry values of the position-dependent test tensor: each entry scaled by its own wave in x."""
    x = np.asarray(x, dtype=float)
    phase = np.arange(1, len(base) + 1) * (x.sum(axis=-1, keepdims=True) + x[..., -1:])
    return np.asarray(base) * (1.0 + 0.5 * np.sin(phase))


def _tensor_spec(tensor, position_dim):
    """L = S(x; v, ..., v)^(1/n) alone, on positions of length position_dim."""
    metric = MetricField(tensor.dim, "constant", lambda y: np.eye(tensor.dim),
                         position_dim=position_dim)
    return LagrangianSpec(metric=metric, extra_terms=((1.0, tensor),))


class TestSymmetricTensor:
    def test_single_diagonal_entry(self):
        s = symmetric_tensor(3, 2, {(0, 0, 0): 2.0})
        assert s.contraction(np.zeros(2), [3, 0]) == 54.0

    def test_zero_velocity(self):
        s = symmetric_tensor(3, 2, {(0, 0, 1): 1.0, (1, 1, 1): -0.4})
        assert s.contraction(np.zeros(2), [0, 0]) == 0.0

    def test_multiplicity_weighted_entry(self):
        # (0,0,1) has 3 permutations: 3 * 1 * 1 * 2 = 6
        s = symmetric_tensor(3, 2, {(0, 0, 1): 1.0})
        assert s.contraction(np.zeros(2), [1, 2]) == 6.0

    def test_unsorted_indices_canonicalized(self):
        a = symmetric_tensor(3, 3, {(2, 0, 1): 1.5})
        b = symmetric_tensor(3, 3, {(0, 1, 2): 1.5})
        v = np.array([0.3, -0.7, 1.1])
        assert a.contraction(np.zeros(3), v) == b.contraction(np.zeros(3), v)

    def test_duplicate_entries_rejected(self):
        with pytest.raises(DimensionMismatch):
            symmetric_tensor(3, 3, {(0, 1, 2): 1.0, (2, 1, 0): 2.0})

    def test_rank_below_three_rejected(self):
        with pytest.raises(DimensionMismatch):
            symmetric_tensor(2, 3, {(0, 1): 1.0})

    def test_out_of_range_index_rejected(self):
        with pytest.raises(DimensionMismatch):
            symmetric_tensor(3, 2, {(0, 1, 2): 1.0})

    @pytest.mark.parametrize("entries, message", [
        ({(0, 0): 1.0}, "multi-index (0, 0) does not have rank 3"),
        ({(0, 0, 0): 1.0, (256, 0, 0): 1.0}, "multi-index (256, 0, 0) out of range for dim 256"),
        ({(0, 0, 1): 1.0, (1, 0, 0): 2.0}, "duplicate entry for multi-index (0, 0, 1)"),
    ], ids=["wrong_rank", "out_of_range", "duplicate"])
    def test_a_bad_index_is_refused_before_the_index_tables_are_built(self, monkeypatch,
                                                                      entries, message):
        # in dim 256 the rank-3 tables hold 16.7 million columns and 2.8 million rows
        def refuse(*args):
            raise AssertionError("index tables built before the indices were checked")

        monkeypatch.setattr(fields, "tensor_columns", refuse)
        monkeypatch.setattr(fields, "tensor_indices", refuse)
        with pytest.raises(DimensionMismatch) as info:
            symmetric_tensor(3, 256, entries)
        assert str(info.value) == message

    @pytest.mark.parametrize("rank,dim", [(3, 2), (3, 4), (4, 4), (5, 3), (6, 3), (8, 4),
                                          (10, 2)])
    def test_entries_are_one_read_only_array_in_combinations_order(self, rank, dim):
        keys = list(itertools.combinations_with_replacement(range(dim), rank))
        assert tensor_indices(rank, dim).tolist() == [list(k) for k in keys]
        rng = np.random.default_rng(rank * dim)
        entries = {keys[c]: float(rng.uniform(-1.0, 1.0))
                   for c in rng.choice(len(keys), size=3, replace=False)}
        # the mapping's indices in any order land in the column of the sorted one
        s = symmetric_tensor(rank, dim, {k[::-1]: val for k, val in entries.items()})
        assert np.array_equal(s.entries, entry_array(rank, dim, entries))
        assert np.array_equal(s.S, dense_symmetric_tensor(rank, dim, entries))
        assert not s.entries.flags.writeable and not s.S.flags.writeable
        # the array constructor takes the same entries and only that many
        same = SymmetricTensorField(rank, dim, entries=s.entries)
        assert np.array_equal(same.S, s.S)
        with pytest.raises(DimensionMismatch, match=rf"need \({len(keys)},\)"):
            SymmetricTensorField(rank, dim, entries=np.append(s.entries, 0.0))

    def test_the_dense_array_is_not_a_constructor_argument(self):
        # S is built from the entries; given with an evaluator, it would shadow it
        with pytest.raises(TypeError, match="'S'"):
            SymmetricTensorField(3, 2, evaluator=lambda x: np.full(x.shape[:-1] + (4,), 1.0),
                                 S=np.zeros((2, 2, 2)))
        varying = SymmetricTensorField(3, 2, evaluator=lambda x: np.full(x.shape[:-1] + (4,), 1.0))
        assert varying.S is None and not varying.is_constant
        assert varying.contraction(np.zeros(2), np.array([1.0, 1.0])) == 8.0

    @pytest.mark.parametrize("dim", [2, 4, 5])
    @pytest.mark.parametrize("rank", range(3, 9))
    def test_columns_match_the_enumerated_reference(self, rank, dim):
        columns = tensor_columns(rank, dim)
        assert columns.dtype == np.intp and not columns.flags.writeable
        assert np.array_equal(columns, tensor_columns_reference(rank, dim))

    def test_columns_of_a_high_rank_take_no_index_array_per_axis(self):
        # rank 10 in dim 4: np.indices and its sort held 10 x 4^10 intp, a
        # traced peak of 160 MB; a chunked sort 29 MB; built rank by rank the
        # peak is 10 MB, of which the 4^10 intp columns are 8 MB. (A child
        # process's ru_maxrss would carry this process's own peak through
        # exec on Linux.)
        tensor_indices(10, 4)
        tracemalloc.start()
        try:
            tensor_columns.__wrapped__(10, 4)  # past the cache
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2 ** 20

    def test_columns_of_a_high_rank_take_no_sort(self):
        # rank 11 in dim 4, 4^11 columns: about 0.05 s by gathers, against
        # 1.2 s for a sort of every multi-index
        tensor_indices(11, 4)
        start = time.perf_counter()
        tensor_columns.__wrapped__(11, 4)  # past the cache
        assert time.perf_counter() - start < 0.6

    def test_no_mapping_is_checked_during_a_contraction(self, monkeypatch):
        constant = symmetric_tensor(3, 3, {(0, 0, 0): 1.0, (0, 1, 2): -0.3})

        def refuse(*args):
            raise AssertionError("a mapping was checked after construction")

        monkeypatch.setattr(fields, "_canonical_entries", refuse)
        varying = symmetric_tensor_field(3, 3, lambda x: x[..., :1] * constant.entries)
        x = np.random.default_rng(8).uniform(-1.0, 1.0, size=(6, 3))
        v = x + np.array([2.0, 0.0, 0.0])
        for tensor in (constant, varying):
            for k in range(3):
                tensor.partial_contraction(x, v, k)
        assert all(r.passed for r in standard_sweeps(samples=20))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_contraction_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(3, 5))
        dim = int(rng.integers(2, 5))
        entries = {}
        for _ in range(5):
            idx = tuple(sorted(rng.integers(0, dim, size=rank)))
            entries[idx] = float(rng.uniform(-1, 1))
        s = symmetric_tensor(rank, dim, entries)
        dense = dense_symmetric_tensor(rank, dim, entries)
        v = rng.uniform(-2, 2, size=dim)
        assert s.contraction(np.zeros(dim), v) == pytest.approx(
            dense_contraction(dense, v), rel=1e-12, abs=1e-12)

    def test_gradient_and_hessian_match_fd(self):
        rng = np.random.default_rng(11)
        s = symmetric_tensor(4, 3, {
            (0, 0, 0, 0): 0.7, (0, 1, 2, 2): -0.4, (1, 1, 1, 2): 0.9, (0, 0, 1, 1): 0.2,
        })
        x = np.zeros(3)
        for _ in range(5):
            v = rng.uniform(-1.5, 1.5, size=3)
            grad = s.contraction_gradient(x, v)
            ref = fd_gradient(lambda w: s.contraction(x, w), v)
            assert np.max(np.abs(grad - ref)) < 1e-7
            hess = s.contraction_hessian(x, v)
            for a in range(3):
                ref_row = fd_gradient(lambda w: s.contraction_gradient(x, w)[a], v)
                assert np.max(np.abs(hess[a] - ref_row)) < 1e-7

    def test_position_dependent_tensor(self):
        field = symmetric_tensor_field(
            3, 2, lambda x: entry_array(3, 2, {(0, 0, 0): x[..., 0], (0, 1, 1): 1.0}))
        x = np.array([2.0, 0.0])
        v = np.array([1.0, 3.0])
        # 2*1 + 3*1*9
        assert field.contraction(x, v) == pytest.approx(29.0)
        # d/dx^0 of the contraction is v0^3 = 1; el_system's B contracts v to
        # dL/dx = Q c^(1/n - 1) dc/dx / n for L = Q c^(1/n), here Q = 1 and n = 3
        B = el_system(_tensor_spec(field, 2), x, v)[1]
        dc = 3.0 * np.cbrt(29.0) ** 2 * np.matvec(B, v)
        assert dc == pytest.approx([1.0, 0.0], abs=1e-8)


class TestSympyOracle:
    """The dense kernel against sympy derivatives of the monomial polynomial, to 1e-12."""

    @pytest.mark.parametrize("varying", [False, True], ids=["constant", "position_dependent"])
    @pytest.mark.parametrize("batch", [(), (7,), (3, 5)], ids=["point", "b7", "b3x5"])
    @pytest.mark.parametrize("rank,dim", [(r, d) for r in (3, 4, 5) for d in (2, 3, 4, 5)])
    def test_contraction_gradient_hessian(self, rank, dim, batch, varying):
        rng = np.random.default_rng(100 * rank + dim)
        keys = tuple(sorted({tuple(sorted(rng.integers(0, dim, size=rank))) for _ in range(6)}))
        base = rng.uniform(-1.0, 1.0, size=len(keys))
        v = rng.uniform(-1.5, 1.5, size=batch + (dim,))
        # positions one longer than the tensor's dim, as for a brane's minor components
        x = rng.uniform(-1.0, 1.0, size=batch + (dim + 1,))
        if varying:
            tensor = symmetric_tensor_field(rank, dim, lambda y: entry_array(
                rank, dim, dict(zip(keys, np.moveaxis(_coefficients(base, y), -1, 0)))))
            coefs = _coefficients(base, x)
        else:
            tensor = symmetric_tensor(rank, dim, dict(zip(keys, base)))
            coefs = np.broadcast_to(base, batch + base.shape)
        methods = (tensor.contraction, tensor.contraction_gradient, tensor.contraction_hessian)
        shapes = (batch, batch + (dim,), batch + (dim, dim))
        for method, oracle, shape in zip(methods, _sympy_kernel(rank, dim, keys), shapes):
            got = method(x, v)
            assert np.shape(got) == shape
            ref = oracle(v, coefs).reshape(shape)
            scale = oracle(np.abs(v), np.abs(coefs)).reshape(shape)
            assert np.all(np.abs(got - ref) <= 1e-12 * scale)

    def test_one_position_broadcasts_over_a_batch(self):
        keys = ((0, 0, 1), (1, 2, 2))
        base = np.array([0.7, -0.4])
        tensor = symmetric_tensor_field(3, 3, lambda y: entry_array(
            3, 3, dict(zip(keys, np.moveaxis(_coefficients(base, y), -1, 0)))))
        x = np.array([0.3, -0.2, 0.5, 0.1])  # four coordinates, three components
        v = np.random.default_rng(2).uniform(-1.0, 1.0, size=(5, 3))
        for method in (tensor.contraction, tensor.contraction_gradient,
                       tensor.contraction_hessian):
            assert np.array_equal(method(x, v), np.stack([method(x, vk) for vk in v]))
        # the x-derivative, through el_system's B, at that position for each velocity
        spec = _tensor_spec(tensor, 4)
        B = el_system(spec, np.broadcast_to(x, (5, 4)), v)[1]
        assert np.array_equal(B, np.stack([el_system(spec, x, vk)[1] for vk in v]))


class TestPositionDependentBatches:
    """A position-dependent tensor on a batch against the per-point reference, to 1e-15."""

    @pytest.mark.parametrize("rank,dim", [(3, 2), (3, 4), (4, 3), (5, 2)])
    def test_batch_equals_the_points(self, rank, dim):
        rng = np.random.default_rng(10 * rank + dim)
        keys = tuple(sorted({tuple(sorted(rng.integers(0, dim, size=rank))) for _ in range(5)}))
        base = rng.uniform(-1.0, 1.0, size=len(keys))
        tensor = symmetric_tensor_field(rank, dim, lambda y: entry_array(
            rank, dim, dict(zip(keys, np.moveaxis(_coefficients(base, y), -1, 0)))))
        x = rng.uniform(-2.0, 2.0, size=(3, 4, dim + 1))
        v = rng.uniform(-1.5, 1.5, size=(3, 4, dim))
        for method in (tensor.contraction, tensor.contraction_gradient,
                       tensor.contraction_hessian):
            batch, ref = method(x, v), per_point(lambda xk, vk: method(xk, vk), x, v)
            assert batch.shape == ref.shape
            assert np.max(np.abs(batch - ref)) <= 1e-15 * np.max(np.abs(ref))
        # the x-derivative, through el_system's B, where the term's root is
        # defined: an even rank leaves out the points with S(v, ..., v) < 0
        c = tensor.contraction(x, v)
        keep = c > 0.0 if rank % 2 == 0 else c != 0.0
        x, v = x[keep], v[keep]
        spec = _tensor_spec(tensor, dim + 1)
        batch = el_system(spec, x, v)[1]
        ref = per_point(lambda xk, vk: el_system(spec, xk, vk)[1], x, v)
        assert batch.shape == ref.shape == (len(v), dim + 1, dim)
        assert np.max(np.abs(batch - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_an_entry_of_the_wrong_shape_is_a_dimension_mismatch(self):
        # C = 4 entries for rank 3 in dim 2; positions (5, 2) need entries (5, 4)
        for evaluator in (lambda y: entry_array(3, 2, {(0, 0, 0): y[0], (0, 1, 1): 1.0}),
                          lambda y: entry_array(3, 2, {(0, 0, 0): 2.0}),
                          lambda y: np.ones(y.shape[:-1] + (3,))):
            tensor = symmetric_tensor_field(3, 2, evaluator)
            with pytest.raises(DimensionMismatch, match="tensor evaluator returned"):
                tensor.contraction(np.zeros((5, 2)), np.ones((5, 2)))


class TestDenseSize:
    def test_oversized_tensor_is_a_dimension_mismatch(self):
        assert 40 ** 5 > MAX_DENSE_ENTRIES
        with pytest.raises(DimensionMismatch, match="dense entries"):
            symmetric_tensor(5, 40, {(0,) * 5: 1.0})
        with pytest.raises(DimensionMismatch, match="dense entries"):
            symmetric_tensor_field(5, 40, lambda x: {})

    def test_oversized_config_tensor_is_a_config_error_at_its_rank(self, tmp_path, capsys):
        config = tmp_path / "simulate.yaml"
        index = ",".join(["0"] * 13)  # 4^13 dense entries
        config.write_text((CONFIGS / "simulate.yaml").read_text().replace(
            "gauge:", f"  extra_terms: [{{coupling: 0.1, rank: 13, entries: {{'{index}': 1.0}}}}]\n"
                      "gauge:"))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: 'spec.extra_terms.0.rank' (line 13): a rank-13 tensor in dim 4 has "
            "67108864 dense entries, more than 16777216\n")

    def test_empty_entries_give_the_zero_tensor(self):
        s = symmetric_tensor(3, 2, {})
        assert s.contraction(np.zeros(2), [1.0, 2.0]) == 0.0
        assert not np.any(s.S)


class TestVectorPotential:
    def test_zero_and_constant(self):
        assert np.all(zero_potential(4)(np.ones(4)) == 0.0)
        pot = constant_potential([0.5, 0, 0, 0])
        assert np.allclose(pot(np.ones(4)), [0.5, 0, 0, 0])
        assert np.all(pot.jacobian(np.ones(4)) == 0.0)

    def test_uniform_magnetic_components(self):
        pot = uniform_magnetic_potential(4, 2.0, plane=(1, 2))
        x = np.array([0.0, 3.0, 5.0, 0.0])
        a = pot(x)
        assert a[1] == pytest.approx(5.0)   # +B/2 * x^2
        assert a[2] == pytest.approx(-3.0)  # -B/2 * x^1
        assert a[0] == 0.0 and a[3] == 0.0

    def test_uniform_magnetic_jacobian_matches_fd(self):
        pot = uniform_magnetic_potential(4, 1.3, plane=(1, 3))
        x = np.array([0.2, -0.4, 0.9, 1.1])
        jac = pot.jacobian(x)
        for a in range(4):
            ref = fd_gradient(lambda y: pot(y)[a], x)
            assert np.max(np.abs(jac[a] - ref)) < 1e-9

    def test_uniform_magnetic_batch_equals_pointwise(self):
        pot = uniform_magnetic_potential(4, 1.7, plane=(3, 1))
        x = np.random.default_rng(4).normal(size=(3, 5, 4))
        assert np.array_equal(pot(x), per_point(pot, x))
        assert np.array_equal(pot.jacobian(x), per_point(pot.jacobian, x))

    def test_user_potential_fd_jacobian(self):
        pot = potential_from_function(3, lambda x: np.stack(
            [np.sin(x[..., 1]), x[..., 0] * x[..., 2], np.zeros(x.shape[:-1])], axis=-1))
        x = np.array([0.4, 0.2, -0.7])
        jac = pot.jacobian(x)
        for a in range(3):
            ref = fd_gradient(lambda y: pot(y)[a], x)
            assert np.max(np.abs(jac[a] - ref)) < 1e-8

    def test_zero_and_constant_batches_equal_the_points(self):
        x = np.random.default_rng(5).normal(size=(3, 5, 4))
        for pot in (zero_potential(4), constant_potential([0.5, -0.2, 0.1, 0.3])):
            assert np.array_equal(pot(x), per_point(pot, x))
            assert np.array_equal(pot.jacobian(x), per_point(pot.jacobian, x))
        # a brane's potential has one component per minor, at target positions
        pot = constant_potential(np.arange(6.0))
        assert pot.jacobian(x).shape == (3, 5, 6, 4)

    def test_user_potential_fd_jacobian_batch_equals_the_points(self):
        pot = potential_from_function(3, lambda x: np.stack(
            [np.sin(x[..., 1]), x[..., 0] * x[..., 2], np.exp(0.3 * x[..., 0])], axis=-1))
        x = np.random.default_rng(6).uniform(-3.0, 3.0, size=(4, 6, 3))
        batch, ref = pot.jacobian(x), per_point(pot.jacobian, x)
        assert batch.shape == ref.shape == (4, 6, 3, 3)
        assert np.max(np.abs(batch - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_wrongly_shaped_values_are_dimension_mismatches(self):
        x = np.random.default_rng(7).normal(size=(5, 3))
        good = lambda y: np.sin(y)
        with pytest.raises(DimensionMismatch, match="potential jacobian"):
            potential_from_function(3, good, jacobian=lambda y: np.cos(y)).jacobian(x)
        with pytest.raises(DimensionMismatch, match="potential jacobian"):
            potential_from_function(3, good, jacobian=lambda y: np.eye(3)).jacobian(x)
        with pytest.raises(DimensionMismatch, match="potential returned"):
            potential_from_function(3, lambda y: np.sin(y[0]))(x)

    def test_bad_plane_rejected(self):
        with pytest.raises(DimensionMismatch):
            uniform_magnetic_potential(4, 1.0, plane=(0, 2))

    @pytest.mark.parametrize("plane", [(True, 2), (1, np.True_), (1.0, 2), (1, 2.0)])
    def test_a_bool_or_float_plane_index_is_rejected(self, plane):
        # True would index the components as a boolean mask
        with pytest.raises(DimensionMismatch, match="plane indices"):
            uniform_magnetic_potential(4, 1.0, plane=plane)

    @pytest.mark.parametrize("plane", [(1, 2, 3), (1,), 5, np.array(5), np.array([[1, 2]])],
                             ids=["three", "one", "int", "0d-array", "2d-array"])
    def test_a_plane_that_is_not_a_pair_is_rejected(self, plane):
        # these died unpacking the pair or taking its length, with a bare
        # ValueError or TypeError
        with pytest.raises(DimensionMismatch, match="plane indices"):
            uniform_magnetic_potential(4, 1.0, plane=plane)

    def test_numpy_integer_plane_indices_work(self):
        x = np.random.default_rng(8).normal(size=(5, 4))
        ref = uniform_magnetic_potential(4, 1.5, plane=(1, 2))
        for plane in [(np.int64(1), np.int32(2)), np.array([1, 2])]:
            pot = uniform_magnetic_potential(4, 1.5, plane=plane)
            assert np.array_equal(pot(x), ref(x))
            assert np.array_equal(pot.jacobian(x), ref.jacobian(x))


# guard -> (call, error, message): input checks that no other test reaches
GUARDS = {
    "entries_and_evaluator": (
        lambda: SymmetricTensorField(3, 2, entries=np.zeros(4), evaluator=lambda x: x),
        DimensionMismatch, "provide exactly one of entries / evaluator"),
    "neither_entries_nor_evaluator": (lambda: SymmetricTensorField(3, 2), DimensionMismatch,
                                      "provide exactly one of entries / evaluator"),
    "velocity_of_another_dim": (
        lambda: symmetric_tensor(3, 2, {(0, 0, 0): 1.0}).partial_contraction(
            np.zeros(2), np.zeros(3), 0),
        DimensionMismatch, "velocity shape (3,) vs tensor dim 2"),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_each_guard_raises_its_error(guard):
    assert_guard(GUARDS, guard)
