"""The blocked brane quadrature gives the bits of one batch over every cell.

brane_action evaluates one block of cells at a time
(BraneEmbedding.row_blocks: whole first-axis rows while one fits, else
ranges of the flat cell order) and sums the per-cell densities once at the
end. oracles.brane_action_single_batch is the single-batch reference;
every comparison is ==, not a tolerance. Small BLOCK_CELLS values make
small grids span many blocks; the other tests use the shipped block size.
"""

import tracemalloc

import numpy as np
import pytest

from oracles import brane_action_single_batch, entry_array
from repmech import (
    BraneEmbedding,
    BraneSpec,
    NegativeEvenRadicand,
    NegativeRadicand,
    brane,
    brane_action,
    component_count,
    constant_potential,
    cylinder_patch_embedding,
    graph_embedding,
    gridded_embedding,
    integral_gauge_check,
    metric_from_function,
    nonrelativistic_brane_expansion,
    symmetric_tensor,
    symmetric_tensor_field,
    tilted_plane_embedding,
)
from repmech.geometry import constant_diagonal_metric, euclidean_metric


def _embedding(d, resolution, analytic=True):
    """x(z) = (z, sin(z A^T)) from a D-box into 4 target coordinates."""
    A = np.linspace(0.3, 1.1, (4 - d) * d).reshape(4 - d, d)

    def evaluate(Z):
        return np.column_stack([Z, np.sin(Z @ A.T)])

    def jacobian(Z):
        J = np.zeros((len(Z), 4, d))
        J[:, :d, :] = np.eye(d)
        J[:, d:, :] = np.cos(Z @ A.T)[:, :, None] * A
        return J

    box = np.array([[-0.4 + 0.1 * a, 0.6 + 0.2 * a] for a in range(d)])
    return BraneEmbedding(d=d, dim_m=4, box=box, resolution=resolution,
                          evaluator=evaluate, jacobian=jacobian if analytic else None)


def _g(x):
    """I + b b^T with b varying in x: positive definite everywhere."""
    b = np.stack([0.3 * np.sin(x[..., 0]), 0.2 * x[..., 1],
                  0.1 * x[..., 2] * x[..., 3], 0.4 * np.cos(x[..., 3])], axis=-1)
    return np.eye(4) + b[..., :, None] * b[..., None, :]


def _full_spec(c):
    """A varying metric, a constant potential and a position-dependent rank-3 tensor."""

    def entries(x):
        return entry_array(3, c, {(0, 0, 0): 1.0 + 0.1 * x[..., 0] * x[..., 3],
                                  (0, 0, 1): -0.2 * np.sin(x[..., 1]),
                                  (1, 2, 3): 0.3 * x[..., 2]})

    return BraneSpec(metric_from_function(4, _g), mass=1.3, charge=0.7,
                     potential=constant_potential(np.linspace(-0.5, 0.4, c)),
                     extra_terms=((0.25, symmetric_tensor_field(3, c, entries)),))


@pytest.mark.parametrize("d, resolution, block", [
    (1, (1000,), 64),         # 15 blocks of 64 cells and a last one of 40
    (2, (37, 11), 50),        # 4 rows of 11 per block, a last block of 1 row
    (2, (9, 70), 50),         # a row longer than a block: ranges of 50 cells across rows
    (3, (13, 5, 4), 60),      # 3 rows of 20 per block, a last block of 1 row
])
@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
def test_small_blocks_give_the_bits_of_one_batch(monkeypatch, d, resolution, block, analytic):
    emb = _embedding(d, resolution, analytic)
    spec = _full_spec(component_count(4, d))
    expect = brane_action_single_batch(spec, emb, details=True)
    monkeypatch.setattr(brane, "BLOCK_CELLS", block)
    assert len(list(emb.row_blocks())) > 2
    assert brane_action(spec, emb, details=True) == expect
    assert brane_action(spec, emb) == expect[0]
    assert integral_gauge_check(emb) == expect[1]["gauge_deviation"]


@pytest.mark.parametrize("emb", [
    _embedding(1, (100_003,)),
    _embedding(2, (300, 257)),
    _embedding(3, (50, 40, 37)),
    tilted_plane_embedding(0.75, resolution=(300, 257)),
], ids=["curve", "surface", "volume", "tilted_plane"])
def test_shipped_blocks_give_the_bits_of_one_batch(emb):
    counts = [len(Z) for _, Z in emb.row_blocks()]
    assert len(counts) > 2 and counts[-1] < counts[0] <= brane.BLOCK_CELLS
    assert sum(counts) == emb.n_cells
    spec = BraneSpec(euclidean_metric(emb.dim_m), mass=1.7, charge=0.0)
    assert brane_action(spec, emb, details=True) == brane_action_single_batch(spec, emb, True)


def test_blocks_are_consecutive_rows_of_the_cell_centres():
    emb = _embedding(3, (50, 40, 37))
    starts, blocks = zip(*emb.row_blocks())
    assert np.array_equal(np.concatenate(blocks), emb.cell_centers())
    assert list(starts) == list(np.cumsum([0] + [len(Z) for Z in blocks[:-1]]))


@pytest.mark.parametrize("emb", [
    tilted_plane_embedding(0.75, resolution=(2, 100_003)),
    _embedding(3, (2, 300, 257)),
], ids=["surface", "volume"])
def test_a_row_longer_than_a_block_is_split_into_ranges_of_cells(emb):
    starts, blocks = zip(*emb.row_blocks())
    counts = [len(Z) for Z in blocks]
    assert counts[:-1] == [brane.BLOCK_CELLS] * (len(counts) - 1) and len(counts) > 4
    assert np.array_equal(np.concatenate(blocks), emb.cell_centers())
    assert list(starts) == list(np.cumsum([0] + counts[:-1]))
    spec = BraneSpec(euclidean_metric(emb.dim_m), mass=1.7, charge=0.0)
    assert brane_action(spec, emb, details=True) == brane_action_single_batch(spec, emb, True)


def test_one_cell_expansion_reads_the_quadratures_centre():
    seen = []

    def height(Z):
        seen.append(Z.copy())
        return 0.01 * Z[:, 0] ** 2

    emb = graph_embedding(height, grad=lambda Z: np.column_stack([0.02 * Z[:, 0], 0 * Z[:, 0]]),
                          box=((-0.3, 0.8), (0.1, 0.7)), resolution=(300, 257))
    spec = BraneSpec(constant_diagonal_metric([1.0, 1.0, -1.0]), mass=1.2, charge=0.0)
    nonrelativistic_brane_expansion(spec, emb, (201, 38))
    assert np.array_equal(seen[0][0], emb.cell_centers()[201 * 257 + 38])


@pytest.mark.parametrize("bad, first", [
    ([(150, 3), (200, 137)], (150, 3)),    # both in the second block
    ([(200, 137), (100, 200)], (100, 200)),  # one in each block
])
def test_the_first_bad_cell_over_all_blocks_is_reported(bad, first):
    resolution = (256, 256)  # two blocks of 128 rows

    def grad(Z):
        cells = np.floor(Z * resolution)
        inside = np.any([np.all(cells == b, axis=1) for b in bad], axis=0)
        return np.column_stack([np.where(inside, 1.5, 0.5), np.zeros(len(Z))])

    emb = graph_embedding(lambda Z: 0.5 * Z[:, 0], grad=grad, resolution=resolution)
    spec = BraneSpec(constant_diagonal_metric([1.0, 1.0, -1.0]), mass=1.0, charge=0.0)
    index = (int(np.ravel_multi_index(first, resolution)),)
    with pytest.raises(NegativeRadicand,
                       match=rf"at cell \({first[0]}, {first[1]}\).*batch index \({index[0]},\)"
                       ) as info:
        brane_action(spec, emb)
    assert info.value.cell == first
    with pytest.raises(NegativeRadicand) as oracle:
        brane_action_single_batch(spec, emb)
    assert str(info.value) == str(oracle.value)


def test_another_errors_batch_index_names_the_cell_in_the_whole_grid(monkeypatch):
    # a rank-4 tensor whose S_0000 is negative from cell (9, 4) on, in the fourth
    # block of 20 cells: its even root fails there first
    emb = _embedding(2, (12, 7))
    bad = int(np.ravel_multi_index((9, 4), emb.resolution))
    cut = emb.cell_centers()[bad]

    def entries(x):
        # the first two target coordinates are the parameters
        late = (x[..., 0] > cut[0]) | ((x[..., 0] == cut[0]) & (x[..., 1] >= cut[1]))
        return entry_array(4, 6, {(0, 0, 0, 0): np.where(late, -1.0, 1.0)})

    spec = BraneSpec(euclidean_metric(4), mass=1.0, charge=0.0,
                     extra_terms=((0.5, symmetric_tensor_field(4, 6, entries)),))
    with pytest.raises(NegativeEvenRadicand) as oracle:
        brane_action_single_batch(spec, emb)
    monkeypatch.setattr(brane, "BLOCK_CELLS", 20)
    with pytest.raises(NegativeEvenRadicand) as info:
        brane_action(spec, emb)
    assert info.value.batch_index == oracle.value.batch_index == (bad,)
    assert str(info.value) == str(oracle.value)


@pytest.mark.parametrize("which", ["evaluator", "jacobian"])
def test_a_raising_evaluator_is_called_on_the_first_block_only(which):
    class EvaluatorError(Exception):
        pass

    calls = []

    def failing(Z):
        calls.append(Z.shape)
        raise EvaluatorError("no batch")

    emb = _embedding(2, (300, 257))
    kwargs = {"evaluator": emb.evaluator, "jacobian": emb.jacobian, which: failing}
    emb = BraneEmbedding(d=2, dim_m=4, box=emb.box, resolution=emb.resolution, **kwargs)
    with pytest.raises(EvaluatorError, match="no batch"):
        brane_action(BraneSpec(metric_from_function(4, _g)), emb)  # _g reads positions
    assert calls == [(brane.BLOCK_CELLS // 257 * 257, 2)]


# tracemalloc peak of brane_action(details=True) on the 1024^2 tilted plane,
# numpy 2.4: 11.8 MB blocked (8 MB of it the per-cell densities), 104 MB as
# one batch over every cell
PEAK_BOUND_MB = 25.0


def test_memory_is_one_float_per_cell_plus_one_block():
    emb = tilted_plane_embedding(0.75, resolution=(1024, 1024))
    spec = BraneSpec(euclidean_metric(3), mass=1.0, charge=0.0)
    tracemalloc.start()
    try:
        action, _ = brane_action(spec, emb, details=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert action == pytest.approx(1.25, rel=1e-12)
    assert peak / 2 ** 20 <= PEAK_BOUND_MB


def _batch_sizes(emb):
    """emb with an evaluator that records the size of each batch it is given."""
    sizes = []

    def evaluate(Z):
        sizes.append(len(Z))
        return emb.evaluator(Z)

    return BraneEmbedding(d=emb.d, dim_m=emb.dim_m, box=emb.box, resolution=emb.resolution,
                          evaluator=evaluate, jacobian=emb.jacobian), sizes


def test_a_position_dependent_tensor_shrinks_the_blocks_by_its_dense_entries():
    emb, sizes = _batch_sizes(_embedding(2, (300, 257)))
    c = component_count(4, 2)
    constant = symmetric_tensor(3, c, {(0, 0, 0): 1.0, (1, 2, 3): 0.3})
    for terms in [(), ((0.25, constant),)]:
        sizes.clear()
        brane_action(BraneSpec(euclidean_metric(4), mass=1.3, extra_terms=terms), emb)
        assert sizes[:-1] == [brane.BLOCK_CELLS // 257 * 257] * (len(sizes) - 1)
    spec = _full_spec(c)
    expect = brane_action_single_batch(spec, emb, True)
    sizes.clear()
    assert brane_action(spec, emb, details=True) == expect
    cells = brane.BLOCK_CELLS * brane.CELL_FLOATS // (brane.CELL_FLOATS + c ** 3)
    assert sizes[:-1] == [cells // 257 * 257] * (len(sizes) - 1) and sum(sizes) == emb.n_cells


# tracemalloc peak of brane_action(details=True) on a 2 x 200 000 tilted
# plane, numpy 2.4: 8.3 MB with its rows split into blocks (as on the
# 200 000 x 2 grid), 27.5 MB with one block per row
ROW_PEAK_BOUND_MB = 12.0


def test_memory_of_rows_longer_than_a_block_is_bounded_per_block():
    emb = tilted_plane_embedding(0.75, resolution=(2, 200_000))
    spec = BraneSpec(euclidean_metric(3), mass=1.0, charge=0.0)
    tracemalloc.start()
    try:
        action, _ = brane_action(spec, emb, details=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert action == pytest.approx(1.25, rel=1e-12)
    assert peak / 2 ** 20 <= ROW_PEAK_BOUND_MB


# tracemalloc peak of brane_action on a 256^2 surface in 4 target dimensions
# with a position-dependent rank-3 tensor of C = 6 components: 11.2 MB with
# blocks sized by their floats, 86 MB with 2^15-cell blocks
TENSOR_PEAK_BOUND_MB = 25.0


def test_memory_of_a_position_dependent_tensor_is_bounded_per_block():
    emb = _embedding(2, (256, 256))
    spec = _full_spec(component_count(4, 2))
    tracemalloc.start()
    try:
        brane_action(spec, emb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 20 <= TENSOR_PEAK_BOUND_MB


# ---------------------------------------------------------------------------
# constant backgrounds: the quadrature reads no positions
# ---------------------------------------------------------------------------

def _gridded(resolution):
    """The interpolant of x3 = 0.3 z1 z2 - 0.2 z2^2 on (resolution + 1) nodes of the unit square."""
    axes = [np.linspace(0.0, 1.0, r + 1) for r in resolution]
    Z1, Z2 = np.meshgrid(*axes, indexing="ij")
    return gridded_embedding(axes, np.stack([Z1, Z2, 0.3 * Z1 * Z2 - 0.2 * Z2 ** 2], axis=-1))


# the embedding kinds the brane subcommand builds, each over several blocks
CLI_EMBEDDINGS = {
    "tilted_plane": tilted_plane_embedding(0.75, resolution=(300, 257)),
    "cylinder_patch": cylinder_patch_embedding(1.3, resolution=(300, 257)),
    "graph": graph_embedding(lambda Z: 0.3 * Z[:, 0] * Z[:, 1], grad=lambda Z: 0.3 * Z[:, ::-1],
                             resolution=(300, 257)),
    "gridded": _gridded((300, 257)),
}


def _constant_spec():
    """Every field constant: metric, potential and a rank-3 tensor on the 3 minors."""
    return BraneSpec(constant_diagonal_metric([1.0, 1.5, 0.8]), mass=1.2, charge=0.4,
                     potential=constant_potential([0.2, -0.1, 0.3]),
                     extra_terms=((0.3, symmetric_tensor(3, 3, {(0, 0, 0): 1.0,
                                                                (0, 1, 2): 0.2})),))


class EvaluatorCalled(Exception):
    pass


def _without_positions(emb):
    """emb with the same Jacobian and an evaluator that raises EvaluatorCalled."""

    def evaluate(Z):
        raise EvaluatorCalled(f"evaluator called on {len(Z)} points")

    return BraneEmbedding(d=emb.d, dim_m=emb.dim_m, box=emb.box, resolution=emb.resolution,
                          evaluator=evaluate, jacobian=emb.jacobian)


@pytest.mark.parametrize("kind", list(CLI_EMBEDDINGS))
def test_constant_fields_never_call_the_evaluator(kind):
    emb = CLI_EMBEDDINGS[kind]
    spec = _constant_spec()
    assert spec.lagrangian(2).all_fields_constant and len(list(emb.row_blocks())) > 2
    expect = brane_action_single_batch(spec, emb, details=True)
    assert brane_action(spec, _without_positions(emb), details=True) == expect
    assert brane_action(spec, _without_positions(emb)) == expect[0]


def test_constant_fields_name_the_same_bad_cell_without_positions(monkeypatch):
    # slope 1.5 in cell (1, 45) of 3 x 70 and 0.5 elsewhere: det(J^T g J) = 1 - slope^2 in
    # diag(1, 1, -1) is negative there only, in the third 50-cell range of the flat order
    resolution, bad = (3, 70), (1, 45)

    def grad(Z):
        inside = np.all(np.floor(Z * resolution) == bad, axis=1)
        return np.column_stack([np.zeros(len(Z)), np.where(inside, 1.5, 0.5)])

    emb = graph_embedding(lambda Z: 0.5 * Z[:, 1], grad=grad, resolution=resolution)
    spec = BraneSpec(constant_diagonal_metric([1.0, 1.0, -1.0]), mass=1.0, charge=0.0)
    with pytest.raises(NegativeRadicand) as oracle:
        brane_action_single_batch(spec, emb)
    monkeypatch.setattr(brane, "BLOCK_CELLS", 50)
    with pytest.raises(NegativeRadicand) as info:
        brane_action(spec, _without_positions(emb))
    index = (int(np.ravel_multi_index(bad, resolution)),)
    assert info.value.cell == oracle.value.cell == bad
    assert str(info.value) == str(oracle.value)
    assert f"batch index {index}" in str(info.value)
