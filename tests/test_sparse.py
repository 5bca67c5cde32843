"""Sparse storage layouts, partitioning, partial products, file export."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.io
from hypothesis import given, settings
from hypothesis import strategies as st

from hexwave.sparse import (COMPLEX_BYTES, INDEX_BYTES, LowerSymmetricRows,
                            RedundantRows, RowPartition, SparseFormatError,
                            SparseVector, full_matvec, partition_rows,
                            spmv_partial, to_redundant, write_matrix_market,
                            write_rhs)
from conftest import random_symmetric_sparse, row_block


# -- partitioning ------------------------------------------------------------

def test_partition_even():
    p = partition_rows(12, 4)
    assert [p.node_range(r) for r in range(4)] == [(0, 3), (3, 6), (6, 9),
                                                   (9, 12)]


def test_partition_remainder_to_first_ranks():
    p = partition_rows(10, 4)
    sizes = [p.node_range(r)[1] - p.node_range(r)[0] for r in range(4)]
    assert sizes == [3, 3, 2, 2]


def test_partition_dof_ranges_are_triples():
    p = partition_rows(10, 3)
    for r in range(3):
        lo, hi = p.node_range(r)
        assert p.dof_range(r) == (3 * lo, 3 * hi)


def test_owner_lookup():
    p = partition_rows(10, 4)
    for node in range(10):
        r = p.owner_of_node(node)
        lo, hi = p.node_range(r)
        assert lo <= node < hi
    for dof in range(30):
        assert p.owner_of_dof(dof) == p.owner_of_node(dof // 3)
    assert p.owner_of_dof(np.arange(30)).tolist() == [
        p.owner_of_dof(dof) for dof in range(30)]


def test_partition_more_ranks_than_nodes_rejected():
    with pytest.raises(ValueError):
        partition_rows(3, 5)


# -- storage layouts ---------------------------------------------------------

def test_lower_storage_keeps_lower_triangle(rng):
    rows, dense = random_symmetric_sparse(rng, 8)
    m = LowerSymmetricRows.from_symmetric_rows([row_block(rows, 8)], 8)
    np.testing.assert_array_equal(m.to_dense(), dense)
    for i in range(8):
        cols, _ = m.row(i)
        assert np.all(cols <= i)
        assert np.all(np.diff(cols) > 0)


def test_lower_storage_from_rows_equals_row_loop(rng):
    """Bitwise the CSR of each row's cols <= i entries, row by row; row 0
    keeps no entry."""
    rows, _ = random_symmetric_sparse(rng, 9)
    rows[0] = (rows[0][0][1:], rows[0][1][1:])
    lower = [(c[c <= i], v[c <= i]) for i, (c, v) in enumerate(rows)]
    m = LowerSymmetricRows.from_symmetric_rows([row_block(rows, 9)], 9)
    assert m.row(0)[0].size == 0
    assert np.array_equal(m.indptr,
                          np.cumsum([0] + [len(c) for c, _ in lower]))
    assert np.array_equal(m.indices, np.concatenate([c for c, _ in lower]))
    assert np.array_equal(m.data, np.concatenate([v for _, v in lower]))


def test_row_blocks_stack_into_either_storage(rng):
    """Blocks of 3, 0 and 6 rows, each starting at its first row, stack
    bitwise into the one-block matrix; blocks that leave a gap, overlap
    or stop short are rejected."""
    rows, _ = random_symmetric_sparse(rng, 9)
    split = [row_block(rows[:3], 9), row_block([], 9, 3),
             row_block(rows[3:], 9, 3)]
    for build in (RedundantRows.from_rows,
                  LowerSymmetricRows.from_symmetric_rows):
        whole = build([row_block(rows, 9)], 9)
        stacked = build(split, 9)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(stacked, name), getattr(whole, name))
        for blocks in ([row_block(rows[:3], 9), row_block(rows[4:], 9, 4)],
                       [row_block(rows[:4], 9), row_block(rows[3:], 9, 3)],
                       [row_block(rows[:8], 9)],
                       [row_block(rows[1:], 9, 1)]):
            with pytest.raises(SparseFormatError, match="do not cover"):
                build(blocks, 9)


def test_lower_storage_rejects_upper_entries():
    with pytest.raises(SparseFormatError, match="row 0"):
        LowerSymmetricRows(2, [0, 1, 2], [1, 1], [1.0, 2.0])
    # Row 2 repeats a column; rows 0 and 1 are valid.
    with pytest.raises(SparseFormatError, match="row 2"):
        LowerSymmetricRows(3, [0, 1, 3, 5], [0, 0, 1, 1, 1], np.ones(5))


def test_to_redundant_matches_dense(rng):
    rows, dense = random_symmetric_sparse(rng, 9)
    lower = LowerSymmetricRows.from_symmetric_rows([row_block(rows, 9)], 9)
    full = to_redundant(lower)
    np.testing.assert_array_equal(full.to_dense(), dense)
    ref = RedundantRows.from_rows([row_block(rows, 9)], 9)
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(full, name), getattr(ref, name))


def test_diagonal_matches_dense_on_every_layout(rng):
    rows, dense = random_symmetric_sparse(rng, 10)
    # Row 4 keeps its off-diagonal entries but stores no diagonal.
    cols, vals = rows[4]
    rows[4] = (cols[cols != 4], vals[cols != 4])
    dense[4, 4] = 0.0
    assert len(rows[4][0]) > 0
    for m in (LowerSymmetricRows.from_symmetric_rows([row_block(rows, 10)], 10),
              RedundantRows.from_rows([row_block(rows, 10)], 10)):
        np.testing.assert_array_equal(m.diagonal(), np.diag(m.to_dense()))
        np.testing.assert_array_equal(m.diagonal(), np.diag(dense))


def test_byte_accounting(rng):
    rows, _ = random_symmetric_sparse(rng, 6)
    m = RedundantRows.from_rows([row_block(rows, 6)], 6)
    assert m.value_bytes() == 16 * m.nnz
    v = SparseVector.from_dense(np.array([0, 1 + 1j, 0, 2.0]))
    assert v.payload_bytes() == 2 * (INDEX_BYTES + COMPLEX_BYTES)


# -- partial products --------------------------------------------------------

@pytest.mark.parametrize("ranks", [1, 2, 3, 4])
@pytest.mark.parametrize("storage", ["lower", "redundant"])
def test_spmv_partials_sum_to_full_product(rng, ranks, storage):
    nodes = 4
    n = 3 * nodes
    rows, dense = random_symmetric_sparse(rng, n)
    if storage == "lower":
        m = LowerSymmetricRows.from_symmetric_rows([row_block(rows, n)], n)
    else:
        m = RedundantRows.from_rows([row_block(rows, n)], n)
    part = partition_rows(nodes, ranks)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    total = np.zeros(n, dtype=np.complex128)
    for r in range(ranks):
        sv = spmv_partial(m, part, r, x)
        np.add.at(total, sv.indices, sv.values)
    np.testing.assert_allclose(total, dense @ x, rtol=1e-13)


def test_redundant_partial_is_owned_segment(rng):
    nodes = 4
    rows, dense = random_symmetric_sparse(rng, 12)
    m = RedundantRows.from_rows([row_block(rows, 12)], 12)
    part = partition_rows(nodes, 2)
    x = rng.standard_normal(12) + 0j
    sv = spmv_partial(m, part, 1, x)
    assert sv.indices.min() >= 6
    got = np.zeros(12, dtype=np.complex128)
    got[sv.indices] = sv.values
    np.testing.assert_allclose(got[6:], (dense @ x)[6:], rtol=1e-13)


def test_redundant_segment_bitwise_rank_invariant(rng):
    """Storage #2 row products do not depend on the rank count."""
    nodes = 6
    rows, _ = random_symmetric_sparse(rng, 18)
    m = RedundantRows.from_rows([row_block(rows, 18)], 18)
    x = rng.standard_normal(18) + 1j * rng.standard_normal(18)
    ref = full_matvec(m, x)
    for ranks in (1, 2, 3, 6):
        part = partition_rows(nodes, ranks)
        got = np.zeros(18, dtype=np.complex128)
        for r in range(ranks):
            sv = spmv_partial(m, part, r, x)
            got[sv.indices] = sv.values
        # np.array_equal: bitwise, not approximate
        assert np.array_equal(got, ref)


def test_full_matvec_lower_equals_dense(rng):
    rows, dense = random_symmetric_sparse(rng, 12)
    m = LowerSymmetricRows.from_symmetric_rows([row_block(rows, 12)], 12)
    x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    np.testing.assert_allclose(full_matvec(m, x), dense @ x, rtol=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(0, 2 ** 31 - 1))
def test_spmv_property_random(nodes, seed):
    rng = np.random.default_rng(seed)
    n = 3 * nodes
    rows, dense = random_symmetric_sparse(rng, n, density=0.5)
    m = RedundantRows.from_rows([row_block(rows, n)], n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    np.testing.assert_allclose(full_matvec(m, x), dense @ x,
                               rtol=1e-12, atol=1e-12)


def test_sparse_vector_filters_zeros():
    sv = SparseVector.from_segment(2, np.array([0, 1.0, 0, 2.0]), 10)
    np.testing.assert_array_equal(sv.indices, [3, 5])
    assert sv.payload_bytes() == 2 * (INDEX_BYTES + COMPLEX_BYTES)


# -- Matrix Market export, read back by scipy --------------------------------

def _assert_csr_equal(a, m) -> None:
    """scipy CSR matrix ``a`` holds bitwise the arrays of stored matrix m."""
    np.testing.assert_array_equal(a.indptr, m.indptr)
    np.testing.assert_array_equal(a.indices, m.indices)
    np.testing.assert_array_equal(a.data, m.data)


def test_mm_symmetric_roundtrip_vs_scipy(rng, tmp_path):
    """scipy mirrors the lower-triangle export into the full matrix."""
    rows, _ = random_symmetric_sparse(rng, 7)
    m = LowerSymmetricRows.from_symmetric_rows([row_block(rows, 7)], 7)
    path = tmp_path / "sym.mtx"
    write_matrix_market(path, m, comment="test system")
    assert path.read_text().startswith(
        "%%MatrixMarket matrix coordinate complex symmetric\n% test system\n")
    _assert_csr_equal(scipy.io.mmread(str(path)).tocsr(), to_redundant(m))


def test_mm_general_roundtrip_vs_scipy(rng, tmp_path):
    rows, _ = random_symmetric_sparse(rng, 6)
    m = RedundantRows.from_rows([row_block(rows, 6)], 6)
    path = tmp_path / "gen.mtx"
    write_matrix_market(path, m)
    assert path.read_text().startswith(
        "%%MatrixMarket matrix coordinate complex general\n6 6 ")
    _assert_csr_equal(scipy.io.mmread(str(path)).tocsr(), m)


def test_rhs_roundtrip_exact(rng, tmp_path):
    b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    path = tmp_path / "b.rhs"
    write_rhs(path, b)
    back = np.loadtxt(path, skiprows=1).view(np.complex128).ravel()
    np.testing.assert_array_equal(back, b)
