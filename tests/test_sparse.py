"""Sparse storage layouts, partitioning, partial products, file export."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.io
from hypothesis import given, settings
from hypothesis import strategies as st

from hexwave.fabric import CommFabric, run_spmd
from hexwave.runner import Scenario, assemble_system, build_scenario_mesh
from hexwave.sparse import (COMPLEX_BYTES, INDEX_BYTES, LowerSymmetricRows,
                            RedundantRows, SparseFormatError,
                            SparseVector, _unique, full_matvec,
                            partition_rows, spmv_partial, to_redundant,
                            write_matrix_market, write_rhs)
from conftest import (assert_same_csr, below_by_column_loop, dense,
                      masked_lower_matvec, random_symmetric_sparse, row_block,
                      same_bits, select_loop, split_rows)


# -- partitioning ------------------------------------------------------------

def test_partition_even():
    fab = CommFabric(partition_rows(12, 4))
    assert [fab.dof_range(r) for r in range(4)] == [(0, 9), (9, 18),
                                                    (18, 27), (27, 36)]


def test_partition_remainder_to_first_ranks():
    fab = CommFabric(partition_rows(10, 4))
    sizes = [fab.dof_range(r)[1] - fab.dof_range(r)[0] for r in range(4)]
    assert sizes == [9, 9, 6, 6]


def test_partition_dof_ranges_are_triples():
    starts = partition_rows(10, 3)
    fab = CommFabric(starts)
    assert fab.ranks == 3
    assert starts.tolist() == [0, 12, 21, 30]
    for r in range(3):
        lo, hi = fab.dof_range(r)
        assert lo % 3 == 0 and hi % 3 == 0


def test_owner_lookup():
    fab = CommFabric(partition_rows(10, 4))
    owner = fab.owner_of_dof(np.arange(30))
    for dof in range(30):
        r = int(owner[dof])
        lo, hi = fab.dof_range(r)
        assert lo <= dof < hi
        # The three rows of a node have one owner.
        assert owner[3 * (dof // 3)] == r
    assert owner.tolist() == [fab.owner_of_dof(np.array([dof]))[0]
                              for dof in range(30)]


def test_partition_more_ranks_than_nodes_rejected():
    with pytest.raises(ValueError):
        partition_rows(3, 5)


# -- storage layouts ---------------------------------------------------------

def test_lower_storage_keeps_lower_triangle(rng):
    rows, a = random_symmetric_sparse(rng, 8)
    m = LowerSymmetricRows.from_symmetric_rows([row_block(rows, 8)], 8)
    np.testing.assert_array_equal(dense(m), a)
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
    or stop short are rejected, naming the row where coverage breaks."""
    rows, _ = random_symmetric_sparse(rng, 9)
    split = [row_block(rows[:3], 9), row_block([], 9, 3),
             row_block(rows[3:], 9, 3)]
    for build in (RedundantRows.from_rows,
                  LowerSymmetricRows.from_symmetric_rows):
        whole = build([row_block(rows, 9)], 9)
        stacked = build(split, 9)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(stacked, name), getattr(whole, name))
        for blocks, message in (
                ([row_block(rows[:3], 9), row_block(rows[4:], 9, 4)],
                 "row block 1 starts at row 4, expected 3"),
                ([row_block(rows[:4], 9), row_block(rows[3:], 9, 3)],
                 "row block 1 starts at row 3, expected 4"),
                ([row_block(rows[:8], 9)], "row blocks end at row 8, expected 9"),
                ([row_block(rows[1:], 9, 1)],
                 "row block 0 starts at row 1, expected 0")):
            with pytest.raises(SparseFormatError, match=f"^{message}$"):
                build(blocks, 9)


def test_stacked_storage_is_read_only_and_leaves_the_blocks_writable(rng):
    """Either storage stacks its blocks into new read-only arrays, which
    back the system all ranks share; the caller's blocks stay writable,
    and writing them leaves the stacked matrix as it was."""
    rows, _ = random_symmetric_sparse(rng, 9)
    blocks = [row_block(rows[:4], 9), row_block(rows[4:], 9, 4)]
    for build in (RedundantRows.from_rows,
                  LowerSymmetricRows.from_symmetric_rows):
        m = build(blocks, 9)
        before = m.data.copy()
        for arr in (m.indptr, m.indices, m.data):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]
        for blk in blocks:
            assert blk.indptr.flags.writeable and blk.indices.flags.writeable
            blk.data[0] += 1.0
        assert np.array_equal(m.data, before)


def test_lower_storage_rejects_upper_entries():
    with pytest.raises(SparseFormatError, match="row 0"):
        LowerSymmetricRows(2, [0, 1, 2], [1, 1], [1.0, 2.0])
    # Row 2 repeats a column; rows 0 and 1 are valid.
    with pytest.raises(SparseFormatError, match="row 2"):
        LowerSymmetricRows(3, [0, 1, 3, 5], [0, 0, 1, 1, 1], np.ones(5))


def _first_row_not_lower_loop(indptr, indices):
    """Row of the first entry above the diagonal or not right of the one
    before it in its row, or None."""
    for i in range(len(indptr) - 1):
        cols = indices[indptr[i]:indptr[i + 1]]
        for k, c in enumerate(cols):
            if c > i or (k and c <= cols[k - 1]):
                return i
    return None


def test_lower_storage_names_the_first_bad_row_in_any_chunk(rng, monkeypatch):
    """One row with an entry above its diagonal and another with a column
    not right of the one before it, either first, fail naming the lower
    row, however validation chunks cut the entries (also between the
    two entries of the bad pair)."""
    from hexwave import sparse
    rows, _ = random_symmetric_sparse(rng, 12)
    lower = [(c[c <= i], v[c <= i]) for i, (c, v) in enumerate(rows)]
    lower[3] = (lower[3][0][:0], lower[3][1][:0])          # an empty row
    base = row_block(lower, 12)
    for upper_row, pair_row in ((5, 9), (9, 5), (0, 11)):
        cols = [list(c) for c, _ in lower]
        cols[upper_row][-1] = upper_row + 1
        if len(cols[pair_row]) < 2:
            cols[pair_row] = [0, 0]
        cols[pair_row][1] = cols[pair_row][0]
        indptr = np.append(0, np.cumsum([len(c) for c in cols]))
        indices = np.concatenate(cols)
        expect = _first_row_not_lower_loop(indptr, indices)
        assert expect == min(upper_row, pair_row)
        for chunk in (1, 2, 3, 5, 8, len(indices)):
            monkeypatch.setattr(sparse, "_CHUNK", chunk)
            with pytest.raises(SparseFormatError,
                               match=f"^row {expect}: columns must be "
                                     "strictly increasing and <= row$"):
                LowerSymmetricRows(12, indptr, indices, np.ones(len(indices)))
            assert base.first_row_not_lower() is None


def test_entry_rows_of_any_range_and_lower_part(rng, monkeypatch):
    """``entry_rows(s, e)`` is the slice [s, e) of every entry's row, an
    empty row and a range past the end included; ``lower()`` keeps the
    entries on or below the diagonal, and is the block itself once it
    holds only those."""
    from hexwave import sparse
    m, rows = _irregular_block(rng)
    every = np.concatenate([np.full(len(c), 4 + i)
                            for i, (c, _) in enumerate(rows)])
    assert np.array_equal(m.entry_rows(), every)
    for s in range(m.nnz + 1):
        for e in range(s, m.nnz + 3):
            assert np.array_equal(m.entry_rows(s, e), every[s:e])
    for chunk in (1, 7, sparse._CHUNK):
        monkeypatch.setattr(sparse, "_CHUNK", chunk)
        low = m.lower()
        assert_same_csr(low, m.select(m.indices <= every))
        assert low.lower() is low


def test_to_redundant_matches_dense(rng):
    rows, a = random_symmetric_sparse(rng, 9)
    lower = LowerSymmetricRows.from_symmetric_rows([row_block(rows, 9)], 9)
    full = to_redundant(lower)
    np.testing.assert_array_equal(dense(full), a)
    ref = RedundantRows.from_rows([row_block(rows, 9)], 9)
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(full, name), getattr(ref, name))


def test_diagonal_matches_dense_on_every_layout(rng, monkeypatch):
    """Also when chunks of entries cut rows."""
    from hexwave import sparse
    rows, a = random_symmetric_sparse(rng, 10)
    # Row 4 keeps its off-diagonal entries but stores no diagonal.
    cols, vals = rows[4]
    rows[4] = (cols[cols != 4], vals[cols != 4])
    a[4, 4] = 0.0
    assert len(rows[4][0]) > 0
    for chunk in (3, sparse._CHUNK):
        monkeypatch.setattr(sparse, "_CHUNK", chunk)
        for m in (LowerSymmetricRows.from_symmetric_rows(
                      [row_block(rows, 10)], 10),
                  RedundantRows.from_rows([row_block(rows, 10)], 10)):
            np.testing.assert_array_equal(m.diagonal(), np.diag(dense(m)))
            np.testing.assert_array_equal(m.diagonal(), np.diag(a))


def _irregular_block(rng):
    """Rows [4, 12) of a random 15 x 15 pattern as one row block: row 6
    stores nothing and column 9 no entry below its diagonal."""
    rows, _ = random_symmetric_sparse(rng, 15, density=0.4)
    rows = rows[4:12]
    rows[2] = (rows[2][0][:0], rows[2][1][:0])
    for i in (10, 11):
        cols, vals = rows[i - 4]
        rows[i - 4] = (cols[cols != 9], vals[cols != 9])
    return row_block(rows, 15, row_start=4), rows


def test_rows_select_and_below_by_column_match_entry_loops(rng):
    m, rows = _irregular_block(rng)
    assert np.diff(m.indptr)[6 - 4] == 0
    sub = m.rows(6, 10)
    assert_same_csr(sub, row_block(rows[2:6], 15, row_start=6))
    assert np.shares_memory(sub.data, m.data)
    for keep in (rng.random(m.nnz) < 0.5, np.zeros(m.nnz, dtype=bool),
                 np.ones(m.nnz, dtype=bool)):
        assert_same_csr(m.select(keep),
                        row_block(select_loop(m, keep), 15, row_start=4))
    for lo, hi in ((0, 15), (3, 10), (9, 10), (7, 7)):
        entries, entry_rows, ptr = m.below_by_column(lo, hi)
        assert len(ptr) == hi - lo + 1 and ptr[0] == 0
        assert ptr[-1] == len(entries) == len(entry_rows)
        got = [list(zip(entries[ptr[k]:ptr[k + 1]].tolist(),
                        entry_rows[ptr[k]:ptr[k + 1]].tolist()))
               for k in range(hi - lo)]
        assert got == below_by_column_loop(m, lo, hi)
    assert len(m.below_by_column(9, 10)[0]) == 0
    assert len(m.below_by_column(0, 15)[0]) > 0


def test_byte_accounting(rng):
    rows, _ = random_symmetric_sparse(rng, 6)
    m = RedundantRows.from_rows([row_block(rows, 6)], 6)
    assert m.value_bytes() == 16 * m.nnz
    v = SparseVector.from_segment(0, np.array([0, 1 + 1j, 0, 2.0]), 4)
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
    fab = CommFabric(partition_rows(nodes, ranks))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    total = np.zeros(n, dtype=np.complex128)
    for r in range(ranks):
        sv = spmv_partial(m, fab, r, x)
        np.add.at(total, sv.indices, sv.values)
    np.testing.assert_allclose(total, dense @ x, rtol=1e-13)


def test_redundant_partial_is_owned_segment(rng):
    nodes = 4
    rows, dense = random_symmetric_sparse(rng, 12)
    m = RedundantRows.from_rows([row_block(rows, 12)], 12)
    fab = CommFabric(partition_rows(nodes, 2))
    x = rng.standard_normal(12) + 0j
    sv = spmv_partial(m, fab, 1, x)
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
        fab = CommFabric(partition_rows(nodes, ranks))
        got = np.zeros(18, dtype=np.complex128)
        for r in range(ranks):
            sv = spmv_partial(m, fab, r, x)
            got[sv.indices] = sv.values
        # np.array_equal: bitwise, not approximate
        assert np.array_equal(got, ref)


def test_redundant_product_bits_do_not_depend_on_block_size(rng):
    """One rank's gather holds more than 16,384 entries (256 KiB, where
    NumPy starts reusing temporaries), each of two ranks' fewer; the row
    products are bitwise the same."""
    n = 400
    rows, _ = random_symmetric_sparse(rng, n, density=0.08)
    m = RedundantRows.from_rows([row_block(rows, n)], n)
    one = CommFabric(np.array([0, n]))
    two = CommFabric(np.array([0, n // 2, n]))
    assert m.nnz > 16384 and m.indptr[n // 2] < 16384
    assert m.nnz - m.indptr[n // 2] < 16384
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref, got = (np.zeros(n, dtype=np.complex128) for _ in range(2))
    sv = spmv_partial(m, one, 0, x)
    ref[sv.indices] = sv.values
    for r in range(2):
        sv = spmv_partial(m, two, r, x)
        got[sv.indices] = sv.values
    assert same_bits(got, ref)


@pytest.mark.parametrize("length", [11, 13])
def test_spmv_partial_rejects_a_vector_of_another_length(rng, length):
    """The vector must have one entry per row of the fabric's layout."""
    rows, _ = random_symmetric_sparse(rng, 12)
    m = RedundantRows.from_rows([row_block(rows, 12)], 12)
    fab = CommFabric(np.array([0, 6, 12]))
    with pytest.raises(ValueError, match=f"vector length {length} != 12"):
        spmv_partial(m, fab, 1, np.ones(length, dtype=complex))


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


def _assert_lower_spmv_matches_oracle(m, fab, x) -> None:
    """Every rank's partial product, and the full product, are bitwise
    the mask-and-gather oracle's."""
    for r in range(fab.ranks):
        lo, hi = fab.dof_range(r)
        ref = SparseVector.from_segment(0, masked_lower_matvec(m, lo, hi, x),
                                        m.n)
        got = spmv_partial(m, fab, r, x)
        assert same_bits(got.indices, ref.indices), r
        assert same_bits(got.values, ref.values), r
    assert same_bits(full_matvec(m, x), masked_lower_matvec(m, 0, m.n, x))


@pytest.mark.parametrize("ranks", [1, 2, 3])
def test_lower_spmv_bitwise_equals_masked_oracle(rng, ranks):
    nodes = 7
    n = 3 * nodes
    rows, _ = random_symmetric_sparse(rng, n, density=0.4)
    m = LowerSymmetricRows.from_symmetric_rows([row_block(rows, n)], n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    _assert_lower_spmv_matches_oracle(
        m, CommFabric(partition_rows(nodes, ranks)), x)


def test_lower_spmv_oracle_on_row_without_diagonal_and_empty_row(rng):
    """Row 1 stores no diagonal, row 2 stores nothing; a second matrix of
    the same size has another pattern."""
    n = 5
    indptr = [0, 1, 2, 2, 5, 8]
    indices = [0, 0, 0, 1, 3, 2, 3, 4]
    data = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    other = LowerSymmetricRows(n, [0, 1, 3, 4, 6, 7], [0, 0, 1, 2, 1, 3, 4],
                               rng.standard_normal(7) + 1j)
    m = LowerSymmetricRows(n, indptr, indices, data)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for ranks in (1, 2, 3):
        fab = CommFabric(split_rows(n, ranks))
        _assert_lower_spmv_matches_oracle(m, fab, x)
        _assert_lower_spmv_matches_oracle(other, fab, x)


def test_lower_full_product_keeps_a_negative_zero_row():
    """Row 0's own product is -0.0 + 0j, and its diagonal's transpose
    leaves it so (adding +0.0 there would give +0.0).  ``spmv_partial``
    drops zero entries, so only the full product can show it."""
    m = LowerSymmetricRows(2, [0, 1, 2], [0, 1], [-1 + 0j, 3 + 0j])
    x = np.array([0, 1 + 1j])
    got = full_matvec(m, x)
    assert same_bits(got, masked_lower_matvec(m, 0, 2, x))
    assert np.signbit(got[0].real)


def test_lower_spmv_oracle_on_empty_box_system():
    """The storage-1 system of the 8000-node empty box that the
    ``empty-dp-p2`` benchmark workload solves on two ranks."""
    sc = Scenario(extent=(1.0, 1.0, 1.0), nodes_per_wavelength=20,
                  direction=(0.0, 0.0, 1.0), polarization=(1.0, 0.0, 0.0),
                  ranks=2, storage="1")
    mesh = build_scenario_mesh(sc)
    fab = CommFabric(partition_rows(mesh.node_count, 2))
    out = run_spmd(fab, lambda f, r: assemble_system(sc, mesh, r, f))
    m = out[0][0]
    assert isinstance(m, LowerSymmetricRows) and m.n == 24_000
    rng = np.random.default_rng(5)
    x = rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n)
    _assert_lower_spmv_matches_oracle(m, fab, x)


def test_sparse_vector_filters_zeros():
    sv = SparseVector.from_segment(2, np.array([0, 1.0, 0, 2.0]), 10)
    np.testing.assert_array_equal(sv.indices, [3, 5])
    assert sv.payload_bytes() == 2 * (INDEX_BYTES + COMPLEX_BYTES)


# -- distinct keys by one sort ------------------------------------------------

def _assert_unique_is_numpys(keys):
    """Values, first indices, inverse and counts equal np.unique's; the
    plain values too, up to the sign of a zero (either zero may come
    first from an unstable sort)."""
    ref = np.unique(keys, axis=0, return_index=True, return_inverse=True,
                    return_counts=True)
    got = _unique(keys, index=True)
    assert len(got) == len(ref)
    for name, g, r in zip(("values", "first", "inverse", "counts"), got, ref):
        assert same_bits(g, r.reshape(g.shape)), name
    plain = _unique(keys)
    assert plain.dtype == ref[0].dtype and np.array_equal(plain, ref[0])


@pytest.mark.parametrize("keys", [
    np.array([], dtype=np.int64),
    np.zeros((0, 4), dtype=np.int64),
    np.array([7], dtype=np.int64),
    np.array([[3.5, -1.0]]),
    np.full(9, 4, dtype=np.int64),
    np.full((6, 3), 2.0),
    np.array([[1, 2], [0, 5], [1, 2], [0, 4], [1, 2], [0, 5]]),
], ids=["empty", "empty-rows", "one", "one-row", "all-equal",
        "all-equal-rows", "rows-with-ties"])
def test_unique_edge_cases_match_numpy(keys):
    _assert_unique_is_numpys(keys)


def test_unique_first_index_is_the_lowest():
    """Members of a group come in index order, so every value's first
    index is its lowest: the rows that build a cached block."""
    keys = np.array([[2, 0], [1, 1], [2, 0], [1, 1], [0, 9], [2, 0]])
    values, first, inverse, counts = _unique(keys, index=True)
    assert values.tolist() == [[0, 9], [1, 1], [2, 0]]
    assert first.tolist() == [4, 1, 0]
    assert inverse.tolist() == [2, 1, 2, 1, 0, 2]
    assert counts.tolist() == [1, 2, 3]
    for k in range(len(values)):
        assert first[k] == np.flatnonzero(inverse == k).min()


@pytest.mark.parametrize("seed", range(4))
def test_unique_matches_numpy_on_random_keys(seed):
    """int64 and float keys, 1-D and rows, with many ties; the float
    keys hold both zeros, which compare equal."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    _assert_unique_is_numpys(rng.integers(-2**40, 2**40, n))
    _assert_unique_is_numpys(rng.integers(-3, 4, n))
    _assert_unique_is_numpys(rng.integers(0, 3, (n, 4)))
    floats = rng.choice([-0.0, 0.0, 1.5, -2.25, 1e300], n)
    _assert_unique_is_numpys(floats)
    _assert_unique_is_numpys(np.column_stack(
        [floats, rng.choice([0.5, -0.5], n), rng.standard_normal(n)]))


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
    write_matrix_market(path, m)
    assert path.read_text().startswith(
        f"%%MatrixMarket matrix coordinate complex symmetric\n7 7 {m.nnz}\n")
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

