"""Preconditioners, triangular solves and the conjugate gradient loop."""
from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
import scipy.linalg

from hexwave import runner, solver
from hexwave.fabric import CommFabric, run_spmd
from hexwave.mesh import ScattererSpec
from hexwave.runner import Scenario, run_scenario
from hexwave.solver import (CholeskyFactor, FactorBreakdownError,
                            Preconditioner, SingularPreconditionerError,
                            _row_destinations, build_bicp, build_dp,
                            build_icp, cg_solve, forward_back_substitute)
from hexwave.sparse import (LowerSymmetricRows, RedundantRows, RowPartition,
                            partition_rows, to_redundant)

from conftest import (csr_from_rows, dense_ic_oracle, entry_loop_ic,
                      phase_traffic, random_symmetric_sparse, row_block)


def _one_rank(n):
    return RowPartition(node_starts=np.array([0, n]), dofs_per_node=1)


def _split(starts):
    return RowPartition(node_starts=np.asarray(starts), dofs_per_node=1)


def _redundant(dense):
    n = dense.shape[0]
    rows = []
    for i in range(n):
        cols = np.nonzero(dense[i])[0]
        rows.append((cols.astype(np.int64), dense[i, cols].astype(complex)))
    return RedundantRows.from_rows([row_block(rows, n)], n)


# -- diagonal preconditioner -------------------------------------------------

def test_dp_is_inverse_diagonal(rng):
    rows, dense = random_symmetric_sparse(rng, 9)
    m = RedundantRows.from_rows([row_block(rows, 9)], 9)
    p = build_dp(m)
    np.testing.assert_allclose(p.inv_diag, 1.0 / np.diag(dense), rtol=1e-15)
    assert p.memory_bytes() == 16 * 9


def test_dp_zero_diagonal_named_in_error():
    dense = np.eye(4, dtype=complex)
    dense[2, 2] = 0.0
    with pytest.raises(SingularPreconditionerError, match="row 2"):
        build_dp(_redundant(dense))


def test_dp_row_without_stored_diagonal_named_in_error():
    """Row 1 stores off-diagonal entries but no diagonal at all."""
    dense = np.array([[2, 1, 0], [1, 0, 3], [0, 3, 4]], dtype=complex)
    m = _redundant(dense)
    assert 1 not in m.row(1)[0]
    with pytest.raises(SingularPreconditionerError, match="row 1"):
        build_dp(m)


# -- incomplete factorization ------------------------------------------------

def test_icp_dense_spd_equals_cholesky(rng):
    m = rng.standard_normal((20, 20))
    a = m @ m.T + 20 * np.eye(20)
    ar = _redundant(a.astype(complex))
    factor = build_icp(ar, _one_rank(20), 0, CommFabric(1))
    assert np.abs(factor.to_dense() - np.linalg.cholesky(a)).max() < 1e-14


def test_icp_sparse_matches_dense_zero_fill_oracle(rng):
    rows, dense = random_symmetric_sparse(rng, 15, density=0.25,
                                          diag_boost=10.0)
    ar = RedundantRows.from_rows([row_block(rows, 15)], 15)
    factor = build_icp(ar, _one_rank(15), 0, CommFabric(1))
    ref = dense_ic_oracle(dense)
    assert np.abs(factor.to_dense() - ref).max() < 1e-13


def test_icp_zero_pivot_aborts_with_column():
    dense = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    # second pivot: 1 - 1*1 = 0
    with pytest.raises(FactorBreakdownError, match="column 1"):
        build_icp(_redundant(dense), _one_rank(2), 0, CommFabric(1))


def test_icp_complex_pivot_principal_branch():
    dense = np.array([[-4.0 + 0j]])
    f = build_icp(_redundant(dense), _one_rank(1), 0, CommFabric(1))
    assert f.data[0] == pytest.approx(2j)   # principal branch of sqrt(-4)


@pytest.mark.parametrize("ranks", [2, 3, 4])
def test_icp_parallel_bitwise_equals_serial(rng, ranks):
    rows, dense = random_symmetric_sparse(rng, 12, density=0.35)
    ar = RedundantRows.from_rows([row_block(rows, 12)], 12)
    serial = build_icp(ar, _one_rank(12), 0, CommFabric(1))
    part = partition_rows(12, ranks)
    part = RowPartition(node_starts=part.node_starts, dofs_per_node=1)
    out = run_spmd(ranks, lambda f, r: build_icp(ar, part, r, f),
                   fabric=CommFabric(ranks))
    for factor in out:
        assert np.array_equal(factor.data, serial.data)
        assert np.array_equal(factor.indices, serial.indices)


def test_icp_pipeline_barrier_count_matches_column_count(rng):
    """n columns + the final insertion step."""
    rows, _ = random_symmetric_sparse(rng, 9, density=0.4)
    ar = RedundantRows.from_rows([row_block(rows, 9)], 9)
    part = _split([0, 3, 6, 9])
    fab = CommFabric(3)
    run_spmd(3, lambda f, r: build_icp(ar, part, r, f), fabric=fab)
    assert fab.barrier_collectives == 9 + 1


def test_icp_four_by_four_on_three_ranks_five_steps():
    """Dense lower 4x4 pattern split 2/1/1 over three ranks builds in
    five collective steps and equals the dense Cholesky factor."""
    a = np.array([[4.0, 1, 1, 1],
                  [1, 4, 1, 1],
                  [1, 1, 4, 1],
                  [1, 1, 1, 4]], dtype=complex)
    ar = _redundant(a)
    part = _split([0, 2, 3, 4])
    fab = CommFabric(3)
    out = run_spmd(3, lambda f, r: build_icp(ar, part, r, f), fabric=fab)
    assert fab.barrier_collectives == 5
    assert out[0] is out[1] is out[2]      # one shared factor
    assert np.abs(out[0].to_dense() - np.linalg.cholesky(a.real)).max() < 1e-14


def test_bicp_single_rank_is_icp_bitwise(rng):
    rows, _ = random_symmetric_sparse(rng, 12, density=0.3)
    ar = RedundantRows.from_rows([row_block(rows, 12)], 12)
    part = _one_rank(12)
    icp = build_icp(ar, part, 0, CommFabric(1))
    bicp = build_bicp(ar, part, 0)
    assert np.array_equal(icp.indices, bicp.indices)
    assert np.array_equal(icp.data, bicp.data)
    assert np.array_equal(icp.indptr, bicp.indptr)


def test_bicp_blocks_match_per_block_oracle(rng):
    rows, dense = random_symmetric_sparse(rng, 12, density=0.4)
    ar = RedundantRows.from_rows([row_block(rows, 12)], 12)
    part = _split([0, 4, 8, 12])
    for r in range(3):
        lo, hi = part.dof_range(r)
        factor = build_bicp(ar, part, r)
        assert factor.block_local
        ref = dense_ic_oracle(dense[lo:hi, lo:hi])
        got = factor.to_dense()[lo:hi, lo:hi]
        assert np.abs(got - ref).max() < 1e-13
        # Row lookups and the diagonal use global row numbers.
        cols, vals = factor.row(hi - 1)
        np.testing.assert_array_equal(vals, got[-1, cols - lo])
        np.testing.assert_array_equal(factor.diagonal()[lo:hi], np.diag(got))


def test_bicp_needs_no_messages(rng):
    rows, _ = random_symmetric_sparse(rng, 9, density=0.4)
    ar = RedundantRows.from_rows([row_block(rows, 9)], 9)
    part = _split([0, 3, 6, 9])
    fab = CommFabric(3)
    run_spmd(3, lambda f, r: build_bicp(ar, part, r), fabric=fab)
    assert fab.counters_report()["totals"]["messages"] == 0


# -- factor builds on either storage -----------------------------------------

def _lower(m: RedundantRows) -> LowerSymmetricRows:
    return LowerSymmetricRows.from_symmetric_rows([m], m.n)


def _other_layout(m):
    return to_redundant(m) if isinstance(m, LowerSymmetricRows) else _lower(m)


def _dof_split(n, ranks):
    return RowPartition(node_starts=partition_rows(n, ranks).node_starts,
                        dofs_per_node=1)


@pytest.mark.parametrize("ranks", [1, 2, 3])
def test_factor_builds_equal_on_either_storage(rng, ranks):
    """Both builds read only the lower triangle, so storage #1 and #2
    give bitwise the same factors and the same build traffic."""
    rows, _ = random_symmetric_sparse(rng, 15, density=0.35)
    full = RedundantRows.from_rows([row_block(rows, 15)], 15)
    part = _dof_split(15, ranks)
    built = []
    for a in (full, _lower(full)):
        fab = CommFabric(ranks)
        icp = run_spmd(ranks, lambda f, r: build_icp(a, part, r, f),
                       fabric=fab)[0]
        bicp = [build_bicp(a, part, r) for r in range(ranks)]
        built.append(([icp] + bicp, fab.counters_report()))
    (factors2, counters2), (factors1, counters1) = built
    assert counters1 == counters2
    for f1, f2 in zip(factors1, factors2):
        for name in ("indptr", "indices", "data", "col_ptr", "col_pos"):
            assert np.array_equal(getattr(f1, name), getattr(f2, name))


@pytest.mark.parametrize("ranks", [2, 3, 5])
def test_row_destinations_match_column_loop(rng, ranks):
    """Column j's destinations are the owners of its stored rows below
    the diagonal, ascending, on either storage."""
    rows, dense = random_symmetric_sparse(rng, 20, density=0.25)
    full = RedundantRows.from_rows([row_block(rows, 20)], 20)
    part = _dof_split(20, ranks)
    owner = part.owner_of_dof(np.arange(20))
    for a in (full, _lower(full)):
        for r in range(ranks):
            lo, hi = part.dof_range(r)
            ptr, dest = _row_destinations(a, owner, ranks, lo, hi)
            assert len(ptr) == hi - lo + 1 and ptr[-1] == len(dest)
            for j in range(lo, hi):
                below = j + 1 + np.nonzero(dense[j + 1:, j])[0]
                assert (dest[ptr[j - lo]:ptr[j - lo + 1]].tolist()
                        == sorted(set(owner[below].tolist())))


def _grid_scenario(**kw) -> Scenario:
    # 4 x 4 x 5 nodes with a one-by-one-by-two-element PEC box: 80 nodes
    # before the box, 240 unknowns.
    return Scenario(extent=(1.0, 1.0, 1.25), nodes_per_wavelength=4,
                    scatterer=ScattererSpec(corner_min=(0.25, 0.25, 0.25),
                                            corner_max=(0.5, 0.5, 0.75)),
                    direction=(0.0, 0.0, 1.0), polarization=(1.0, 0.0, 0.0),
                    **kw)


@pytest.mark.parametrize("storage", ["1", "2"])
@pytest.mark.parametrize("ranks", [1, 2, 3])
@pytest.mark.parametrize("precond", ["icp", "bicp"])
def test_run_factor_from_either_storage_identical(monkeypatch, precond,
                                                  ranks, storage):
    """A run whose factor is built from the stored layout equals, bitwise
    and count for count, one whose factor is built from the other."""
    sc = _grid_scenario(preconditioner=precond, ranks=ranks, storage=storage)
    direct = run_scenario(sc)
    for name in ("build_icp", "build_bicp"):
        build = getattr(solver, name)
        monkeypatch.setattr(runner, name, lambda a, *args, _b=build:
                            _b(_other_layout(a), *args))
    other = run_scenario(sc)
    assert direct.solution.tobytes() == other.solution.tobytes()
    assert direct.report.iterations == other.report.iterations
    assert direct.report.counters == other.report.counters
    assert direct.precond_total_bytes == other.precond_total_bytes


# Precond-build traffic of ``_grid_scenario`` with icp, either storage:
# messages and bytes per rank, and total barriers of the run (the
# build's n + 1 = 241 plus the system join and the precond-bytes gather).
ICP_BUILD_TRAFFIC = {
    2: ([60, 0], [42408, 0], 243),
    3: ([63, 63, 0], [31752, 40824, 0], 243),
    5: ([48, 48, 48, 48, 0], [11376, 32976, 31680, 32112, 0], 243),
}


@pytest.mark.parametrize("storage", ["1", "2"])
@pytest.mark.parametrize("ranks", sorted(ICP_BUILD_TRAFFIC))
def test_precond_build_traffic_pinned(ranks, storage):
    counters = {}
    for precond in ("icp", "bicp"):
        report = run_scenario(_grid_scenario(
            preconditioner=precond, ranks=ranks, storage=storage)).report
        build = [[c for c in per_rank if c["phase"] == "precond-build"]
                 for per_rank in report.counters["per_rank"]]
        counters[precond] = (
            [sum(c["messages"] for c in b) for b in build],
            [sum(c["bytes"] for c in b) for b in build],
            report.counters["totals"]["barriers"])
    assert counters["icp"] == ICP_BUILD_TRAFFIC[ranks]
    assert counters["bicp"] == ([0] * ranks, [0] * ranks, 2)


# -- column-batched kernel against the per-entry loop ------------------------

def _kernel_system(rng, kind, storage):
    """``(matrix, partition maker)`` of a random pattern whose column 5
    no row below touches, or of the 240-unknown grid system."""
    if kind == "grid":
        sc = _grid_scenario(storage=storage)
        mesh = runner.build_scenario_mesh(sc)
        nodes = mesh.node_count
        a, _ = runner.assemble_system(sc, mesh, partition_rows(nodes, 1), 0,
                                      CommFabric(1))
        return a, lambda ranks: partition_rows(nodes, ranks)
    _, dense = random_symmetric_sparse(rng, 30, density=0.12,
                                       diag_boost=10.0)
    dense[6:, 5] = dense[5, 6:] = 0.0
    a = _redundant(dense)
    return (a if storage == "2" else _lower(a)), lambda r: _dof_split(30, r)


def _oracle_factor(a, lo, hi, block_local=False):
    return CholeskyFactor(a.n, lo, hi,
                          *csr_from_rows(entry_loop_ic(a, lo, hi), hi - lo),
                          block_local=block_local)


def _assert_kernel_edge_cases(a, part):
    """Some row starts its lower part off the diagonal (an empty prefix),
    and with several ranks some rank holds rows below a column that other
    ranks' rows touch but none of its own do."""
    rows = a.entry_rows()
    below = a.indices < rows
    first = a.indices[np.searchsorted(rows, np.arange(a.n))]
    assert (first < np.arange(a.n)).any()
    owner = part.owner_of_dof(rows[below])
    touched = set(zip(owner.tolist(), a.indices[below].tolist()))
    skipped = [(r, j) for _, j in touched for r in range(part.ranks)
               if part.dof_range(r)[1] - 1 > j and (r, j) not in touched]
    assert part.ranks == 1 or skipped


def _assert_same_factor(got, ref):
    """Pattern and column twin bitwise; values to 1e-12 normwise, since
    the kernel sums each prefix in another order than ``np.dot``."""
    for name in ("indptr", "indices", "col_ptr", "col_rows", "col_pos"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert got.block_local == ref.block_local
    gap = np.linalg.norm(got.data - ref.data) / np.linalg.norm(ref.data)
    assert gap <= 1e-12


@pytest.mark.parametrize("storage", ["1", "2"])
@pytest.mark.parametrize("kind", ["random", "grid"])
@pytest.mark.parametrize("ranks", [1, 2, 3, 5])
def test_icp_kernel_matches_entry_loop(rng, ranks, kind, storage):
    a, split = _kernel_system(rng, kind, storage)
    part = split(ranks)
    _assert_kernel_edge_cases(a, part)
    out = run_spmd(ranks, lambda f, r: build_icp(a, part, r, f),
                   fabric=CommFabric(ranks))
    _assert_same_factor(out[0], _oracle_factor(a, 0, a.n))


@pytest.mark.parametrize("storage", ["1", "2"])
@pytest.mark.parametrize("kind", ["random", "grid"])
@pytest.mark.parametrize("ranks", [1, 3])
def test_bicp_kernel_matches_entry_loop(rng, ranks, kind, storage):
    a, split = _kernel_system(rng, kind, storage)
    part = split(ranks)
    _assert_kernel_edge_cases(a, part)
    for r in range(ranks):
        lo, hi = part.dof_range(r)
        _assert_same_factor(build_bicp(a, part, r),
                            _oracle_factor(a, lo, hi, block_local=ranks > 1))


@pytest.mark.parametrize("storage", ["1", "2"])
def test_factor_builds_name_first_row_without_diagonal(storage):
    """Rows 2 and 4 store an entry left of the diagonal but no diagonal;
    every build names the first such row among the rows it factors."""
    dense = (4.0 * np.eye(6) + np.eye(6, k=1) + np.eye(6, k=-1)).astype(complex)
    dense[2, 2] = dense[4, 4] = 0.0
    a = _redundant(dense) if storage == "2" else _lower(_redundant(dense))
    whole, halves = _one_rank(6), _split([0, 3, 6])
    with pytest.raises(FactorBreakdownError, match="missing diagonal in row 2"):
        build_icp(a, whole, 0, CommFabric(1))
    for part in (halves, _split([0, 2, 6])):
        with pytest.raises(FactorBreakdownError,
                           match="missing diagonal in row 2"):
            run_spmd(2, lambda f, r: build_icp(a, part, r, f),
                     fabric=CommFabric(2, timeout=10.0))
    with pytest.raises(FactorBreakdownError, match="missing diagonal in row 2"):
        build_bicp(a, whole, 0)
    with pytest.raises(FactorBreakdownError, match="missing diagonal in row 4"):
        build_bicp(a, halves, 1)


# -- triangular solves -------------------------------------------------------

def test_substitution_matches_scipy(rng):
    m = rng.standard_normal((15, 15))
    a = m @ m.T + 15 * np.eye(15)
    ar = _redundant(a.astype(complex))
    part = _one_rank(15)
    factor = build_icp(ar, part, 0, CommFabric(1))
    b = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    x = forward_back_substitute(factor, b, part, 0, CommFabric(1))
    lo = np.linalg.cholesky(a)
    y_ref = scipy.linalg.solve_triangular(lo, b, lower=True)
    x_ref = scipy.linalg.solve_triangular(lo.T, y_ref, lower=False)
    np.testing.assert_allclose(x, x_ref, rtol=1e-12)


@pytest.mark.parametrize("ranks", [2, 3, 4])
def test_pipelined_substitution_bitwise_rank_invariant(rng, ranks):
    rows, _ = random_symmetric_sparse(rng, 12, density=0.4)
    ar = RedundantRows.from_rows([row_block(rows, 12)], 12)
    part1 = _one_rank(12)
    factor = build_icp(ar, part1, 0, CommFabric(1))
    b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    serial = forward_back_substitute(factor, b, part1, 0, CommFabric(1))
    part = partition_rows(12, ranks)
    part = RowPartition(node_starts=part.node_starts, dofs_per_node=1)
    fab = CommFabric(ranks)
    for r in range(ranks):
        fab.set_phase(r, "solve")
    out = run_spmd(
        ranks, lambda f, r: forward_back_substitute(factor, b, part, r, f),
        fabric=fab)
    for x in out:
        assert np.array_equal(x, serial)
    # one segment broadcast per rank per triangular solve
    assert phase_traffic(fab, "solve")[0] == 2 * ranks * (ranks - 1)


def test_block_substitution_is_block_exact(rng):
    rows, dense = random_symmetric_sparse(rng, 12, density=0.4)
    ar = RedundantRows.from_rows([row_block(rows, 12)], 12)
    part = _split([0, 6, 12])
    b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    fab = CommFabric(2)
    out = run_spmd(
        2,
        lambda f, r: forward_back_substitute(build_bicp(ar, part, r), b,
                                             part, r, f),
        fabric=fab)
    for r, lohi in enumerate([(0, 6), (6, 12)]):
        lo, hi = lohi
        lref = dense_ic_oracle(dense[lo:hi, lo:hi])
        # plain (unconjugated) transpose for the back solve
        xr = np.linalg.solve(lref.T, np.linalg.solve(lref, b[lo:hi]))
        np.testing.assert_allclose(out[0][lo:hi], xr, rtol=1e-10)


def _scipy_substitute(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with L L^T x = b, plain (unconjugated) transpose."""
    y = scipy.linalg.solve_triangular(lower, b, lower=True)
    return scipy.linalg.solve_triangular(lower.T, y, lower=False)


def test_level_counts_diagonal_and_tridiagonal():
    n = 7
    diag = build_icp(_redundant(4.0 * np.eye(n, dtype=complex)),
                     _one_rank(n), 0, CommFabric(1))
    forward, back = diag.schedule(0, n)
    assert (len(forward), len(back)) == (1, 1)
    tri = (4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)).astype(complex)
    chain = build_icp(_redundant(tri), _one_rank(n), 0, CommFabric(1))
    forward, back = chain.schedule(0, n)
    assert (len(forward), len(back)) == (n, n)
    assert [r.tolist() for r, *_ in forward] == [[i] for i in range(n)]
    assert [r.tolist() for r, *_ in back] == [[i] for i in range(n - 1, -1, -1)]


def test_level_solve_matches_scipy_full_factor(rng):
    rows, _ = random_symmetric_sparse(rng, 30, density=0.08, diag_boost=10.0)
    ar = RedundantRows.from_rows([row_block(rows, 30)], 30)
    part = _one_rank(30)
    factor = build_icp(ar, part, 0, CommFabric(1))
    forward, back = factor.schedule(0, 30)
    assert 3 <= len(forward) < 30 and 3 <= len(back) < 30
    b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    x = forward_back_substitute(factor, b, part, 0, CommFabric(1))
    np.testing.assert_allclose(x, _scipy_substitute(factor.to_dense(), b),
                               rtol=1e-12)


def test_level_solve_matches_scipy_block_local_factor(rng):
    rows, _ = random_symmetric_sparse(rng, 40, density=0.08, diag_boost=10.0)
    ar = RedundantRows.from_rows([row_block(rows, 40)], 40)
    part = _split([0, 20, 40])
    factors = [build_bicp(ar, part, r) for r in range(2)]
    for f in factors:
        assert f.block_local
        assert min(len(s) for s in f.schedule(f.row_start, f.row_end)) >= 3
    b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    out = run_spmd(
        2, lambda f, r: forward_back_substitute(factors[r], b, part, r, f),
        fabric=CommFabric(2))
    for f in factors:
        lo, hi = f.row_start, f.row_end
        ref = _scipy_substitute(f.to_dense()[lo:hi, lo:hi], b[lo:hi])
        np.testing.assert_allclose(out[0][lo:hi], ref, rtol=1e-12)
    assert np.array_equal(out[0], out[1])


def test_repeated_applies_bitwise_equal(rng):
    rows, _ = random_symmetric_sparse(rng, 20, density=0.2)
    ar = RedundantRows.from_rows([row_block(rows, 20)], 20)
    part = _one_rank(20)
    factor = build_icp(ar, part, 0, CommFabric(1))
    b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    first = forward_back_substitute(factor, b, part, 0, CommFabric(1))
    second = forward_back_substitute(factor, b, part, 0, CommFabric(1))
    assert np.array_equal(first, second)


def test_schedule_built_once_under_racing_threads(rng):
    rows, _ = random_symmetric_sparse(rng, 60, density=0.1, diag_boost=20.0)
    ar = RedundantRows.from_rows([row_block(rows, 60)], 60)
    factor = build_icp(ar, _one_rank(60), 0, CommFabric(1))
    got = []
    start = threading.Barrier(8)

    def schedule_segment():
        start.wait(timeout=30)
        got.append(factor.schedule(10, 50))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=schedule_segment) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8 and all(s is got[0] for s in got)


def test_zero_pivot_in_factor_named_at_schedule_build():
    n = 4
    indptr = np.array([0, 1, 3, 5, 7])
    indices = np.array([0, 0, 1, 1, 2, 2, 3])
    data = np.array([2, 1, 3, 1, 0, 1, 5], dtype=complex)   # L[2, 2] = 0
    factor = CholeskyFactor(n=n, row_start=0, row_end=n, indptr=indptr,
                            indices=indices, data=data)
    with pytest.raises(FactorBreakdownError, match="row 2"):
        forward_back_substitute(factor, np.ones(n, dtype=complex),
                                _one_rank(n), 0, CommFabric(1))


# -- conjugate gradient ------------------------------------------------------

def _cg_system(rng, n=18):
    rows, dense = random_symmetric_sparse(rng, n, density=0.3, diag_boost=9.0)
    ar = RedundantRows.from_rows([row_block(rows, n)], n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return ar, dense, b


def test_cg_dp_solves_to_tolerance(rng):
    ar, dense, b = _cg_system(rng)
    part = _one_rank(18)
    x, rep = cg_solve(ar, b, build_dp(ar), part, 0, CommFabric(1), tol=1e-10)
    assert rep.converged and not rep.breakdown
    assert rep.true_residual <= 1e-9
    np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-7)
    assert len(rep.residual_history) == rep.iterations + 1
    assert rep.residual_history[-1] <= 1e-10


def test_cg_exact_factor_converges_in_one_iteration(rng):
    m = rng.standard_normal((20, 20))
    a = m @ m.T + 20 * np.eye(20)
    ar = _redundant(a.astype(complex))
    part = _one_rank(20)
    factor = build_icp(ar, part, 0, CommFabric(1))
    b = rng.standard_normal(20).astype(complex)
    x, rep = cg_solve(ar, b, Preconditioner(kind="icp", factor=factor),
                      part, 0, CommFabric(1), tol=1e-10)
    assert rep.iterations == 1 and rep.converged


def test_cg_iteration_message_counts(rng):
    ar, _, b = _cg_system(rng)
    for ranks, concat, per_iter in ((2, "spmd", 2), (3, "spmd", 6),
                                    (3, "ms", 4)):
        part = partition_rows(18, ranks)
        part = RowPartition(node_starts=part.node_starts, dofs_per_node=1)
        fab = CommFabric(ranks)
        out = run_spmd(
            ranks,
            lambda f, r: cg_solve(ar, b, build_dp(ar), part, r, f,
                                  concat=concat, tol=1e-8),
            fabric=fab)
        rep = out[0][1]
        assert rep.converged
        msgs = phase_traffic(fab, "solve-iteration")[0]
        assert msgs == per_iter * rep.iterations


def test_cg_rank_count_does_not_change_iterates(rng):
    ar, _, b = _cg_system(rng)
    ref = None
    for ranks in (1, 2, 3, 6):
        part = partition_rows(18, ranks)
        part = RowPartition(node_starts=part.node_starts, dofs_per_node=1)
        out = run_spmd(
            ranks,
            lambda f, r: cg_solve(ar, b, build_dp(ar), part, r, f, tol=1e-8),
            fabric=CommFabric(ranks))
        x, rep = out[0]
        if ref is None:
            ref = (x, rep.iterations)
        assert np.array_equal(x, ref[0])
        assert rep.iterations == ref[1]


def test_cg_strategy_equivalence_bitwise(rng):
    ar, _, b = _cg_system(rng)
    part = partition_rows(18, 3)
    part = RowPartition(node_starts=part.node_starts, dofs_per_node=1)
    sols = {}
    for concat in ("spmd", "ms"):
        out = run_spmd(
            3,
            lambda f, r: cg_solve(ar, b, build_dp(ar), part, r, f,
                                  concat=concat, tol=1e-8),
            fabric=CommFabric(3))
        sols[concat] = out[0][0]
    assert np.array_equal(sols["spmd"], sols["ms"])


def test_cg_breakdown_distinct_from_nonconvergence():
    dense = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    ar = _redundant(dense)
    part = _one_rank(2)
    b = np.array([1.0, 1.0], dtype=complex)
    x, rep = cg_solve(ar, b, build_dp(ar), part, 0, CommFabric(1), tol=1e-12)
    assert rep.breakdown and not rep.converged


def test_cg_nonconvergence_reported(rng):
    ar, _, b = _cg_system(rng)
    part = _one_rank(18)
    x, rep = cg_solve(ar, b, build_dp(ar), part, 0, CommFabric(1),
                      tol=1e-14, max_iter=2)
    assert not rep.converged and not rep.breakdown
    assert rep.iterations == 2


def test_cg_report_serializes(rng):
    import json
    ar, _, b = _cg_system(rng)
    part = _one_rank(18)
    _, rep = cg_solve(ar, b, build_dp(ar), part, 0, CommFabric(1), tol=1e-8)
    blob = json.loads(rep.to_json())
    assert blob["preconditioner"] == "dp"
    assert blob["iterations"] == rep.iterations
