"""Preconditioners, triangular solves and the conjugate gradient loop."""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from hexwave import runner, solver
from hexwave.fabric import CommFabric, run_spmd
from hexwave.mesh import ScattererSpec
from hexwave.runner import Scenario, run_scenario
from hexwave.solver import (CholeskyFactor, FactorBreakdownError,
                            Preconditioner, SingularPreconditionerError,
                            _RankFactor, _dot, _levels, _norm,
                            _row_destinations, _schedule_segment, build_bicp,
                            build_dp, build_icp, cg_solve)
from hexwave.sparse import (LowerSymmetricRows, RedundantRows, _CsrBase,
                            partition_rows, to_redundant)

from conftest import (column_loop_factor, csr_from_rows, dense,
                      dense_ic_oracle, entry_loop_ic, gather_level_substitute,
                      phase_traffic, random_symmetric_sparse, row_block,
                      same_bits, split_rows, substitute)


def _one_rank(n):
    """A fresh one-rank fabric over n rows."""
    return CommFabric(np.array([0, n]))


def _split(starts):
    """A fresh fabric whose rank r owns rows [starts[r], starts[r + 1])."""
    return CommFabric(np.asarray(starts))


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
    factor = build_icp(ar, 0, _one_rank(20))
    assert np.abs(dense(factor) - np.linalg.cholesky(a)).max() < 1e-14


def test_icp_sparse_matches_dense_zero_fill_oracle(rng):
    rows, a = random_symmetric_sparse(rng, 15, density=0.25,
                                      diag_boost=10.0)
    ar = RedundantRows.from_rows([row_block(rows, 15)], 15)
    factor = build_icp(ar, 0, _one_rank(15))
    ref = dense_ic_oracle(a)
    assert np.abs(dense(factor) - ref).max() < 1e-13


def test_icp_zero_pivot_aborts_with_column():
    dense = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    # second pivot: 1 - 1*1 = 0
    with pytest.raises(FactorBreakdownError, match="column 1"):
        build_icp(_redundant(dense), 0, _one_rank(2))


def test_icp_complex_pivot_principal_branch():
    dense = np.array([[-4.0 + 0j]])
    f = build_icp(_redundant(dense), 0, _one_rank(1))
    assert f.data[0] == pytest.approx(2j)   # principal branch of sqrt(-4)


@pytest.mark.parametrize("ranks", [2, 3, 4])
def test_icp_parallel_bitwise_equals_serial(rng, ranks):
    rows, dense = random_symmetric_sparse(rng, 12, density=0.35)
    ar = RedundantRows.from_rows([row_block(rows, 12)], 12)
    serial = build_icp(ar, 0, _one_rank(12))
    out = run_spmd(CommFabric(split_rows(12, ranks)),
                   lambda f, r: build_icp(ar, r, f))
    for factor in out:
        assert np.array_equal(factor.data, serial.data)
        assert np.array_equal(factor.indices, serial.indices)


def _longest_dependency_path(a: np.ndarray) -> int:
    """Columns on the longest chain j_0 < j_1 < ... with every
    a[j_(t+1), j_t] nonzero, found row by row on the dense matrix."""
    depth = []
    for i in range(a.shape[0]):
        depth.append(1 + max((depth[k] for k in range(i) if a[i, k] != 0),
                             default=0))
    return max(depth)


def test_icp_pipeline_barrier_count_is_level_count_plus_one(rng):
    """One step per dependency level + the final insertion step."""
    rows, a = random_symmetric_sparse(rng, 16, density=0.15)
    ar = RedundantRows.from_rows([row_block(rows, 16)], 16)
    fab = _split([0, 5, 11, 16])
    run_spmd(fab, lambda f, r: build_icp(ar, r, f))
    levels = _longest_dependency_path(a)
    assert 1 < levels < 16
    assert fab.barrier_collectives == levels + 1


def test_icp_four_by_four_on_three_ranks_five_steps():
    """Dense lower 4x4 pattern split 2/1/1 over three ranks builds in
    five collective steps and equals the dense Cholesky factor."""
    a = np.array([[4.0, 1, 1, 1],
                  [1, 4, 1, 1],
                  [1, 1, 4, 1],
                  [1, 1, 1, 4]], dtype=complex)
    ar = _redundant(a)
    fab = _split([0, 2, 3, 4])
    out = run_spmd(fab, lambda f, r: build_icp(ar, r, f))
    assert fab.barrier_collectives == 5
    assert out[0] is out[1] is out[2]      # one shared factor
    assert np.abs(dense(out[0]) - np.linalg.cholesky(a.real)).max() < 1e-14


def test_bicp_single_rank_is_icp_bitwise(rng):
    rows, _ = random_symmetric_sparse(rng, 12, density=0.3)
    ar = RedundantRows.from_rows([row_block(rows, 12)], 12)
    icp = build_icp(ar, 0, _one_rank(12))
    bicp = build_bicp(ar, 0, _one_rank(12))
    assert np.array_equal(icp.indices, bicp.indices)
    assert np.array_equal(icp.data, bicp.data)
    assert np.array_equal(icp.indptr, bicp.indptr)
    assert not bicp.block_local


def test_bicp_blocks_match_per_block_oracle(rng):
    rows, a = random_symmetric_sparse(rng, 12, density=0.4)
    ar = RedundantRows.from_rows([row_block(rows, 12)], 12)
    fab = _split([0, 4, 8, 12])
    for r in range(3):
        lo, hi = fab.dof_range(r)
        factor = build_bicp(ar, r, fab)
        assert factor.block_local
        ref = dense_ic_oracle(a[lo:hi, lo:hi])
        got = dense(factor)[lo:hi, lo:hi]
        assert np.abs(got - ref).max() < 1e-13
        # Row lookups and the diagonal use global row numbers.
        cols, vals = factor.row(hi - 1)
        np.testing.assert_array_equal(vals, got[-1, cols - lo])
        np.testing.assert_array_equal(factor.diagonal()[lo:hi], np.diag(got))


def test_bicp_needs_no_messages(rng):
    rows, _ = random_symmetric_sparse(rng, 9, density=0.4)
    ar = RedundantRows.from_rows([row_block(rows, 9)], 9)
    fab = _split([0, 3, 6, 9])
    run_spmd(fab, lambda f, r: build_bicp(ar, r, f))
    assert fab.counters_report()["totals"]["messages"] == 0


# -- factor builds on either storage -----------------------------------------

def _lower(m: RedundantRows) -> LowerSymmetricRows:
    return LowerSymmetricRows.from_symmetric_rows([m], m.n)


def _other_layout(m):
    return to_redundant(m) if isinstance(m, LowerSymmetricRows) else _lower(m)


@pytest.mark.parametrize("ranks", [1, 2, 3])
def test_factor_builds_equal_on_either_storage(rng, ranks):
    """Both builds read only the lower triangle, so storage #1 and #2
    give bitwise the same factors and the same build traffic."""
    rows, _ = random_symmetric_sparse(rng, 15, density=0.35)
    full = RedundantRows.from_rows([row_block(rows, 15)], 15)
    built = []
    for a in (full, _lower(full)):
        fab = CommFabric(split_rows(15, ranks))
        icp = run_spmd(fab, lambda f, r: build_icp(a, r, f))[0]
        bicp = [build_bicp(a, r, fab) for r in range(ranks)]
        built.append(([icp] + bicp, fab.counters_report()))
    (factors2, counters2), (factors1, counters1) = built
    assert counters1 == counters2
    for f1, f2 in zip(factors1, factors2):
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(f1, name), getattr(f2, name))


@pytest.mark.parametrize("ranks", [1, 2, 3, 5])
def test_row_destinations_match_column_loop(rng, ranks):
    """Column j's destinations are the owners of its stored rows from the
    rank's end ``hi`` on, ascending, on either storage: never the rank
    itself, and none at all at P = 1."""
    rows, dense = random_symmetric_sparse(rng, 20, density=0.25)
    full = RedundantRows.from_rows([row_block(rows, 20)], 20)
    fab = CommFabric(split_rows(20, ranks))
    owner = fab.owner_of_dof(np.arange(20))
    for a in (full, _lower(full)):
        for r in range(ranks):
            lo, hi = fab.dof_range(r)
            ptr, dest = _row_destinations(a, owner, ranks, lo, hi)
            assert len(ptr) == hi - lo + 1 and ptr[-1] == len(dest)
            assert ranks > 1 or len(dest) == 0
            for j in range(lo, hi):
                below = hi + np.nonzero(dense[hi:, j])[0]
                assert (dest[ptr[j - lo]:ptr[j - lo + 1]].tolist()
                        == sorted(set(owner[below].tolist())))


def _grid_scenario(**kw) -> Scenario:
    # 4 x 4 x 5 nodes with a one-by-one-by-two-element PEC box: 80 nodes
    # before the box, 240 unknowns.  Every dp, icp and bicp run at P = 1
    # to 5, either storage, converges within 34 iterations (39 with a z+
    # symmetry plane), so the cap makes a broken solve fail fast.
    return Scenario(extent=(1.0, 1.0, 1.25), nodes_per_wavelength=4,
                    scatterer=ScattererSpec(corner_min=(0.25, 0.25, 0.25),
                                            corner_max=(0.5, 0.5, 0.75)),
                    direction=(0.0, 0.0, 1.0), polarization=(1.0, 0.0, 0.0),
                    max_iter=100, **kw)


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
# build's 78 levels + 1 plus the system join).
ICP_BUILD_TRAFFIC = {
    2: ([60, 0], [42408, 0], 80),
    3: ([63, 63, 0], [31752, 40824, 0], 80),
    5: ([48, 48, 48, 48, 0], [11376, 32976, 31680, 32112, 0], 80),
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
    assert counters["bicp"] == ([0] * ranks, [0] * ranks, 1)


# The only phases that count messages: assembly and the symmetry-plane
# constraints send none.
_COUNTED_PHASES = ("symmetrize", "precond-build", "solve-iteration")


# End-to-end traffic of ``_grid_scenario`` with a z+ symmetry plane on two
# ranks, per (preconditioner, storage, concat): messages and bytes per
# phase, total barriers, iterations and the solution's sha256[:12].
_SYM = (2, 59904)
GRID_SYMMETRY_TRAFFIC = {
    ("icp", "1", "spmd"): ((_SYM, (60, 42408), (78, 228360)),
                           76, 13, "ed75ef2379db"),
    ("icp", "1", "ms"): ((_SYM, (60, 42408), (78, 240840)),
                         76, 13, "ed75ef2379db"),
    ("icp", "2", "spmd"): ((_SYM, (60, 42408), (78, 209640)),
                           76, 13, "64105047827e"),
    ("icp", "2", "ms"): ((_SYM, (60, 42408), (78, 222120)),
                         76, 13, "64105047827e"),
    ("bicp", "1", "spmd"): ((_SYM, (0, 0), (96, 292608)),
                            1, 24, "b08123b0e3b8"),
    ("bicp", "1", "ms"): ((_SYM, (0, 0), (96, 338688)),
                          1, 24, "b08123b0e3b8"),
    ("bicp", "2", "spmd"): ((_SYM, (0, 0), (96, 258048)),
                            1, 24, "68415e68e695"),
    ("bicp", "2", "ms"): ((_SYM, (0, 0), (96, 304128)),
                          1, 24, "68415e68e695"),
}


@pytest.mark.parametrize("precond, storage, concat",
                         sorted(GRID_SYMMETRY_TRAFFIC))
def test_grid_run_traffic_pinned(precond, storage, concat):
    res = run_scenario(_grid_scenario(
        preconditioner=precond, ranks=2, storage=storage, concat=concat,
        symmetry_planes=[("z+", "symmetry")]))
    counters = res.report.counters
    assert {c["phase"] for per_rank in counters["per_rank"]
            for c in per_rank} <= set(_COUNTED_PHASES)
    phases = tuple(
        tuple(sum(c[key] for per_rank in counters["per_rank"]
                  for c in per_rank if c["phase"] == phase)
              for key in ("messages", "bytes"))
        for phase in _COUNTED_PHASES)
    assert res.report.converged
    assert (phases, counters["totals"]["barriers"], res.report.iterations,
            hashlib.sha256(res.solution.tobytes()).hexdigest()[:12]
            ) == GRID_SYMMETRY_TRAFFIC[precond, storage, concat]


# The same z+ symmetry plane on one rank, per preconditioner: total
# barriers, iterations and the solution's sha256[:12].  The pipelined
# segment broadcasts run at P = 1 too, and send nothing.
GRID_SYMMETRY_ONE_RANK = {
    "dp": (1, 26, "393ae1c3447c"),
    "icp": (76, 13, "64105047827e"),
    "bicp": (1, 13, "64105047827e"),
}


@pytest.mark.parametrize("precond", sorted(GRID_SYMMETRY_ONE_RANK))
def test_grid_run_one_rank_sends_nothing(precond):
    res = run_scenario(_grid_scenario(
        preconditioner=precond, ranks=1,
        symmetry_planes=[("z+", "symmetry")]))
    counters = res.report.counters
    assert res.report.converged
    assert counters["per_rank"] == [[]]          # no phase sends a message
    assert counters["totals"]["messages"] == counters["totals"]["bytes"] == 0
    assert (counters["totals"]["barriers"], res.report.iterations,
            hashlib.sha256(res.solution.tobytes()).hexdigest()[:12]
            ) == GRID_SYMMETRY_ONE_RANK[precond]


# The CI box with a z+ symmetry and an x- antisymmetry plane, 8 nodes per
# wavelength, storage 1 and ms concatenation on three ranks: iterations,
# messages, bytes, barriers and the solution's sha256[:12].
PLANES_THREE_RANKS = {
    "dp": (60, 246, 5303944, 1, "70af67018242"),
    "icp": (28, 856, 6730192, 146, "adaaf35e4eaa"),
    "bicp": (43, 350, 6989632, 1, "d4885caf0de8"),
}


@pytest.mark.parametrize("precond", sorted(PLANES_THREE_RANKS))
def test_box_with_both_plane_kinds_counts_only_algorithm_traffic(precond):
    res = run_scenario(Scenario(
        extent=(1.0, 1.0, 1.0), nodes_per_wavelength=8,
        symmetry_planes=[("z+", "symmetry"), ("x-", "antisymmetry")],
        preconditioner=precond, ranks=3, concat="ms", storage="1"))
    counters = res.report.counters
    assert res.report.converged
    assert {c["phase"] for per_rank in counters["per_rank"]
            for c in per_rank} <= set(_COUNTED_PHASES)
    totals = counters["totals"]
    assert (res.report.iterations, totals["messages"], totals["bytes"],
            totals["barriers"],
            hashlib.sha256(res.solution.tobytes()).hexdigest()[:12]
            ) == PLANES_THREE_RANKS[precond]


@pytest.mark.parametrize("concat", ["spmd", "ms"])
@pytest.mark.parametrize("ranks", [2, 3, 4])
def test_bicp_solve_concatenates_once_per_apply(ranks, concat):
    """Each product and each bicp apply is one concatenation: P^2 - P
    messages under spmd, 2(P - 1) under ms.  A converged solve makes as
    many applies as iterations, counting the initial one."""
    report = run_scenario(_grid_scenario(preconditioner="bicp", ranks=ranks,
                                         concat=concat)).report
    assert report.converged and report.iterations > 0
    messages = sum(c["messages"] for per_rank in report.counters["per_rank"]
                   for c in per_rank if c["phase"] == "solve-iteration")
    per_concat = ranks * (ranks - 1) if concat == "spmd" else 2 * (ranks - 1)
    assert messages == 2 * per_concat * report.iterations


# -- level kernel against the column loop and the per-entry loop ------------

def _kernel_system(rng, kind, storage):
    """``(matrix, fabric maker)`` of a random pattern whose column 5 no
    row below touches, or of the 240-unknown grid system."""
    if kind == "grid":
        sc = _grid_scenario(storage=storage)
        mesh = runner.build_scenario_mesh(sc)
        nodes = mesh.node_count
        a, _ = runner.assemble_system(
            sc, mesh, 0, CommFabric(partition_rows(nodes, 1)))
        return a, lambda ranks: CommFabric(partition_rows(nodes, ranks))
    _, dense = random_symmetric_sparse(rng, 30, density=0.12,
                                       diag_boost=10.0)
    dense[6:, 5] = dense[5, 6:] = 0.0
    a = _redundant(dense)
    return ((a if storage == "2" else _lower(a)),
            lambda r: CommFabric(split_rows(30, r)))


def _oracle_factor(a, lo, hi):
    """The per-entry loop's rows [lo, hi), with the depth of a level
    analysis of their own pattern (the diagonal, last, left out)."""
    indptr, indices, data = csr_from_rows(entry_loop_ic(a, lo, hi), hi - lo)
    _, rows, ptr = _CsrBase(a.n, indptr, indices, data,
                            lo).below_by_column(lo, hi)
    return CholeskyFactor(a.n, indptr, indices, data, row_start=lo,
                          depth=_levels(rows - lo, ptr))


def _assert_kernel_edge_cases(a, fab):
    """Some row starts its lower part off the diagonal (an empty prefix),
    and with several ranks some rank holds rows below a column that other
    ranks' rows touch but none of its own do."""
    rows = a.entry_rows()
    below = a.indices < rows
    first = a.indices[np.searchsorted(rows, np.arange(a.n))]
    assert (first < np.arange(a.n)).any()
    owner = fab.owner_of_dof(rows[below])
    touched = set(zip(owner.tolist(), a.indices[below].tolist()))
    skipped = [(r, j) for _, j in touched for r in range(fab.ranks)
               if fab.dof_range(r)[1] - 1 > j and (r, j) not in touched]
    assert fab.ranks == 1 or skipped


def _assert_same_factor(got, ref):
    """Pattern and depth bitwise; values to 1e-12 normwise, since the
    kernel sums each prefix in another order than ``np.dot``."""
    for name in ("indptr", "indices", "depth"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert got.block_local == ref.block_local
    gap = np.linalg.norm(got.data - ref.data) / np.linalg.norm(ref.data)
    assert gap <= 1e-12


@pytest.mark.parametrize("storage", ["1", "2"])
@pytest.mark.parametrize("kind", ["random", "grid"])
@pytest.mark.parametrize("ranks", [1, 2, 3, 5])
def test_icp_kernel_matches_entry_loop(rng, ranks, kind, storage):
    a, split = _kernel_system(rng, kind, storage)
    fab = split(ranks)
    _assert_kernel_edge_cases(a, fab)
    out = run_spmd(fab, lambda f, r: build_icp(a, r, f))
    _assert_same_factor(out[0], _oracle_factor(a, 0, a.n))
    _assert_icp_is_column_loop(a, fab, out[0])


@pytest.mark.parametrize("storage", ["1", "2"])
@pytest.mark.parametrize("kind", ["random", "grid"])
@pytest.mark.parametrize("ranks", [1, 2, 3, 5])
def test_bicp_kernel_matches_entry_loop(rng, ranks, kind, storage):
    a, split = _kernel_system(rng, kind, storage)
    fab = split(ranks)
    _assert_kernel_edge_cases(a, fab)
    for r in range(ranks):
        lo, hi = fab.dof_range(r)
        block = build_bicp(a, r, fab)
        _assert_same_factor(block, _oracle_factor(a, lo, hi))
        assert same_bits(block.data, column_loop_factor(a, r, fab, lo).data)


def _assert_icp_is_column_loop(a, fab, factor):
    """The level build's icp factor holds, bitwise, every rank's rows of
    the column-by-column build, and their depths from its rows [0, hi)."""
    for r in range(fab.ranks):
        ref = column_loop_factor(a, r, fab, 0)
        lo, hi = fab.dof_range(r)
        got = factor.rows(lo, hi)
        for name in ("indptr", "indices", "data"):
            assert same_bits(getattr(got, name), getattr(ref, name)), name
        assert np.array_equal(factor.depth[lo:hi], ref.depth)


def _criterion_4_scenario(**kw) -> Scenario:
    """The 1701-node scattering case of acceptance criteria 4 and 8."""
    return Scenario(
        extent=(1.2, 1.2, 1.2), nodes_per_wavelength=10,
        scatterer=ScattererSpec(corner_min=(0.4, 0.4, 0.4),
                                corner_max=(0.8, 0.8, 0.8)),
        direction=(0.0, 0.0, 1.0), polarization=(1.0, 0.0, 0.0), **kw)


# The benchmark's three workloads with their seed-0 wave (+z, x-polarized),
# storage 2 and spmd unless stated: iterations, messages, bytes, barriers,
# rank 0's precond_bytes and the solution's sha256[:12].  They cross the
# 65,536-entry setup chunk and the 256-node factor block that the grid
# scenarios never reach.
BENCHMARK_WORKLOADS = {
    "scatter-icp": (dict(preconditioner="icp", ranks=1),
                    (98, 0, 0, 236, 2774880, "1e46a866dabe")),
    "scatter-bicp-p2": (dict(preconditioner="bicp", ranks=2),
                        (136, 546, 33915456, 1, 1320384, "8bbce25139f2")),
    "empty-dp-p2": (dict(extent=(1.0, 1.0, 1.0), nodes_per_wavelength=20,
                         scatterer=None, preconditioner="dp", ranks=2,
                         concat="ms", storage="1"),
                    (143, 288, 101713800, 1, 384000, "1ce6d9769b6f")),
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_WORKLOADS))
def test_benchmark_workload_fingerprint_pinned(workload):
    spec, pinned = BENCHMARK_WORKLOADS[workload]
    res = run_scenario(replace(_criterion_4_scenario(), **spec))
    totals = res.report.counters["totals"]
    assert res.report.converged
    assert (res.report.iterations, totals["messages"], totals["bytes"],
            totals["barriers"], res.report.precond_bytes,
            hashlib.sha256(res.solution.tobytes()).hexdigest()[:12]
            ) == pinned


@pytest.fixture(scope="module")
def criterion_4_system():
    sc = _criterion_4_scenario()
    mesh = runner.build_scenario_mesh(sc)
    a, _ = runner.assemble_system(
        sc, mesh, 0, CommFabric(partition_rows(mesh.node_count, 1)))
    return a, mesh.node_count


# Level steps of each rank's segment on the criterion-4 system, the same
# in both sweeps and for the icp factor and the bicp blocks.
CRITERION_4_LEVELS = {1: [234], 2: [156, 162], 4: [120, 120, 126, 120]}


def _level_recurrence(lo: int, hi: int, begin, end, nbr) -> np.ndarray:
    """Levels of rows [lo, hi) of a lower pattern, row by row ascending:
    0 for a row with no dependency inside the segment, otherwise 1 + the
    largest level among them."""
    level = np.zeros(hi - lo, dtype=np.int64)
    for r in range(hi - lo):
        dep = [c - lo for c in nbr[begin[r]:end[r]].tolist() if lo <= c < hi]
        assert all(d < r for d in dep)
        level[r] = 1 + level[dep].max() if dep else 0
    return level


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("segment", [(0, 60), (17, 45), (31, 60), (59, 60)])
def test_levels_match_row_recurrence_on_random_lower_patterns(seed, segment):
    """Random strictly lower patterns, some rows empty, others reaching
    only rows left of a segment that starts mid-matrix."""
    rng = np.random.default_rng(seed)
    n = 60
    rows = [np.flatnonzero(rng.random(i) < rng.choice([0.0, 0.05, 0.3]))
            for i in range(n)]
    indptr = np.concatenate([[0], np.cumsum([len(c) for c in rows])])
    nbr = np.concatenate(rows).astype(np.int64)
    lo, hi = segment
    begin, end = indptr[lo:hi], indptr[lo + 1:hi + 1]
    ref = _level_recurrence(lo, hi, begin, end, nbr)
    assert (ref == 0).any()
    _, below, ptr = _CsrBase(n, indptr, nbr, np.zeros(len(nbr)),
                             0).rows(lo, hi).below_by_column(lo, hi)
    assert np.array_equal(_levels(below - lo, ptr), ref)


def test_levels_match_row_recurrence_on_criterion_4_pattern(
        criterion_4_system):
    """The icp build's analysis of the 5103-unknown system (strict lower
    entries of each row), whole and on segments that start mid-matrix."""
    a, _ = criterion_4_system
    rows = a.entry_rows()
    begin = a.indptr[:-1]
    end = begin + np.bincount(rows[a.indices < rows], minlength=a.n)
    for lo, hi in ((0, a.n), (a.n // 3, 2 * a.n // 3), (2 * a.n // 3, a.n)):
        ref = _level_recurrence(lo, hi, begin[lo:hi], end[lo:hi], a.indices)
        _, below, ptr = a.rows(lo, hi).below_by_column(lo, hi)
        assert np.array_equal(_levels(below - lo, ptr), ref), (lo, hi)
        if lo == 0:
            assert ref.max() + 1 == CRITERION_4_LEVELS[1][0]


@pytest.mark.parametrize("ranks", [1, 2, 4])
def test_level_builds_are_column_loop_on_criterion_4_system(
        criterion_4_system, ranks):
    """The 5103-unknown system: the icp factor and every bicp block equal
    the column-by-column build bitwise, the icp build takes one barrier
    per dependency level (234) plus the final insertion, and each rank's
    forward and back sweeps of either factor take the pinned level
    steps, no more than an analysis of the segment alone gives."""
    a, nodes = criterion_4_system
    fab = CommFabric(partition_rows(nodes, ranks))
    icp = run_spmd(fab, lambda f, r: build_icp(a, r, f))[0]
    assert fab.barrier_collectives == 234 + 1
    _assert_icp_is_column_loop(a, fab, icp)
    for r in range(ranks):
        lo, hi = fab.dof_range(r)
        bicp = build_bicp(a, r, fab)
        assert same_bits(bicp.data, column_loop_factor(a, r, fab, lo).data)
        for factor in (icp, bicp):
            steps = [len(_level_rows(s))
                     for s in _schedule_segment(factor, lo, hi)]
            assert steps == 2 * [CRITERION_4_LEVELS[ranks][r]], (factor, r)


def test_factor_window_is_widest_lower_reach_on_criterion_4_system(
        criterion_4_system):
    """A factor's scratch window, too narrow, would alias scratch slots:
    it is 1 + the largest i - k over the strict-lower entries (i, k) of
    its cover, rows [col_min, col_end) of A, with k >= col_min, read one
    stored entry at a time.  The icp factor at P = 1 and 2, and every
    bicp block at P = 2 and 3."""
    a, nodes = criterion_4_system
    for kind, ranks in (("icp", 1), ("icp", 2), ("bicp", 2), ("bicp", 3)):
        fab = CommFabric(partition_rows(nodes, ranks))
        for r in range(ranks):
            lo, hi = fab.dof_range(r)
            col_min, col_end = (0, a.n) if kind == "icp" else (lo, hi)
            reach = 0
            for i in range(col_min, col_end):
                for k in a.row(i)[0].tolist():
                    if col_min <= k < i:
                        reach = max(reach, i - k)
            window = _RankFactor(a, lo, hi, col_min, col_end).window
            assert window == 1 + reach, (kind, ranks, r)


@pytest.mark.parametrize("storage", ["1", "2"])
def test_zero_pivot_named_from_first_level_with_one(storage):
    """Columns 4 and 5 break at level 1 (after column 3), column 2 at
    level 2 (after 0 and 1): every build names column 4, the lowest
    breaking column of the first level with one, at P = 1, 2 and 3."""
    a = np.zeros((8, 8), dtype=complex)
    a[np.arange(8), np.arange(8)] = [4, 2, 1, 1, 1, 1, 1, 1]
    for i, j, v in ((1, 0, 2), (2, 1, 1), (4, 3, 1), (5, 3, 1)):
        a[i, j] = a[j, i] = v
    assert _longest_dependency_path(a) == 3
    m = _redundant(a) if storage == "2" else _lower(_redundant(a))
    for ranks in (1, 2, 3):
        with pytest.raises(FactorBreakdownError, match="zero pivot in column 4"):
            run_spmd(CommFabric(split_rows(8, ranks), timeout=10.0),
                     lambda f, r: build_icp(m, r, f))
    with pytest.raises(FactorBreakdownError, match="zero pivot in column 4"):
        build_bicp(m, 0, _one_rank(8))
    # One column per step, column 2 breaks first.
    with pytest.raises(FactorBreakdownError, match="zero pivot in column 2"):
        column_loop_factor(m, 0, _one_rank(8), 0)


def test_zero_pivots_on_two_ranks_of_one_level_name_the_lower_column():
    """Columns 5 and 7 break in the same level, on ranks 1 and 2: with the
    interpreter switching threads as often as it can, every build names
    column 5, the lower one, never a barrier error of either rank."""
    a = np.eye(8, dtype=complex)
    a[5, 3] = a[3, 5] = a[7, 6] = a[6, 7] = 1.0
    m = _redundant(a)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            with pytest.raises(FactorBreakdownError,
                               match="^zero pivot in column 5$"):
                run_spmd(CommFabric(np.array([0, 3, 6, 8]), timeout=10.0),
                         lambda f, r: build_icp(m, r, f))
    finally:
        sys.setswitchinterval(old_interval)


@pytest.mark.parametrize("storage", ["1", "2"])
def test_factor_builds_name_first_row_without_diagonal(storage):
    """Rows 2 and 4 store an entry left of the diagonal but no diagonal;
    every build names the first such row among the rows it factors."""
    dense = (4.0 * np.eye(6) + np.eye(6, k=1) + np.eye(6, k=-1)).astype(complex)
    dense[2, 2] = dense[4, 4] = 0.0
    a = _redundant(dense) if storage == "2" else _lower(_redundant(dense))
    with pytest.raises(FactorBreakdownError, match="missing diagonal in row 2"):
        build_icp(a, 0, _one_rank(6))
    for starts in ([0, 3, 6], [0, 2, 6]):
        with pytest.raises(FactorBreakdownError,
                           match="missing diagonal in row 2"):
            run_spmd(CommFabric(np.array(starts), timeout=10.0),
                     lambda f, r: build_icp(a, r, f))
    with pytest.raises(FactorBreakdownError, match="missing diagonal in row 2"):
        build_bicp(a, 0, _one_rank(6))
    with pytest.raises(FactorBreakdownError, match="missing diagonal in row 4"):
        build_bicp(a, 1, _split([0, 3, 6]))


@pytest.mark.parametrize("storage", ["1", "2"])
def test_shared_system_and_icp_factor_reject_writes(storage):
    """The joined system and the stacked icp factor are the objects all
    rank threads share; a write to any of their arrays raises."""
    sc = Scenario(extent=(0.5, 0.5, 0.5), nodes_per_wavelength=6,
                  storage=storage, preconditioner="icp", ranks=2)
    mesh = runner.build_scenario_mesh(sc)

    def per_rank(fab, rank):
        matrix, _ = runner.assemble_system(sc, mesh, rank, fab)
        return matrix, build_icp(matrix, rank, fab)

    (a0, l0), (a1, l1) = run_spmd(
        CommFabric(partition_rows(mesh.node_count, 2)), per_rank)
    assert a0 is a1 and l0 is l1
    for shared in (a0, l0):
        for arr in (shared.indptr, shared.indices, shared.data):
            with pytest.raises(ValueError, match="read-only"):
                arr[-1] = arr[-1]


# -- triangular solves -------------------------------------------------------

def test_substitution_matches_scipy(rng):
    m = rng.standard_normal((15, 15))
    a = m @ m.T + 15 * np.eye(15)
    ar = _redundant(a.astype(complex))
    factor = build_icp(ar, 0, _one_rank(15))
    b = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    x = substitute(factor, b, _one_rank(15), 0)
    lo = np.linalg.cholesky(a)
    y_ref = scipy.linalg.solve_triangular(lo, b, lower=True)
    x_ref = scipy.linalg.solve_triangular(lo.T, y_ref, lower=False)
    np.testing.assert_allclose(x, x_ref, rtol=1e-12)


@pytest.mark.parametrize("ranks", [2, 3, 4])
def test_pipelined_substitution_bitwise_rank_invariant(rng, ranks):
    rows, _ = random_symmetric_sparse(rng, 12, density=0.4)
    ar = RedundantRows.from_rows([row_block(rows, 12)], 12)
    factor = build_icp(ar, 0, _one_rank(12))
    b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    serial = substitute(factor, b, _one_rank(12), 0)
    fab = CommFabric(split_rows(12, ranks))
    for r in range(ranks):
        fab.set_phase(r, "solve")
    out = run_spmd(
        fab, lambda f, r: substitute(factor, b, f, r))
    for x in out:
        assert np.array_equal(x, serial)
    # one segment broadcast per rank per triangular solve
    assert phase_traffic(fab, "solve")[0] == 2 * ranks * (ranks - 1)


def test_block_substitution_is_block_exact(rng):
    rows, dense = random_symmetric_sparse(rng, 12, density=0.4)
    ar = RedundantRows.from_rows([row_block(rows, 12)], 12)
    b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    out = run_spmd(
        _split([0, 6, 12]),
        lambda f, r: substitute(build_bicp(ar, r, f), b, f, r))
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


def _level_rows(sweep) -> list:
    """Rows of each level of a sweep schedule, in solve order."""
    lo, rows, levels = sweep
    return [rows[a - lo:b - lo].tolist() for a, _, b, *_ in levels]


def test_level_counts_diagonal_and_tridiagonal():
    n = 7
    diag = build_icp(_redundant(4.0 * np.eye(n, dtype=complex)), 0,
                     _one_rank(n))
    forward, back = _schedule_segment(diag, 0, n)
    assert (len(_level_rows(forward)), len(_level_rows(back))) == (1, 1)
    tri = (4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)).astype(complex)
    chain = build_icp(_redundant(tri), 0, _one_rank(n))
    forward, back = _schedule_segment(chain, 0, n)
    assert (len(_level_rows(forward)), len(_level_rows(back))) == (n, n)
    assert _level_rows(forward) == [[i] for i in range(n)]
    assert _level_rows(back) == [[i] for i in range(n - 1, -1, -1)]


def test_level_solve_matches_scipy_full_factor(rng):
    rows, _ = random_symmetric_sparse(rng, 30, density=0.08, diag_boost=10.0)
    ar = RedundantRows.from_rows([row_block(rows, 30)], 30)
    factor = build_icp(ar, 0, _one_rank(30))
    forward, back = (len(_level_rows(s))
                     for s in _schedule_segment(factor, 0, 30))
    assert 3 <= forward < 30 and 3 <= back < 30
    b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    x = substitute(factor, b, _one_rank(30), 0)
    np.testing.assert_allclose(x, _scipy_substitute(dense(factor), b),
                               rtol=1e-12)


def test_level_mixing_rows_with_and_without_entries(rng):
    """Rows 3 and 5 need only rank 0's rows 0 and 1, and row 4 none.  The
    factor's depths put row 4 one level before rows 3 and 5 in rank 1's
    forward sweep and one after in its back sweep, so no forward level
    holds rows with and without entries (an analysis of rows [3, 6)
    alone put all three in one level per sweep); rank 0's one back level
    still does: rows 0 and 1 have entries below, row 2 none."""
    a = 4.0 * np.eye(6, dtype=complex)
    for i, j in ((3, 0), (5, 1)):
        a[i, j] = a[j, i] = 1.0
    ar = _redundant(a)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    out = run_spmd(_split([0, 3, 6]), lambda f, r: substitute(
        build_icp(ar, r, f), b, f, r))
    factor = build_icp(ar, 0, _one_rank(6))
    (fw0, back0), (fw1, back1) = (_schedule_segment(factor, lo, hi)
                                  for lo, hi in ((0, 3), (3, 6)))
    assert _level_rows(fw1) == [[4], [3, 5]]
    assert _level_rows(back1) == [[3, 5], [4]]
    assert _level_rows(back0) == [[0, 1, 2]]

    def mixed(sweep):
        return [a < full < b for a, full, b, *_ in sweep[2]]

    assert not any(mixed(fw0) + mixed(fw1))
    assert mixed(back0) == [True]
    for x in out:
        np.testing.assert_allclose(x, _scipy_substitute(dense(factor), b),
                                   rtol=1e-12)


def test_level_solve_matches_scipy_block_local_factor(rng):
    rows, _ = random_symmetric_sparse(rng, 40, density=0.08, diag_boost=10.0)
    ar = RedundantRows.from_rows([row_block(rows, 40)], 40)
    fab = _split([0, 20, 40])
    factors = [build_bicp(ar, r, fab) for r in range(2)]
    for f in factors:
        assert f.block_local
        assert min(len(_level_rows(s)) for s in _schedule_segment(
            f, f.row_start, f.row_end)) >= 3
    b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    out = run_spmd(
        fab, lambda f, r: substitute(factors[r], b, f, r))
    for f in factors:
        lo, hi = f.row_start, f.row_end
        ref = _scipy_substitute(dense(f)[lo:hi, lo:hi], b[lo:hi])
        np.testing.assert_allclose(out[0][lo:hi], ref, rtol=1e-12)
    assert np.array_equal(out[0], out[1])


def test_repeated_applies_bitwise_equal(rng):
    rows, _ = random_symmetric_sparse(rng, 20, density=0.2)
    ar = RedundantRows.from_rows([row_block(rows, 20)], 20)
    factor = build_icp(ar, 0, _one_rank(20))
    b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    first = substitute(factor, b, _one_rank(20), 0)
    second = substitute(factor, b, _one_rank(20), 0)
    assert np.array_equal(first, second)


def test_zero_pivot_in_factor_named_at_schedule_build():
    n = 4
    indptr = np.array([0, 1, 3, 5, 7])
    indices = np.array([0, 0, 1, 1, 2, 2, 3])
    data = np.array([2, 1, 3, 1, 0, 1, 5], dtype=complex)   # L[2, 2] = 0
    factor = CholeskyFactor(n=n, row_start=0, indptr=indptr, indices=indices,
                            data=data, depth=np.arange(n))   # a chain
    with pytest.raises(FactorBreakdownError, match="row 2"):
        substitute(factor, np.ones(n, dtype=complex),
                                _one_rank(n), 0)


@pytest.mark.parametrize("precond, ranks", [("icp", 1), ("bicp", 2)])
def test_every_apply_bitwise_equals_gather_level_oracle(monkeypatch, precond,
                                                        ranks):
    """Each preconditioner apply of a full CG solve of the 1701-node
    scattering system equals the gather-per-level solve bitwise.  The
    check runs inside the apply, so a broken solve fails at its first."""
    applies = []
    solve = solver.forward_back_substitute

    def checked(factor, b, fabric, rank, sweeps):
        x = solve(factor, b, fabric, rank, sweeps)
        lo, hi = fabric.dof_range(rank)
        assert same_bits(x[lo:hi], gather_level_substitute(factor, b, lo, hi))
        applies.append(rank)
        return x

    monkeypatch.setattr(solver, "forward_back_substitute", checked)
    res = run_scenario(_criterion_4_scenario(
        preconditioner=precond, ranks=ranks, max_iter=300))
    assert res.node_count == 1701 and res.report.converged
    assert len(applies) == ranks * res.report.iterations


# Whole-run iterations, messages, bytes, barriers and solution sha256[:12]
# of ``_grid_scenario`` on three ranks.
GRID_THREE_RANKS = {
    "bicp": (28, 342, 768960, 1, "ce7197a7a166"),
    "icp": (12, 348, 611088, 80, "1cdb6132f0db"),
}


@pytest.mark.parametrize("precond", sorted(GRID_THREE_RANKS))
def test_sweeps_and_bicp_columns_run_one_rank_at_a_time(monkeypatch,
                                                        precond):
    """No two rank threads are ever inside a sweep's level loop, or in a
    level of the bicp build, at the same moment, and the run keeps its
    pinned counts and bits.  Each entry sleeps, releasing the interpreter
    lock, so another rank could come in if nothing kept it out."""
    inside, peak, count_lock = [0], [0], threading.Lock()

    def enter():
        with count_lock:
            inside[0] += 1
            peak[0] = max(peak[0], inside[0])
        time.sleep(1e-4)

    def leave():
        with count_lock:
            inside[0] -= 1

    def counted_levels(levels):
        enter()
        try:
            yield from levels
        finally:
            leave()

    def counted_level(self, *args):
        enter()
        try:
            return level(self, *args)
        finally:
            leave()

    solve, level = solver._solve_levels, solver._RankFactor.level
    monkeypatch.setattr(solver, "_solve_levels", lambda sweep, rhs, out:
                        solve((*sweep[:2], counted_levels(sweep[2])), rhs,
                              out))
    if precond == "bicp":
        monkeypatch.setattr(solver._RankFactor, "level", counted_level)
    res = run_scenario(_grid_scenario(preconditioner=precond, ranks=3))
    totals = res.report.counters["totals"]
    assert peak == [1] and inside == [0]
    assert (res.report.iterations, totals["messages"], totals["bytes"],
            totals["barriers"],
            hashlib.sha256(res.solution.tobytes()).hexdigest()[:12]
            ) == GRID_THREE_RANKS[precond]


def test_sweep_that_raises_fails_the_run_and_frees_the_lock(rng):
    """A right-hand side too short for rank 1's rows fails its first
    sweep: the run re-raises that error at once, although rank 0 waits
    on rank 1 in the concatenation, and the sweep lock is free."""
    rows, _ = random_symmetric_sparse(rng, 40, density=0.08, diag_boost=10.0)
    ar = RedundantRows.from_rows([row_block(rows, 40)], 40)
    fab = _split([0, 20, 40])
    factors = [build_bicp(ar, r, fab) for r in range(2)]
    b = np.ones(25, dtype=complex)
    t0 = time.monotonic()
    with pytest.raises(IndexError):
        run_spmd(fab, lambda f, r: substitute(
            factors[r], b, f, r))
    assert time.monotonic() - t0 < 5.0
    assert not solver._SERIAL.locked()


# -- conjugate gradient ------------------------------------------------------

def _cg_system(rng, n=18):
    rows, dense = random_symmetric_sparse(rng, n, density=0.3, diag_boost=9.0)
    ar = RedundantRows.from_rows([row_block(rows, n)], n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return ar, dense, b


def test_cg_dp_solves_to_tolerance(rng):
    ar, dense, b = _cg_system(rng)
    x, rep = cg_solve(ar, b, build_dp(ar), 0, _one_rank(18), tol=1e-10)
    assert rep.converged and not rep.breakdown
    assert rep.true_residual <= 1e-9
    np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-7)
    assert len(rep.residual_history) == rep.iterations + 1
    assert rep.residual_history[-1] <= 1e-10


def test_cg_exact_factor_converges_in_one_iteration(rng):
    m = rng.standard_normal((20, 20))
    a = m @ m.T + 20 * np.eye(20)
    ar = _redundant(a.astype(complex))
    factor = build_icp(ar, 0, _one_rank(20))
    b = rng.standard_normal(20).astype(complex)
    x, rep = cg_solve(ar, b, Preconditioner(kind="icp", factor=factor),
                      0, _one_rank(20), tol=1e-10)
    assert rep.iterations == 1 and rep.converged


@pytest.mark.parametrize("precond", ["dp", "icp", "bicp"])
def test_each_solve_builds_its_ranks_schedules(monkeypatch, rng, precond):
    """A solve builds the schedules of its own rank's rows once, before
    its first apply, and a dp solve builds none; a second solve on the
    same preconditioners builds them again, as nothing is kept on the
    factor the ranks share.  At P = 1 and 2 a factor build runs the level
    analysis once per rank, and a solve never runs it."""
    ar, _, b = _cg_system(rng)
    build = {"dp": lambda f, r: build_dp(ar),
             "icp": lambda f, r: build_icp(ar, r, f),
             "bicp": lambda f, r: build_bicp(ar, r, f)}[precond]
    built, schedule = [], solver._schedule_segment
    analyses, levels = [], solver._levels

    def counted(factor, lo, hi):
        built.append((lo, hi))
        return schedule(factor, lo, hi)

    def counted_levels(succ, succ_ptr):
        analyses.append(len(succ_ptr) - 1)
        return levels(succ, succ_ptr)

    monkeypatch.setattr(solver, "_schedule_segment", counted)
    monkeypatch.setattr(solver, "_levels", counted_levels)
    for starts in ([0, 18], [0, 9, 18]):
        segments = list(zip(starts[:-1], starts[1:]))
        per_build = {"dp": [], "icp": len(segments) * [18],
                     "bicp": [hi - lo for lo, hi in segments]}[precond]
        built.clear()
        analyses.clear()
        preconds = [p if precond == "dp" else Preconditioner(precond, factor=p)
                    for p in run_spmd(_split(starts), build)]
        assert sorted(analyses) == per_build
        for solves in (1, 2):
            out = run_spmd(_split(starts), lambda f, r: cg_solve(
                ar, b, preconds[r], r, f, tol=1e-10))
            assert all(report.converged for _, report in out)
            assert sorted(built) == ([] if precond == "dp"
                                     else sorted(solves * segments))
        assert sorted(analyses) == per_build


def test_cg_iteration_message_counts(rng):
    ar, _, b = _cg_system(rng)
    for ranks, concat, per_iter in ((2, "spmd", 2), (3, "spmd", 6),
                                    (3, "ms", 4)):
        fab = CommFabric(split_rows(18, ranks), concat)
        out = run_spmd(
            fab, lambda f, r: cg_solve(ar, b, build_dp(ar), r, f, tol=1e-8))
        rep = out[0][1]
        assert rep.converged and rep.strategy == concat
        msgs = phase_traffic(fab, "solve-iteration")[0]
        assert msgs == per_iter * rep.iterations


def test_cg_rank_count_does_not_change_iterates(rng):
    ar, _, b = _cg_system(rng)
    ref = None
    for ranks in (1, 2, 3, 6):
        out = run_spmd(
            CommFabric(split_rows(18, ranks)),
            lambda f, r: cg_solve(ar, b, build_dp(ar), r, f, tol=1e-8))
        x, rep = out[0]
        if ref is None:
            ref = (x, rep.iterations)
        assert np.array_equal(x, ref[0])
        assert rep.iterations == ref[1]


def test_cg_strategy_equivalence_bitwise(rng):
    ar, _, b = _cg_system(rng)
    sols = {}
    for concat in ("spmd", "ms"):
        out = run_spmd(
            CommFabric(split_rows(18, 3), concat),
            lambda f, r: cg_solve(ar, b, build_dp(ar), r, f, tol=1e-8))
        assert out[0][1].strategy == concat
        sols[concat] = out[0][0]
    assert np.array_equal(sols["spmd"], sols["ms"])


def test_cg_breakdown_distinct_from_nonconvergence():
    dense = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    ar = _redundant(dense)
    b = np.array([1.0, 1.0], dtype=complex)
    x, rep = cg_solve(ar, b, build_dp(ar), 0, _one_rank(2), tol=1e-12)
    assert rep.breakdown and not rep.converged


def test_cg_nonconvergence_reported(rng):
    ar, _, b = _cg_system(rng)
    x, rep = cg_solve(ar, b, build_dp(ar), 0, _one_rank(18),
                      tol=1e-14, max_iter=2)
    assert not rep.converged and not rep.breakdown
    assert rep.iterations == 2


@pytest.mark.parametrize("precond", ["dp", "bicp"])
def test_cg_zero_rhs_returns_zero_before_any_message(rng, precond):
    """b = 0 at P = 2: x = 0 after no iteration and no apply."""
    ar, _, _ = _cg_system(rng)
    fab = CommFabric(split_rows(18, 2))
    b = np.zeros(18, dtype=complex)

    def solve(f, r):
        pre = (build_dp(ar) if precond == "dp" else
               Preconditioner("bicp", factor=build_bicp(ar, r, f)))
        return cg_solve(ar, b, pre, r, f)

    for x, rep in run_spmd(fab, solve):
        assert same_bits(x, b)
        assert rep.iterations == 0 and rep.converged and not rep.breakdown
        assert rep.residual_history == [0.0] and rep.true_residual == 0.0
        assert rep.ranks == 2 and rep.preconditioner == precond
    assert phase_traffic(fab, "solve-iteration") == (0, 0)
    assert fab.counters_report()["totals"]["messages"] == 0


@pytest.mark.parametrize("ranks", [2, 3])
def test_solve_runs_one_true_residual_product(monkeypatch, rng, ranks):
    """Only rank 0, whose report ``run_scenario`` returns, runs the serial
    product of the true residual; the other ranks report NaN."""
    ar, _, b = _cg_system(rng)
    calls, product = [], solver.full_matvec

    def counted(a, x):
        calls.append(threading.current_thread().name)
        return product(a, x)

    monkeypatch.setattr(solver, "full_matvec", counted)
    out = run_spmd(CommFabric(split_rows(18, ranks)), lambda f, r: cg_solve(
        ar, b, build_dp(ar), r, f, tol=1e-10))
    assert calls == ["rank0"]
    assert out[0][1].converged and out[0][1].true_residual <= 1e-9
    assert all(np.isnan(rep.true_residual) for _, rep in out[1:])


def test_cg_report_serializes(rng):
    ar, _, b = _cg_system(rng)
    _, rep = cg_solve(ar, b, build_dp(ar), 0, _one_rank(18), tol=1e-8)
    blob = json.loads(json.dumps(rep.as_dict()))
    assert blob["preconditioner"] == "dp"
    assert blob["iterations"] == rep.iterations


# -- blocked inner products --------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 7, 4096, 8191, 8192])
def test_blocked_dot_and_norm_are_numpy_up_to_one_block(rng, n):
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w = rng.standard_normal(n)
    assert same_bits(_dot(u, v), np.dot(u, v))
    assert same_bits(_dot(u.real, v.real), np.dot(u.real, v.real))
    assert same_bits(_norm(u), np.linalg.norm(u))
    assert same_bits(_norm(w), np.linalg.norm(w))


def test_blocked_dot_sums_blocks_in_order(rng):
    n = 20_000
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    blocks = [np.dot(u[k:k + 8192], v[k:k + 8192]) for k in (0, 8192, 16384)]
    assert same_bits(_dot(u, v), blocks[0] + blocks[1] + blocks[2])
    np.testing.assert_allclose(_dot(u, v), np.dot(u, v), rtol=1e-12)
    np.testing.assert_allclose(_norm(u), np.linalg.norm(u), rtol=1e-14)


_EMPTY_BOX_RUNS = """
import hashlib, json
from hexwave.runner import Scenario, run_scenario
out = {}
for ranks in (1, 2):
    res = run_scenario(Scenario(nodes_per_wavelength=15, storage="1",
                                preconditioner="dp", ranks=ranks,
                                max_iter=400))
    out[ranks] = [hashlib.sha256(res.solution.tobytes()).hexdigest(),
                  [h.hex() for h in res.report.residual_history],
                  res.report.converged]
print(json.dumps(out))
"""


def _empty_box_runs(blas_threads: str | None) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "GOTO_NUM_THREADS")}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    package_root = os.path.dirname(os.path.dirname(solver.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _EMPTY_BOX_RUNS], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_solution_independent_of_blas_thread_count():
    """The 10,125-unknown empty box (storage 1, dp, P = 1 and 2) gives the
    same solution and residual history with one OpenBLAS thread as with
    the library's default pool.  Its vectors are longer than the length
    from which OpenBLAS splits one dot product over threads; on a
    single-core host both runs use one thread and the test is vacuous."""
    pinned = _empty_box_runs("1")
    default = _empty_box_runs(None)
    assert pinned == default
    assert all(len(history) > 2 and converged
               for _, history, converged in pinned.values())
