"""Rank-parallel conjugate gradient for complex symmetric systems.

The Krylov loop is the unconjugated-inner-product variant (x^T y, not
x^H y) appropriate for complex symmetric matrices.  Three
preconditioners are available: inverse diagonal (DP), zero-fill
incomplete Cholesky built column by column across ranks (ICP), and a
block variant that factors only rank-local entries and therefore needs
no build communication (BICP).  Both factored preconditioners apply
L L^T through one level-scheduled triangular-solve kernel: the rows of
a segment are grouped once per factor into dependency levels, and each
level is solved as one vectorized gather-and-reduce.  ICP pipelines its
segments over the fabric; BICP blocks solve independently.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import json
import threading

import numpy as np

from .fabric import CommFabric, CONCAT_STRATEGIES
from .sparse import (COMPLEX_BYTES, LowerSymmetricRows, RedundantRows,
                     RowPartition, SparseVector, _CsrBase, _csr_from_rows,
                     full_matvec, spmv_partial)


class SolverError(RuntimeError):
    pass


class SingularPreconditionerError(SolverError):
    """A zero diagonal entry makes the diagonal preconditioner singular."""


class FactorBreakdownError(SolverError):
    """An exactly zero pivot aborted the incomplete factorization."""


class CholeskyFactor(_CsrBase):
    """Zero-fill lower factor on (a sub-pattern of) A's lower pattern.

    Rows [row_start, row_end) are stored CSR-style with the diagonal as
    the last entry of each row.  ``col_ptr``/``col_rows``/``col_pos``
    index the same values by column (contiguous per column, rows
    ascending) for the back sweep.  ``block_local`` marks a BICP block
    whose columns are restricted to the owned range.
    """

    def __init__(self, n, row_start, row_end, indptr, indices, data,
                 block_local=False):
        super().__init__(n, indptr, indices, data)
        self.row_start, self.row_end = row_start, row_end
        self.block_local = block_local
        rows = self.entry_rows()
        self.col_pos = np.lexsort((rows, self.indices))
        self.col_rows = rows[self.col_pos]
        self.col_ptr = np.searchsorted(self.indices[self.col_pos],
                                       np.arange(row_start, row_end + 1))
        # Level schedules per row segment; rank threads may share a factor.
        self._schedules: dict = {}
        self._lock = threading.Lock()

    def schedule(self, lo: int, hi: int):
        """``(forward, back)`` level schedules of rows [lo, hi), built on
        first use and shared by every later solve on this factor."""
        with self._lock:
            sched = self._schedules.get((lo, hi))
            if sched is None:
                sched = self._schedules[(lo, hi)] = _schedule_segment(
                    self, lo, hi)
        return sched


@dataclass
class Preconditioner:
    kind: str                                   # "dp" | "icp" | "bicp"
    inv_diag: np.ndarray | None = None
    factor: CholeskyFactor | None = None

    def memory_bytes(self) -> int:
        if self.kind == "dp":
            return COMPLEX_BYTES * len(self.inv_diag)
        return self.factor.value_bytes()


@dataclass
class SolveReport:
    """Outcome of one CG solve.

    ``matrix_bytes`` and ``precond_bytes`` count stored complex values
    only (16 B each), not index arrays or level schedules.
    """
    iterations: int
    residual_history: list
    converged: bool
    breakdown: bool
    preconditioner: str
    strategy: str
    ranks: int
    tol: float
    matrix_bytes: int
    precond_bytes: int
    true_residual: float
    counters: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "residual_history": self.residual_history,
            "converged": self.converged,
            "breakdown": self.breakdown,
            "preconditioner": self.preconditioner,
            "strategy": self.strategy,
            "ranks": self.ranks,
            "tol": self.tol,
            "matrix_bytes": self.matrix_bytes,
            "precond_bytes": self.precond_bytes,
            "true_residual": self.true_residual,
            "counters": self.counters,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.as_dict(), **kwargs)


# ---------------------------------------------------------------------------
# Preconditioner construction
# ---------------------------------------------------------------------------

def build_dp(a, partition: RowPartition | None = None) -> Preconditioner:
    """Inverse of the matrix diagonal; no message passing."""
    d = a.diagonal()
    zero = np.nonzero(d == 0)[0]
    if len(zero):
        raise SingularPreconditionerError(
            f"zero diagonal entry in row {int(zero[0])}")
    return Preconditioner(kind="dp", inv_diag=1.0 / d)


def _lower_pattern(a: LowerSymmetricRows | RedundantRows, rows_range,
                   col_min: int):
    """Per-row pattern (cols sorted, diagonal last) and the A values on it;
    only the lower triangle is read, so either storage gives the same."""
    pat_cols = []
    pat_avals = []
    for i in range(*rows_range):
        cols, vals = a.row(i)
        keep = (cols >= col_min) & (cols <= i)
        cols, vals = cols[keep], vals[keep]
        if len(cols) == 0 or cols[-1] != i:
            raise FactorBreakdownError(f"missing diagonal in row {i}")
        pat_cols.append(cols.copy())
        pat_avals.append(vals.copy())
    return pat_cols, pat_avals


def _ic_diag(l_row_below: np.ndarray, a_jj: complex, j: int) -> complex:
    val = a_jj - np.dot(l_row_below, l_row_below)
    piv = np.sqrt(np.complex128(val))        # principal branch
    if piv == 0:
        raise FactorBreakdownError(f"zero pivot in column {j}")
    return piv


def _ic_offdiag(l_vals_i, l_cols_i, pos, scratch, a_ij, l_jj):
    s = np.dot(l_vals_i[:pos], scratch[l_cols_i[:pos]])
    return (a_ij - s) / l_jj


def _column_updates(pat_cols, row_start: int):
    """For each column j: the (row, position) pairs of off-diagonal work."""
    updates: dict[int, list] = {}
    for li, cols in enumerate(pat_cols):
        i = row_start + li
        for pos, j in enumerate(cols[:-1].tolist()):
            updates.setdefault(j, []).append((i, pos))
    return updates


def build_bicp(a: LowerSymmetricRows | RedundantRows,
               partition: RowPartition, rank: int) -> CholeskyFactor:
    """Block incomplete Cholesky: only entries with both row and column
    owned by this rank are factored; no communication.  With one rank
    this is exactly the classical ICP factor."""
    lo, hi = partition.dof_range(rank)
    pat_cols, pat_avals = _lower_pattern(a, (lo, hi), col_min=lo)
    l_vals = [np.zeros(len(c), dtype=np.complex128) for c in pat_cols]
    updates = _column_updates(pat_cols, lo)
    scratch = np.zeros(a.n, dtype=np.complex128)
    for j in range(lo, hi):
        lj = j - lo
        piv = _ic_diag(l_vals[lj][:-1], pat_avals[lj][-1], j)
        l_vals[lj][-1] = piv
        cols_j = pat_cols[lj]
        scratch[cols_j] = l_vals[lj]
        for i, pos in updates.get(j, ()):
            li = i - lo
            l_vals[li][pos] = _ic_offdiag(l_vals[li], pat_cols[li], pos,
                                          scratch, pat_avals[li][pos], piv)
        scratch[cols_j] = 0.0
    return CholeskyFactor(a.n, lo, hi,
                          *_csr_from_rows(list(zip(pat_cols, l_vals)), hi - lo),
                          block_local=partition.ranks > 1)


def _row_destinations(a: LowerSymmetricRows | RedundantRows, owner,
                      ranks: int, lo: int, hi: int):
    """For each column j in [lo, hi), the ranks owning a stored row below
    its diagonal, ascending: ``dest[ptr[j - lo]:ptr[j - lo + 1]]``."""
    rows = a.entry_rows()
    below = (a.indices < rows) & (a.indices >= lo) & (a.indices < hi)
    key = np.unique(a.indices[below] * ranks + owner[rows[below]])
    return np.searchsorted(key, np.arange(lo, hi + 1) * ranks), key % ranks


def build_icp(a: LowerSymmetricRows | RedundantRows, partition: RowPartition,
              rank: int, fabric: CommFabric) -> CholeskyFactor:
    """Column-parallel zero-fill incomplete Cholesky.

    Column j's off-diagonal entries are computed by the owners of the
    rows below once the pivot of column j is known; the owner of row j
    ships that row over the fabric when other ranks need it.  One
    barrier closes every pipeline step (n columns + final insertion).
    The final insertion joins the full factor once, and every rank gets
    that same read-only object.  On a dense pattern the result is the
    complete Cholesky factor.
    """
    n = a.n
    lo, hi = partition.dof_range(rank)
    pat_cols, pat_avals = _lower_pattern(a, (lo, hi), col_min=0)
    l_vals = [np.zeros(len(c), dtype=np.complex128) for c in pat_cols]
    updates = _column_updates(pat_cols, lo)
    scratch = np.zeros(n, dtype=np.complex128)
    owner = partition.owner_of_dof(np.arange(n))
    dest_ptr, dest = _row_destinations(a, owner, partition.ranks, lo, hi)

    def publish_row(j):
        lj = j - lo
        row = (pat_cols[lj], l_vals[lj])
        for q in dest[dest_ptr[lj]:dest_ptr[lj + 1]].tolist():
            if q != rank:
                fabric.send(rank, q, row)
        return row

    pending = None                      # row j-1 of L, if this rank needs it
    for j in range(n):
        # Pipeline step j: finish column j-1, then compute pivot j.
        if j > 0:
            prev = j - 1
            if prev in updates:
                if pending is None:
                    pending = fabric.recv(rank, int(owner[prev]))
                cols_p, vals_p = pending
                scratch[cols_p] = vals_p
                piv_prev = vals_p[-1]
                for i, pos in updates[prev]:
                    li = i - lo
                    l_vals[li][pos] = _ic_offdiag(
                        l_vals[li], pat_cols[li], pos, scratch,
                        pat_avals[li][pos], piv_prev)
                scratch[cols_p] = 0.0
            pending = None
        if lo <= j < hi:
            lj = j - lo
            l_vals[lj][-1] = _ic_diag(l_vals[lj][:-1], pat_avals[lj][-1], j)
            row_j = publish_row(j)
            if j in updates:
                pending = row_j
        fabric.barrier(rank)

    def join(parts):
        rows = [row for cols, vals in parts for row in zip(cols, vals)]
        return CholeskyFactor(n, 0, n, *_csr_from_rows(rows, n))

    return fabric.allgather_object(rank, (pat_cols, l_vals), join)


# ---------------------------------------------------------------------------
# Triangular solves
# ---------------------------------------------------------------------------

def _ranges(begin: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(b, e)`` over the pairs of begin/end."""
    count = end - begin
    return np.arange(count.sum()) + np.repeat(begin - np.cumsum(count) + count,
                                              count)


def _levels(lo: int, hi: int, begin, end, nbr) -> np.ndarray:
    """Dependency level of each row of [lo, hi) in one triangular sweep:
    0 for a row that needs no other row of the segment, otherwise one
    more than the highest level among the rows it needs, which are its
    neighbours ``nbr[begin[r]:end[r]]`` inside [lo, hi).  Found front by
    front: a row joins the next front once all it needs is solved."""
    m, count = hi - lo, end - begin
    dep_on = nbr[_ranges(begin, end)] - lo
    inside = (dep_on >= 0) & (dep_on < m)
    dep_row, dep_on = np.repeat(np.arange(m), count)[inside], dep_on[inside]
    waiting = np.bincount(dep_row, minlength=m)
    by_need = np.argsort(dep_on, kind="stable")
    succ = dep_row[by_need]                  # grouped by the row they need
    succ_ptr = np.searchsorted(dep_on[by_need], np.arange(m + 1))
    level = np.empty(m, dtype=np.int64)
    front, depth = np.flatnonzero(waiting == 0), 0
    while len(front):
        level[front] = depth
        freed = succ[_ranges(succ_ptr[front], succ_ptr[front + 1])]
        np.subtract.at(waiting, freed, 1)
        front, depth = np.unique(freed[waiting[freed] == 0]), depth + 1
    return level


def _schedule_sweep(lo: int, hi: int, begin, end, nbr, pos, diag) -> list:
    """Level schedule of one triangular sweep over rows [lo, hi).

    Row ``lo + r`` subtracts ``data[pos[e]] * out[nbr[e]]`` over the
    entries ``e`` in ``[begin[r], end[r])``, then divides by
    ``data[diag[r]]``; neighbours inside [lo, hi) must be solved first,
    neighbours outside are already known.  Each level is a tuple of
    index arrays ``(rows, diag, cols, pos, starts)``: rows with entries
    come first and ``starts`` holds their ``reduceat`` offsets.
    """
    count = end - begin
    level = _levels(lo, hi, begin, end, nbr)
    # Levels are slices of one contiguous copy of the index arrays; many
    # small per-level copies fragment the heap and raise peak RSS.
    order = np.lexsort((count == 0, level))
    rows, diag, count = lo + order, diag[order], count[order]
    ent = _ranges(begin[order], end[order])
    cols, pos = nbr[ent], pos[ent]
    offset = np.concatenate(([0], np.cumsum(count)))
    cuts = np.searchsorted(level[order],
                           np.arange(level.max(initial=-1) + 2)).tolist()
    sweep = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        e0, e1 = offset[a], offset[b]
        full = a + np.count_nonzero(count[a:b])
        sweep.append((rows[a:b], diag[a:b], cols[e0:e1], pos[e0:e1],
                      offset[a:full] - e0))
    return sweep


def _schedule_segment(factor: CholeskyFactor, lo: int, hi: int):
    """Forward and back level schedules of rows [lo, hi) of the factor.

    The forward sweep reads each row's off-diagonal CSR entries, the back
    sweep the entries below the diagonal in the same column, both in
    stored order, so a row's sum never depends on the segment split.
    """
    local = np.arange(lo - factor.row_start, hi - factor.row_start)
    diag = factor.indptr[local + 1] - 1
    zero = np.flatnonzero(factor.data[diag] == 0)
    if len(zero):
        raise FactorBreakdownError(f"zero pivot in row {lo + int(zero[0])}")
    forward = _schedule_sweep(
        lo, hi, factor.indptr[local], diag, factor.indices,
        np.arange(factor.nnz), diag)
    # The first entry of each column is its diagonal.
    back = _schedule_sweep(
        lo, hi, factor.col_ptr[local] + 1, factor.col_ptr[local + 1],
        factor.col_rows, factor.col_pos, diag)
    return forward, back


def _solve_levels(sweep: list, data: np.ndarray, rhs: np.ndarray,
                  out: np.ndarray) -> None:
    """Triangular solve of one segment, level by level, into ``out``."""
    for rows, diag, cols, pos, starts in sweep:
        acc = rhs[rows]
        if len(starts):
            acc[:len(starts)] -= np.add.reduceat(data[pos] * out[cols],
                                                 starts)
        out[rows] = acc / data[diag]


def forward_back_substitute(factor: CholeskyFactor, b: np.ndarray,
                            partition: RowPartition, rank: int,
                            fabric: CommFabric,
                            concat: str = "spmd") -> np.ndarray:
    """Solve L L^T x = b with the factor's level schedules.

    Full factors are solved in pipelined fashion: each rank solves its
    contiguous segment and broadcasts it so the next segment can start
    (P(P-1) messages per triangular solve).  Block-local factors solve
    independently and merge with one concatenation per triangular solve.
    Either way a rank's rows are solved level by level (see
    ``CholeskyFactor.schedule``), each row summed in its stored order,
    so a full factor gives a result bitwise independent of P.
    """
    n, P = factor.n, fabric.ranks
    lo, hi = partition.dof_range(rank)
    forward, back = factor.schedule(lo, hi)

    def sweep(levels, rhs, segs):
        out = np.zeros(n, dtype=np.complex128)
        if factor.block_local:
            _solve_levels(levels, factor.data, rhs, out)
            return CONCAT_STRATEGIES[concat](
                fabric, rank, SparseVector.from_segment(lo, out[lo:hi], n))
        for seg in segs:
            if seg == rank:
                _solve_levels(levels, factor.data, rhs, out)
                if P > 1:
                    fabric.broadcast(rank, SparseVector.from_segment(
                        lo, out[lo:hi], n))
            else:
                sv = fabric.recv(rank, seg)
                out[sv.indices] = sv.values
        return out

    y = sweep(forward, b, range(P))
    return sweep(back, y, range(P - 1, -1, -1))


# ---------------------------------------------------------------------------
# Conjugate gradient (complex symmetric variant)
# ---------------------------------------------------------------------------

def _apply_preconditioner(precond: Preconditioner, r: np.ndarray,
                          partition: RowPartition, rank: int,
                          fabric: CommFabric, concat: str) -> np.ndarray:
    if precond.kind == "dp":
        return precond.inv_diag * r
    return forward_back_substitute(precond.factor, r, partition, rank,
                                   fabric, concat=concat)


def cg_solve(a, b: np.ndarray, precond: Preconditioner,
             partition: RowPartition, rank: int, fabric: CommFabric,
             concat: str = "spmd", tol: float = 1e-6,
             max_iter: int | None = None):
    """Preconditioned conjugate gradient with the unconjugated bilinear
    form, suitable for the complex symmetric systems assembled here.

    Every rank keeps a full (replicated) copy of all vectors, so scalar
    reductions are message-free; the only per-iteration traffic is the
    concatenation of the partial matrix-vector product (plus the
    preconditioner's triangular-solve traffic).  Returns ``(x, report)``;
    a vanishing bilinear form sets ``report.breakdown`` and stops, which
    is reported distinctly from plain non-convergence.
    """
    n = len(b)
    if max_iter is None:
        max_iter = 10 * n
    concat_fn = CONCAT_STRATEGIES[concat]
    fabric.set_phase(rank, "solve-iteration")

    x = np.zeros(n, dtype=np.complex128)
    r = b.astype(np.complex128).copy()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        report = SolveReport(
            iterations=0, residual_history=[0.0], converged=True,
            breakdown=False, preconditioner=precond.kind, strategy=concat,
            ranks=fabric.ranks, tol=tol, matrix_bytes=a.value_bytes(),
            precond_bytes=precond.memory_bytes(), true_residual=0.0)
        return x, report

    z = _apply_preconditioner(precond, r, partition, rank, fabric, concat)
    p = z.copy()
    rho = np.dot(r, z)
    history = [float(np.linalg.norm(r)) / bnorm]
    converged = False
    breakdown = False
    iterations = 0
    for _ in range(max_iter):
        partial = spmv_partial(a, partition, rank, p)
        q = concat_fn(fabric, rank, partial)
        denom = np.dot(p, q)
        if denom == 0:
            breakdown = True
            break
        alpha = rho / denom
        x = x + alpha * p
        r = r - alpha * q
        iterations += 1
        rel = float(np.linalg.norm(r)) / bnorm
        history.append(rel)
        if rel <= tol:
            converged = True
            break
        z = _apply_preconditioner(precond, r, partition, rank, fabric, concat)
        rho_new = np.dot(r, z)
        if rho_new == 0:
            breakdown = True
            break
        p = z + (rho_new / rho) * p
        rho = rho_new

    true_res = float(np.linalg.norm(b - full_matvec(a, x))) / bnorm
    report = SolveReport(
        iterations=iterations, residual_history=history,
        converged=converged, breakdown=breakdown,
        preconditioner=precond.kind, strategy=concat, ranks=fabric.ranks,
        tol=tol, matrix_bytes=a.value_bytes(),
        precond_bytes=precond.memory_bytes(), true_residual=true_res)
    return x, report
