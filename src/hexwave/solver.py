"""Rank-parallel conjugate gradient for complex symmetric systems.

The Krylov loop is the unconjugated-inner-product variant (x^T y, not
x^H y) appropriate for complex symmetric matrices.  Three
preconditioners are available: inverse diagonal (DP), zero-fill
incomplete Cholesky built column by column across ranks (ICP), and a
block variant that factors only rank-local entries and therefore needs
no build communication (BICP).  Both builds run one column kernel: a
rank holds its rows of the lower pattern as flat CSR arrays, and all of
its entries in column j come at once from one gather, multiply and
segmented sum over the row prefixes left of j.  Both factored
preconditioners apply L L^T through one level-scheduled
triangular-solve kernel: the rows of a segment are grouped once per
factor into dependency levels, and each level is solved as one
vectorized gather-and-reduce.  ICP pipelines its
segments over the fabric; BICP blocks solve independently.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
import json
import threading

import numpy as np

from .fabric import CommFabric, CONCAT_STRATEGIES
from .sparse import (COMPLEX_BYTES, LowerSymmetricRows, RedundantRows,
                     RowPartition, SparseVector, _CsrBase, _csr_join, _ranges,
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
        super().__init__(n, indptr, indices, data, row_start)
        self.row_end = row_end
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
        return asdict(self)

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


def _ic_diag(l_row_below: np.ndarray, a_jj: complex, j: int) -> complex:
    val = a_jj - np.dot(l_row_below, l_row_below)
    piv = np.sqrt(np.complex128(val))        # principal branch
    if piv == 0:
        raise FactorBreakdownError(f"zero pivot in column {j}")
    return piv


class _RankFactor:
    """One rank's rows [lo, hi) of the zero-fill factor, built column by
    column (Saad, *Iterative Methods for Sparse Linear Systems*, 2nd ed.,
    section 10.3).

    The pattern is A's lower triangle from column ``col_min`` on, read
    from either storage, held as flat CSR arrays with the diagonal last
    in each row: ``indptr`` (local), ``indices``, the A values ``a`` and
    the factor values ``l``.  ``by_col[col_ptr[j]:col_ptr[j + 1]]`` are
    the strict-lower entries of column j, rows ascending.
    """

    def __init__(self, a: LowerSymmetricRows | RedundantRows, lo: int,
                 hi: int, col_min: int):
        s, e = a.indptr[lo], a.indptr[hi]
        rows = np.repeat(np.arange(lo, hi), np.diff(a.indptr[lo:hi + 1]))
        cols = a.indices[s:e]
        keep = (cols <= rows) & (cols >= col_min)
        rows, self.indices = rows[keep], cols[keep]
        self.a = a.data[s:e][keep]
        self.l = np.zeros(len(self.a), dtype=np.complex128)
        self.indptr = np.searchsorted(rows, np.arange(lo, hi + 1))
        missing = np.ones(hi - lo, dtype=bool)
        missing[rows[self.indices == rows] - lo] = False
        if missing.any():
            raise FactorBreakdownError(
                f"missing diagonal in row {lo + int(np.argmax(missing))}")
        strict = np.flatnonzero(self.indices < rows)
        self.by_col = strict[np.lexsort((rows[strict], self.indices[strict]))]
        self.col_ptr = np.searchsorted(self.indices[self.by_col],
                                       np.arange(a.n + 1))
        # Entries left of each by_col entry in its row.
        self.prefix = self.by_col - self.indptr[rows[self.by_col] - lo]
        self.lo = lo
        self.scratch = np.zeros(a.n, dtype=np.complex128)

    def row(self, j: int):
        """Columns and factor values of row j, diagonal last (views)."""
        s, e = self.indptr[j - self.lo:j - self.lo + 2]
        return self.indices[s:e], self.l[s:e]

    def pivot(self, j: int) -> None:
        """Diagonal of row j, once every entry left of it is known."""
        s, e = self.indptr[j - self.lo:j - self.lo + 2]
        self.l[e - 1] = _ic_diag(self.l[s:e - 1], self.a[e - 1], j)

    def touches(self, j: int) -> bool:
        """Whether a row of this rank has an entry below row j in column j."""
        return self.col_ptr[j + 1] > self.col_ptr[j]

    def column(self, j: int, cols_j: np.ndarray, vals_j: np.ndarray) -> None:
        """Every entry of column j on this rank from row j of L.

        Entry (i, j) subtracts the product of row i's prefix (its entries
        left of column j) with row j, gathered from the dense scratch;
        the prefixes of all rows are summed at once with ``reduceat``.
        """
        c0, c1 = self.col_ptr[j], self.col_ptr[j + 1]
        ent, count = self.by_col[c0:c1], self.prefix[c0:c1]
        new = self.a[ent]
        full = count > 0
        if full.any():
            # reduceat mishandles empty segments, so they are left out.
            self.scratch[cols_j] = vals_j
            pre = _ranges(ent - count, ent)
            prod = self.l[pre] * self.scratch[self.indices[pre]]
            new[full] -= np.add.reduceat(prod, (count.cumsum() - count)[full])
            self.scratch[cols_j] = 0.0
        self.l[ent] = new / vals_j[-1]


def build_bicp(a: LowerSymmetricRows | RedundantRows,
               partition: RowPartition, rank: int) -> CholeskyFactor:
    """Block incomplete Cholesky: only entries with both row and column
    owned by this rank are factored; no communication.  With one rank
    this is exactly the classical ICP factor."""
    lo, hi = partition.dof_range(rank)
    f = _RankFactor(a, lo, hi, col_min=lo)
    for j in range(lo, hi):
        f.pivot(j)
        if f.touches(j):
            f.column(j, *f.row(j))
    return CholeskyFactor(a.n, lo, hi, f.indptr, f.indices, f.l,
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
    f = _RankFactor(a, lo, hi, col_min=0)
    owner = partition.owner_of_dof(np.arange(n))
    dest_ptr, dest = _row_destinations(a, owner, partition.ranks, lo, hi)

    pending = None                      # row j-1 of L, if this rank needs it
    for j in range(n):
        # Pipeline step j: finish column j-1, then compute pivot j.
        if j > 0:
            if f.touches(j - 1):
                if pending is None:
                    pending = fabric.recv(rank, int(owner[j - 1]))
                f.column(j - 1, *pending)
            pending = None
        if lo <= j < hi:
            f.pivot(j)
            row_j = f.row(j)
            for q in dest[dest_ptr[j - lo]:dest_ptr[j - lo + 1]].tolist():
                if q != rank:
                    fabric.send(rank, q, row_j)
            if f.touches(j):
                pending = row_j
        fabric.barrier(rank)

    def join(parts):
        return CholeskyFactor(n, 0, n, *_csr_join(
            [np.diff(p.indptr) for p in parts], [p.indices for p in parts],
            [p.l for p in parts]))

    return fabric.allgather_object(rank, f, join)


# ---------------------------------------------------------------------------
# Triangular solves
# ---------------------------------------------------------------------------

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
