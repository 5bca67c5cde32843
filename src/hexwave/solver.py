"""Rank-parallel conjugate gradient for complex symmetric systems.

The Krylov loop is the unconjugated-inner-product variant (x^T y, not
x^H y) appropriate for complex symmetric matrices.  Three
preconditioners are available: inverse diagonal (DP), zero-fill
incomplete Cholesky built column by column across ranks (ICP), and a
block variant that factors only rank-local entries and therefore needs
no build communication (BICP).  Both builds run one column kernel: a
rank holds its rows of the lower pattern as one CSR row block
(``sparse._CsrBase``, indexed by column with ``below_by_column``), and
all of its entries in column j come at once from one gather, multiply
and segmented sum over the row prefixes left of j.  Both factored
preconditioners apply L L^T through one level-scheduled
triangular-solve kernel: each solve groups its rank's rows once, at
its first apply, into dependency levels, and solves them in level order
on the segment's slice of the output, one contiguous slice per level,
over values stored in sweep order.  ICP pipelines its segments over the
fabric; a BICP block runs both sweeps on its own rows and the blocks
merge with one concatenation per apply.

Rank threads share only read-only objects (mesh, joined system, ICP
factor; each solve builds its own schedules) and the interpreter lock,
so level sweeps, schedule builds and the BICP column loop, hundreds of
small NumPy calls each, run one rank at a time under ``_SERIAL`` rather
than trade that lock at every call; the SpMV and vector operations,
whose large calls release it, still overlap.
Wall time at P > 1 is therefore simulation overhead, not speedup.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
import threading

import numpy as np

from .fabric import CommFabric
from .sparse import (COMPLEX_BYTES, LowerSymmetricRows, RedundantRows,
                     SparseVector, _CsrBase, _ranges, _stacked, full_matvec,
                     spmv_partial)

_SERIAL = threading.Lock()      # never held across a fabric call


class SolverError(RuntimeError):
    pass


class SingularPreconditionerError(SolverError):
    """A zero diagonal entry makes the diagonal preconditioner singular."""


class FactorBreakdownError(SolverError):
    """An exactly zero pivot aborted the incomplete factorization."""


class CholeskyFactor(_CsrBase):
    """Zero-fill lower factor on (a sub-pattern of) A's lower pattern.

    Rows [row_start, row_end) are stored CSR-style with the diagonal as
    the last entry of each row.
    """

    @property
    def block_local(self) -> bool:
        """A BICP block of several ranks: fewer than n rows, and columns
        only among its own rows."""
        return self.row_end - self.row_start < self.n


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
    only (16 B each), not index arrays or level schedules, whose sweeps
    hold their own copies of the factor values (2 x 2.8 MB on scatter-icp).
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


# ---------------------------------------------------------------------------
# Preconditioner construction
# ---------------------------------------------------------------------------

def build_dp(a) -> Preconditioner:
    """Inverse of the matrix diagonal; no message passing."""
    d = a.diagonal()
    zero = np.nonzero(d == 0)[0]
    if len(zero):
        raise SingularPreconditionerError(
            f"zero diagonal entry in row {int(zero[0])}")
    return Preconditioner(kind="dp", inv_diag=1.0 / d)


class _RankFactor(_CsrBase):
    """One rank's rows [row_start, row_end) of the zero-fill factor, built
    column by column (Saad, *Iterative Methods for Sparse Linear Systems*,
    2nd ed., section 10.3).

    The pattern is A's lower triangle from column ``col_min`` on, read
    from either storage, with the diagonal last in each row; ``data``
    holds the factor values as they are computed and ``a`` the A values.
    ``by_col[col_ptr[j]:col_ptr[j + 1]]`` are the strict-lower entries of
    column j, rows ascending (``below_by_column``).
    """

    def __init__(self, a: LowerSymmetricRows | RedundantRows, lo: int,
                 hi: int, col_min: int):
        block = a.rows(lo, hi)
        pattern = block.select((block.indices <= block.entry_rows())
                               & (block.indices >= col_min))
        super().__init__(a.n, pattern.indptr, pattern.indices,
                         np.zeros(pattern.nnz, dtype=np.complex128), lo)
        self.a = pattern.data
        missing = np.setdiff1d(np.arange(lo, hi),
                               self.indices[self.indices == self.entry_rows()])
        if len(missing):
            raise FactorBreakdownError(f"missing diagonal in row {missing[0]}")
        self.by_col, by_row, self.col_ptr = self.below_by_column(0, a.n)
        # Entries left of each by_col entry in its row.
        self.prefix = self.by_col - self.indptr[by_row - lo]
        self.scratch = np.zeros(a.n, dtype=np.complex128)

    def pivot(self, j: int) -> None:
        """Row j's diagonal (principal square root) once its left is known."""
        s, e = self.indptr[j - self.row_start:j - self.row_start + 2]
        left = self.data[s:e - 1]
        piv = np.sqrt(np.complex128(self.a[e - 1] - np.dot(left, left)))
        if piv == 0:
            raise FactorBreakdownError(f"zero pivot in column {j}")
        self.data[e - 1] = piv

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
            prod = self.data[pre] * self.scratch[self.indices[pre]]
            new[full] -= np.add.reduceat(prod, (count.cumsum() - count)[full])
            self.scratch[cols_j] = 0.0
        self.data[ent] = new / vals_j[-1]


def build_bicp(a: LowerSymmetricRows | RedundantRows, rank: int,
               fabric: CommFabric) -> CholeskyFactor:
    """Block incomplete Cholesky: only entries with both row and column
    owned by this rank are factored; no communication.  With one rank
    this is exactly the classical ICP factor."""
    lo, hi = fabric.dof_range(rank)
    f = _RankFactor(a, lo, hi, col_min=lo)
    with _SERIAL:
        for j in range(lo, hi):
            f.pivot(j)
            if f.touches(j):
                f.column(j, *f.row(j))
    return CholeskyFactor(a.n, f.indptr, f.indices, f.data, lo)


def _row_destinations(a: LowerSymmetricRows | RedundantRows, owner,
                      ranks: int, lo: int, hi: int):
    """For each column j in [lo, hi), the ranks owning a stored row below
    its diagonal, ascending: ``dest[ptr[j - lo]:ptr[j - lo + 1]]``."""
    below, rows, _ = a.below_by_column(lo, hi)
    key = np.unique(a.indices[below] * ranks + owner[rows])
    return np.searchsorted(key, np.arange(lo, hi + 1) * ranks), key % ranks


def build_icp(a: LowerSymmetricRows | RedundantRows, rank: int,
              fabric: CommFabric) -> CholeskyFactor:
    """Column-parallel zero-fill incomplete Cholesky.

    Pipeline step j: the owner of row j computes its pivot and ships the
    row over the fabric to the other ranks with a row below it in column
    j; then every such rank computes its entries of column j, from its
    own row j or the one it receives.  One barrier closes every step
    (n columns + final insertion).
    The final insertion stacks the ranks' row blocks into the full
    factor once (they must tile [0, n)), and every rank gets that same
    read-only object.  On a dense pattern the result is the
    complete Cholesky factor.
    """
    n = a.n
    lo, hi = fabric.dof_range(rank)
    f = _RankFactor(a, lo, hi, col_min=0)
    owner = fabric.owner_of_dof(np.arange(n))
    dest_ptr, dest = _row_destinations(a, owner, fabric.ranks, lo, hi)

    for j in range(n):
        if lo <= j < hi:
            f.pivot(j)
            row_j = f.row(j)
            for q in dest[dest_ptr[j - lo]:dest_ptr[j - lo + 1]].tolist():
                if q != rank:
                    fabric.send(rank, q, row_j)
        elif f.touches(j):
            row_j = fabric.recv(rank, int(owner[j]))
        if f.touches(j):
            f.column(j, *row_j)
        fabric.barrier(rank)

    return fabric.allgather_object(
        rank, f, lambda parts: CholeskyFactor(n, *_stacked(parts, n)))


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


def _schedule_sweep(lo: int, hi: int, begin, end, nbr, vals, dvals):
    """Level schedule of one triangular sweep over rows [lo, hi).

    Row ``lo + r`` subtracts ``vals[e] * out[nbr[e]]`` over the entries
    ``e`` in ``[begin[r], end[r])``, then divides by ``dvals[r]``;
    neighbours inside [lo, hi) must be solved first, neighbours outside
    are already known.  Returns ``(lo, rows, levels)``: the sweep works
    on ``out[lo:hi]`` holding ``rows`` (level by level, rows with entries
    first), with columns in [lo, hi) remapped to those work positions.
    Level ``(a, full, b, cols, vals, starts, dvals)`` solves out[a:b],
    whose rows [a, full) have entries at ``reduceat`` offsets ``starts``.
    """
    count = end - begin
    level = _levels(lo, hi, begin, end, nbr)
    # Levels are slices of one contiguous copy per sweep; many small
    # per-level copies fragment the heap and raise peak RSS.
    order = np.lexsort((count == 0, level))
    slot = lo + np.argsort(order)                   # work position of a row
    ent = _ranges(begin[order], end[order])
    cols, vals, dvals, count = nbr[ent], vals[ent], dvals[order], count[order]
    inside = (cols >= lo) & (cols < hi)
    cols[inside] = slot[cols[inside] - lo]
    offset = np.concatenate(([0], np.cumsum(count)))
    cuts = np.searchsorted(level[order],
                           np.arange(level.max(initial=-1) + 2)).tolist()
    levels = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        e0, e1 = offset[a], offset[b]
        full = a + np.count_nonzero(count[a:b])
        levels.append((lo + a, lo + full, lo + b, cols[e0:e1], vals[e0:e1],
                       offset[a:full] - e0, dvals[a:b]))
    return lo, lo + order, levels


def _schedule_segment(factor: CholeskyFactor, lo: int, hi: int):
    """Forward and back level schedules of rows [lo, hi) of the factor.

    The forward sweep reads each row's off-diagonal CSR entries, the back
    sweep the entries below the diagonal in the same column, rows
    ascending, so a row's sum never depends on the segment split.
    """
    local = np.arange(lo - factor.row_start, hi - factor.row_start)
    diag = factor.indptr[local + 1] - 1
    dvals = factor.data[diag]
    zero = np.flatnonzero(dvals == 0)
    if len(zero):
        raise FactorBreakdownError(f"zero pivot in row {lo + int(zero[0])}")
    forward = _schedule_sweep(lo, hi, factor.indptr[local], diag,
                              factor.indices, factor.data, dvals)
    below, rows, ptr = factor.below_by_column(lo, hi)
    back = _schedule_sweep(lo, hi, ptr[:-1], ptr[1:], rows,
                           factor.data[below], dvals)
    return forward, back


def _solve_levels(sweep, rhs: np.ndarray, out: np.ndarray) -> None:
    """Solve one sweep in level order on out[lo:hi], then unpermute it."""
    lo, rows, levels = sweep
    with _SERIAL:
        work = out[lo:lo + len(rows)]
        np.take(rhs, rows, out=work)
        for a, full, b, cols, vals, starts, dvals in levels:
            if len(starts):
                # Not in place on the gather: the product keeps this order.
                out[a:full] -= np.add.reduceat(np.multiply(vals, out[cols]),
                                               starts)
            out[a:b] /= dvals
        out[rows] = work.copy()


def forward_back_substitute(factor: CholeskyFactor, b: np.ndarray,
                            fabric: CommFabric, rank: int,
                            sweeps) -> np.ndarray:
    """Solve L L^T x = b with the ``(forward, back)`` level schedules of
    this rank's rows (``_schedule_segment``).

    Full factors are solved in pipelined fashion: each rank solves its
    contiguous segment and broadcasts it so the next segment can start
    (P(P-1) messages per triangular solve).  A block-local factor's back
    sweep reads only its own rows, so each block runs both sweeps alone
    and the blocks merge with one concatenation per apply.  Either way a
    rank's rows are solved level by level, each row summed in a fixed
    order, so a full factor gives a result bitwise independent of P.
    """
    n, P = factor.n, fabric.ranks
    lo, hi = fabric.dof_range(rank)
    forward, back = sweeps
    b = np.asarray(b, dtype=np.complex128)
    if factor.block_local:
        y, x = np.zeros((2, n), dtype=np.complex128)
        _solve_levels(forward, b, y)
        _solve_levels(back, y, x)
        return fabric.concat(rank, SparseVector.from_segment(lo, x[lo:hi], n))

    def sweep(levels, rhs, segs):
        out = np.zeros(n, dtype=np.complex128)
        for seg in segs:
            if seg == rank:
                _solve_levels(levels, rhs, out)
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

# OpenBLAS splits a dot longer than 10,000 entries over its thread pool,
# so its bits follow the core count; the CG sums fixed blocks in order.
_DOT_BLOCK = 8192


def _dot(u: np.ndarray, v: np.ndarray):
    total = np.dot(u[:_DOT_BLOCK], v[:_DOT_BLOCK])
    for k in range(_DOT_BLOCK, len(u), _DOT_BLOCK):
        total += np.dot(u[k:k + _DOT_BLOCK], v[k:k + _DOT_BLOCK])
    return total


def _norm(u: np.ndarray) -> float:
    """np.linalg.norm's formula for complex input, over _dot."""
    return float(np.sqrt(_dot(u.real, u.real) + _dot(u.imag, u.imag)))


def cg_solve(a, b: np.ndarray, precond: Preconditioner, rank: int,
             fabric: CommFabric, tol: float = 1e-6,
             max_iter: int | None = None):
    """Preconditioned conjugate gradient with the unconjugated bilinear
    form, suitable for the complex symmetric systems assembled here.

    Every rank keeps a full (replicated) copy of all vectors, so scalar
    reductions are message-free; the only per-iteration traffic is the
    concatenation of the partial matrix-vector product (plus the
    preconditioner's triangular-solve traffic).  Level schedules of this
    rank's rows are built once, before the first apply.  Returns
    ``(x, report)``; a vanishing bilinear form sets ``report.breakdown``
    and stops, which is reported distinctly from plain non-convergence.
    """
    n = len(b)
    if max_iter is None:
        max_iter = 10 * n
    fabric.set_phase(rank, "solve-iteration")

    x = np.zeros(n, dtype=np.complex128)
    r = b.astype(np.complex128).copy()
    bnorm = _norm(r)
    # A zero right-hand side is solved by x = 0, before any message.
    history, converged, breakdown, iterations = [0.0], True, False, 0
    true_res = 0.0
    if bnorm != 0.0:
        if precond.kind == "dp":
            def apply(v):
                return precond.inv_diag * v
        else:
            with _SERIAL:
                sweeps = _schedule_segment(precond.factor,
                                           *fabric.dof_range(rank))

            def apply(v):
                return forward_back_substitute(precond.factor, v, fabric,
                                               rank, sweeps)
        z = apply(r)
        p = z.copy()
        rho = _dot(r, z)
        history, converged = [_norm(r) / bnorm], False
        for _ in range(max_iter):
            partial = spmv_partial(a, fabric, rank, p)
            q = fabric.concat(rank, partial)
            denom = _dot(p, q)
            if denom == 0:
                breakdown = True
                break
            alpha = rho / denom
            x = x + alpha * p
            r = r - alpha * q
            iterations += 1
            rel = _norm(r) / bnorm
            history.append(rel)
            if rel <= tol:
                converged = True
                break
            z = apply(r)
            rho_new = _dot(r, z)
            if rho_new == 0:
                breakdown = True
                break
            p = z + (rho_new / rho) * p
            rho = rho_new
        true_res = _norm(b - full_matvec(a, x)) / bnorm

    report = SolveReport(
        iterations=iterations, residual_history=history,
        converged=converged, breakdown=breakdown, preconditioner=precond.kind,
        strategy=fabric.strategy, ranks=fabric.ranks, tol=tol,
        matrix_bytes=a.value_bytes(),
        precond_bytes=precond.memory_bytes(), true_residual=true_res)
    return x, report
