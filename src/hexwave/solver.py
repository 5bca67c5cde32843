"""Rank-parallel conjugate gradient for complex symmetric systems.

The Krylov loop is the unconjugated-inner-product variant (x^T y, not
x^H y) appropriate for complex symmetric matrices.  Three
preconditioners are available: inverse diagonal (DP), zero-fill
incomplete Cholesky built across ranks (ICP), and a block variant that
factors only rank-local entries and therefore needs no build
communication (BICP).  Both builds run one level kernel: columns go by
the dependency level of their row, and a rank's entries in one level's
columns come at once from one gather, multiply and segmented sum over
the row prefixes left of each column.  Both factored
preconditioners apply L L^T through one level-scheduled
triangular-solve kernel: each solve orders its rank's rows once, by
the dependency levels its factor's build found, and solves them in level
order on the segment's slice of the output, one contiguous slice per
level, over values stored in sweep order.  ICP pipelines its segments over the
fabric; a BICP block runs both sweeps on its own rows and the blocks
merge with one concatenation per apply.

Rank threads share only read-only objects (mesh, joined system, ICP
factor; each solve builds its own schedules) and the interpreter lock,
so level sweeps, schedule builds and the BICP level loop, hundreds of
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
                     SparseVector, _CsrBase, _ranges, _stacked, _unique,
                     full_matvec, spmv_partial)

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
    the last entry of each row; ``depth`` (read-only) is the build's
    forward dependency level of each row, which schedules every solve.
    """

    def __init__(self, n, indptr, indices, data, row_start=0, *, depth):
        super().__init__(n, indptr, indices, data, row_start)
        self.depth = np.asarray(depth, dtype=np.int64).view()
        self.depth.flags.writeable = False

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
    one dependency level of columns at a time (Saad, *Iterative Methods
    for Sparse Linear Systems*, 2nd ed., sections 10.3 and 11.6).

    The pattern is A's lower triangle from column ``col_min`` on, read
    from either storage, with the diagonal last in each row; ``data``
    holds the factor values as they are computed and ``a`` the A values.
    ``by_col[col_ptr[j]:col_ptr[j + 1]]`` are the strict-lower entries of
    column j, rows ascending (``below_by_column``).  ``levels`` are the
    columns [col_min, col_end) grouped by ``depth``, their rows' forward
    levels in A's pattern; ``window`` is 1 + the largest i - k of an entry.
    """

    def __init__(self, a: LowerSymmetricRows | RedundantRows, lo: int,
                 hi: int, col_min: int, col_end: int):
        block = a.rows(lo, hi)
        pattern = block.select(block.where(
            lambda rows, cols: (cols <= rows) & (cols >= col_min)))
        super().__init__(a.n, pattern.indptr, pattern.indices,
                         np.zeros(pattern.nnz, dtype=np.complex128), lo)
        self.a = pattern.data
        missing = lo + np.flatnonzero(~self.diagonal_last())
        if len(missing):
            raise FactorBreakdownError(f"missing diagonal in row {missing[0]}")
        self.by_col, by_row, self.col_ptr = self.below_by_column(0, a.n)
        # Entries left of each by_col entry in its row.
        self.prefix = self.by_col - self.indptr[by_row - lo]
        # Only indptr and indices of A: select would copy the values.
        cover = a.rows(col_min, col_end)
        rows = cover.entry_rows()
        lower = cover.indices < rows
        begin = cover.indptr[:-1]
        self.depth = _levels(col_min, col_end, begin, begin + np.bincount(
            rows[lower] - col_min, minlength=col_end - col_min), cover.indices)
        order = np.argsort(self.depth, kind="stable")
        self.levels = np.split(col_min + order,
                               np.flatnonzero(np.diff(self.depth[order])) + 1)
        self.window = 1 + int((rows - cover.indices)[
            lower & (cover.indices >= col_min)].max(initial=0))
        self.scratch = np.zeros(max(map(len, self.levels)) * self.window,
                                dtype=np.complex128)

    def pivots(self, cols: np.ndarray) -> None:
        """Diagonals (principal square roots) of rows ``cols``, ascending,
        once their left is known; the lowest zero one is named."""
        diag = self.indptr[cols - self.row_start + 1] - 1
        left = [np.dot(self.data[s:e], self.data[s:e]) for s, e in zip(
            self.indptr[cols - self.row_start].tolist(), diag.tolist())]
        piv = np.sqrt(self.a[diag] - np.array(left, dtype=np.complex128))
        zero = np.flatnonzero(piv == 0)
        if len(zero):
            raise FactorBreakdownError(f"zero pivot in column {cols[zero[0]]}")
        self.data[diag] = piv

    def level(self, cols: np.ndarray, recv) -> None:
        """Every entry on this rank of one level's columns ``cols`` from
        row j of L, its own or ``recv(j)`` (ascending j).  Entry (i, j)
        subtracts row i's prefix (its entries left of column j) times row
        j, read from a scratch holding L(j, k) at ``slot(j) * window + j -
        k``; all prefixes are summed in one ``reduceat``.  An L(i, k) not
        final yet meets L(j, k) = 0: k is at this level or a later one.
        """
        cols = cols[self.col_ptr[cols + 1] > self.col_ptr[cols]]
        mine = (cols >= self.row_start) & (cols < self.row_end)
        got = [recv(j) for j in cols[~mine].tolist()]
        loc = cols[mine] - self.row_start
        own = _ranges(self.indptr[loc], self.indptr[loc + 1])
        sizes = np.concatenate((self.indptr[loc + 1] - self.indptr[loc],
                                [len(c) for c, _ in got])).astype(np.int64)
        base = np.arange(len(cols)) * self.window + cols
        keys = (np.repeat(np.concatenate((base[mine], base[~mine])), sizes)
                - np.concatenate([self.indices[own]] + [c for c, _ in got]))
        self.scratch[keys] = np.concatenate([self.data[own]]
                                            + [v for _, v in got])
        per_col = self.col_ptr[cols + 1] - self.col_ptr[cols]
        sel = _ranges(self.col_ptr[cols], self.col_ptr[cols + 1])
        ent, count = self.by_col[sel], self.prefix[sel]
        new = self.a[ent]
        pre = _ranges(ent - count, ent)
        at = np.repeat(np.repeat(base, per_col), count) - self.indices[pre]
        prod = self.data[pre] * self.scratch[at]
        # reduceat mishandles empty segments, so they are left out.
        full = count > 0
        new[full] -= np.add.reduceat(prod, (count.cumsum() - count)[full])
        self.data[ent] = new / np.repeat(self.scratch[base - cols], per_col)
        self.scratch[keys] = 0.0


def build_bicp(a: LowerSymmetricRows | RedundantRows, rank: int,
               fabric: CommFabric) -> CholeskyFactor:
    """Block incomplete Cholesky: only entries with both row and column
    owned by this rank are factored; no communication.  With one rank
    this is exactly the classical ICP factor.  Columns run by dependency
    level, so a zero pivot names the lowest of the first level with one."""
    lo, hi = fabric.dof_range(rank)
    f = _RankFactor(a, lo, hi, col_min=lo, col_end=hi)
    with _SERIAL:
        for cols in f.levels:
            f.pivots(cols)
            f.level(cols, None)
    return CholeskyFactor(a.n, f.indptr, f.indices, f.data, lo, depth=f.depth)


def _row_destinations(a: LowerSymmetricRows | RedundantRows, owner,
                      ranks: int, lo: int, hi: int):
    """For each column j in [lo, hi), the later ranks owning a stored row
    below its diagonal, ascending: ``dest[ptr[j - lo]:ptr[j - lo + 1]]``."""
    later = a.rows(hi, a.n)
    below, rows, _ = later.below_by_column(lo, hi)
    key = _unique(later.indices[below] * ranks + owner[rows])
    return np.searchsorted(key, np.arange(lo, hi + 1) * ranks), key % ranks


def build_icp(a: LowerSymmetricRows | RedundantRows, rank: int,
              fabric: CommFabric) -> CholeskyFactor:
    """Level-scheduled zero-fill incomplete Cholesky.

    Column j needs row j of L, final once its left entries' columns are,
    so columns run by the forward dependency level of their row, which
    every rank computes alike (Anderson & Saad, 1989).  Pipeline step per
    level: the owners compute its pivots and ship each row, ascending j,
    to the other ranks with a row below it in its column; every rank
    computes its entries of the level's columns at once.  One barrier
    closes every step (levels + final insertion), and a zero pivot names
    the lowest breaking column of the first level with one.  The final
    insertion stacks the ranks' row blocks into the full factor once
    (they must tile [0, n)), and every rank gets that same read-only
    object.  On a dense pattern the result is the complete Cholesky factor.
    """
    n = a.n
    lo, hi = fabric.dof_range(rank)
    f = _RankFactor(a, lo, hi, col_min=0, col_end=n)
    owner = fabric.owner_of_dof(np.arange(n))
    dest_ptr, dest = _row_destinations(a, owner, fabric.ranks, lo, hi)
    for cols in f.levels:
        own = cols[(cols >= lo) & (cols < hi)]
        f.pivots(own)
        for j in own.tolist():
            for q in dest[dest_ptr[j - lo]:dest_ptr[j - lo + 1]].tolist():
                fabric.send(rank, q, f.row(j))
        f.level(cols, lambda j: fabric.recv(rank, int(owner[j])))
        fabric.barrier(rank)

    return fabric.allgather_object(rank, f, lambda parts: CholeskyFactor(
        n, *_stacked(parts, n), depth=parts[0].depth))


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
        front, depth = _unique(freed[waiting[freed] == 0]), depth + 1
    return level


def _schedule_sweep(lo: int, hi: int, begin, end, nbr, vals, dvals, level):
    """Level schedule of one triangular sweep over rows [lo, hi).

    Row ``lo + r`` subtracts ``vals[e] * out[nbr[e]]`` over the entries
    ``e`` in ``[begin[r], end[r])``, then divides by ``dvals[r]``;
    neighbours outside [lo, hi) are already known, those inside must have
    a lower ``level`` than row r.  Rows of one level value form one step,
    values ascending.  Returns ``(lo, rows, levels)``: the sweep works
    on ``out[lo:hi]`` holding ``rows`` (level by level, rows with entries
    first), with columns in [lo, hi) remapped to those work positions.
    Level ``(a, full, b, cols, vals, starts, dvals)`` solves out[a:b],
    whose rows [a, full) have entries at ``reduceat`` offsets ``starts``.
    """
    count = end - begin
    # Levels are slices of one contiguous copy per sweep; many small
    # per-level copies fragment the heap and raise peak RSS.
    order = np.lexsort((count == 0, level))
    slot = lo + np.argsort(order)                   # work position of a row
    ent = _ranges(begin[order], end[order])
    cols, vals, dvals, count = nbr[ent], vals[ent], dvals[order], count[order]
    inside = (cols >= lo) & (cols < hi)
    cols[inside] = slot[cols[inside] - lo]
    offset = np.concatenate(([0], np.cumsum(count)))
    cuts = _unique(level[order], index=True)[1].tolist() + [hi - lo]
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
    ascending, so a row's sum never depends on the segment split.  Both
    sweeps run by the factor's ``depth``, the back one deepest first; a
    full factor's segment keeps global depths, so it can take more steps
    than its own analysis would (hexwave's box meshes take no more).
    """
    local = np.arange(lo - factor.row_start, hi - factor.row_start)
    diag = factor.indptr[local + 1] - 1
    dvals = factor.data[diag]
    zero = np.flatnonzero(dvals == 0)
    if len(zero):
        raise FactorBreakdownError(f"zero pivot in row {lo + int(zero[0])}")
    depth = factor.depth[local]
    forward = _schedule_sweep(lo, hi, factor.indptr[local], diag,
                              factor.indices, factor.data, dvals, depth)
    below, rows, ptr = factor.below_by_column(lo, hi)
    back = _schedule_sweep(lo, hi, ptr[:-1], ptr[1:], rows,
                           factor.data[below], dvals, -depth)
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
