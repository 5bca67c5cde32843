"""Sparse matrix storage, row partitioning, partial products and export.

Two row-wise representations are provided for the symmetric system
matrix: the lower triangle (storage #1), and storage #1 plus the
mirrored strict upper triangle, so each row holds its full pattern
(storage #2).  Neither keeps a column-wise copy.  ``partition_rows``
gives the row bounds of each rank's contiguous block, whole mesh nodes
of three matrix rows each; the run's ``CommFabric`` holds them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COMPLEX_BYTES = 16   # one double-precision complex value
INDEX_BYTES = 8      # one stored index
# Stored entries per chunk of a pass over a whole block: bounds its
# temporaries at a few MB, or a few hundred kB for bool ones, whatever the
# block size.
_CHUNK = 65_536


class SparseFormatError(ValueError):
    """Malformed sparse matrix data."""


def partition_rows(node_count: int, ranks: int) -> np.ndarray:
    """Row bounds ``row_starts`` (length P + 1) that split N nodes' 3N
    rows over P ranks, whole nodes per rank: rank r owns rows
    [row_starts[r], row_starts[r + 1]), and the first N mod P ranks get
    one extra node."""
    if ranks < 1:
        raise ValueError("ranks must be >= 1")
    if ranks > node_count:
        raise ValueError(f"cannot partition {node_count} nodes over {ranks} ranks")
    base, extra = divmod(node_count, ranks)
    sizes = [base + (1 if r < extra else 0) for r in range(ranks)]
    starts = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    return 3 * starts


class _CsrBase:
    """Shared CSR plumbing: rows [row_start, row_end) of an n x n complex
    matrix, ``indptr`` starting at 0.  The storage layouts hold all n
    rows; a rank's assembled rows travel as one such row block."""

    def __init__(self, n, indptr, indices, data, row_start=0):
        self.n = int(n)
        self.row_start = int(row_start)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.complex128)

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def row_end(self) -> int:
        return self.row_start + len(self.indptr) - 1

    def row(self, i: int):
        lo, hi = self.indptr[i - self.row_start:i - self.row_start + 2]
        return self.indices[lo:hi], self.data[lo:hi]

    def rows(self, lo: int, hi: int) -> "_CsrBase":
        """Rows [lo, hi) as a block on views of this block's ``indices``
        and ``data``."""
        ptr = self.indptr[lo - self.row_start:hi - self.row_start + 1]
        s, e = ptr[0], ptr[-1]
        return _CsrBase(self.n, ptr - s, self.indices[s:e], self.data[s:e],
                        row_start=lo)

    def select(self, keep: np.ndarray) -> "_CsrBase":
        """The same rows with only the entries where ``keep`` is set."""
        kept = np.flatnonzero(keep)
        return _CsrBase(self.n, np.searchsorted(kept, self.indptr),
                        self.indices[kept], self.data[kept],
                        row_start=self.row_start)

    def below_by_column(self, lo: int, hi: int):
        """``(entries, rows, ptr)``: the strict-lower entries of columns
        [lo, hi) and their rows, stable-sorted by column, so rows ascend
        within a column; column j's are ``entries[ptr[j - lo]:ptr[j - lo
        + 1]]``."""
        rows = self.entry_rows()
        below = np.flatnonzero((self.indices < rows) & (self.indices >= lo)
                               & (self.indices < hi))
        below = below[np.argsort(self.indices[below], kind="stable")]
        return below, rows[below], np.searchsorted(self.indices[below],
                                                   np.arange(lo, hi + 1))

    def diagonal_last(self) -> np.ndarray:
        """Whether each row's last stored entry is its diagonal."""
        last = self.indptr[1:] - 1
        stored = np.flatnonzero(last >= self.indptr[:-1])
        on = np.zeros(len(last), dtype=bool)
        on[stored] = self.indices[last[stored]] == self.row_start + stored
        return on

    def entry_rows(self, s: int = 0, e: int | None = None) -> np.ndarray:
        """Row of every stored entry in [s, e), all of them by default."""
        e = self.nnz if e is None else min(e, self.nnz)
        if e <= s:
            return np.empty(0, dtype=np.int64)
        first, last = np.searchsorted(self.indptr, [s, e - 1],
                                      side="right") - 1
        count = np.diff(np.clip(self.indptr[first:last + 2], s, e))
        rows = np.repeat(np.arange(first, last + 1), count)
        rows += self.row_start
        return rows

    def first_row_not_lower(self) -> int | None:
        """First row whose columns are not strictly increasing and at most
        the row, or None.  Checked per chunk of entries: a column not above
        the one before it other than at a row start, then each row ending
        in the chunk by its last column."""
        ptr, ends = self.indptr, self.indptr[1:]
        for s in range(0, self.nnz, _CHUNK):
            e = min(s + _CHUNK, self.nnz)
            prev = max(s - 1, 0)                # the pair across the cut
            c = self.indices[prev:e]
            k = prev + 1 + np.flatnonzero(c[1:] <= c[:-1])
            r = np.searchsorted(ptr, k, side="right") - 1
            bad = r[ptr[r] != k]
            a, b = np.searchsorted(ends, [s, e], side="right")
            ending = a + np.flatnonzero(ends[a:b] > ptr[a:b])   # not empty
            bad = np.append(bad, ending[self.indices[ends[ending] - 1]
                                        > self.row_start + ending])
            if len(bad):
                return self.row_start + int(bad.min())
        return None

    def lower(self) -> "_CsrBase":
        """The entries on or below the diagonal: this block itself when its
        rows hold only those, columns strictly increasing."""
        if self.first_row_not_lower() is None:
            return self
        return self.select(self.where(np.greater_equal))

    def where(self, test) -> np.ndarray:
        """``test(rows, cols)`` of every stored entry, chunk by chunk."""
        keep = np.empty(self.nnz, dtype=bool)
        for s in range(0, self.nnz, _CHUNK):
            keep[s:s + _CHUNK] = test(self.entry_rows(s, s + _CHUNK),
                                      self.indices[s:s + _CHUNK])
        return keep

    def value_bytes(self) -> int:
        return COMPLEX_BYTES * self.nnz

    def diagonal(self) -> np.ndarray:
        """Stored diagonal entries; zero where a row stores none."""
        d = np.zeros(self.n, dtype=np.complex128)
        on = np.flatnonzero(self.where(np.equal))
        d[self.indices[on]] = self.data[on]
        return d


def _ranges(begin: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(b, e)`` over the pairs of begin/end."""
    count = end - begin
    return np.arange(count.sum()) + (end - count.cumsum()).repeat(count)


def _stacked(blocks, n: int):
    """CSR ``(indptr, indices, data)`` of row blocks stacked in order, as
    read-only arrays: they back the objects all ranks share.  Several
    blocks are copied into new arrays; one block is wrapped in read-only
    views of its own, and copied not at all."""
    row = 0
    for k, b in enumerate(blocks):
        if b.row_start != row:
            raise SparseFormatError(
                f"row block {k} starts at row {b.row_start}, expected {row}")
        row = b.row_end
    if row != n:
        raise SparseFormatError(f"row blocks end at row {row}, expected {n}")
    if len(blocks) == 1:
        csr = tuple(a.view() for a in (blocks[0].indptr, blocks[0].indices,
                                       blocks[0].data))
    else:
        csr = (np.concatenate([[0], *(np.diff(b.indptr) for b in blocks)])
               .cumsum(), np.concatenate([b.indices for b in blocks]),
               np.concatenate([b.data for b in blocks]))
    for arr in csr:
        arr.flags.writeable = False
    return csr


class LowerSymmetricRows(_CsrBase):
    """Storage #1: only the lower triangle of a symmetric matrix, row-wise;
    a stored diagonal is its row's last entry."""

    def __init__(self, n, indptr, indices, data):
        super().__init__(n, indptr, indices, data)
        bad = self.first_row_not_lower()
        if bad is not None:
            raise SparseFormatError(
                f"row {bad}: columns must be strictly increasing and <= row")

    @classmethod
    def from_symmetric_rows(cls, blocks, n: int) -> "LowerSymmetricRows":
        """Stack the lower triangles of structurally symmetric row blocks;
        a block that holds only its lower triangle is stacked as it is."""
        return cls(n, *_stacked([b.lower() for b in blocks], n))


class RedundantRows(_CsrBase):
    """Storage #2: storage #1 plus the mirrored strict upper triangle, so
    each row holds its full symmetric pattern; no column-wise copy."""

    @classmethod
    def from_rows(cls, blocks, n: int) -> "RedundantRows":
        """Stack full row blocks that cover rows [0, n) in order."""
        return cls(n, *_stacked(blocks, n))


def to_redundant(m: LowerSymmetricRows) -> RedundantRows:
    """Mirror the lower triangle into the full redundant representation."""
    rows = m.entry_rows()
    off = m.indices < rows
    full_rows = np.concatenate((rows, m.indices[off]))
    full_cols = np.concatenate((m.indices, rows[off]))
    order = np.lexsort((full_cols, full_rows))
    indptr = np.searchsorted(full_rows[order], np.arange(m.n + 1))
    return RedundantRows(m.n, indptr, full_cols[order],
                         np.concatenate((m.data, m.data[off]))[order])


@dataclass
class SparseVector:
    """Non-zero entries of a length-n vector, as sent over the fabric."""
    indices: np.ndarray
    values: np.ndarray
    size: int

    @classmethod
    def from_segment(cls, lo: int, values: np.ndarray, size: int) -> "SparseVector":
        values = np.asarray(values, dtype=np.complex128)
        idx = np.nonzero(values)[0]
        return cls(indices=(lo + idx).astype(np.int64), values=values[idx],
                   size=size)

    def payload_bytes(self) -> int:
        return INDEX_BYTES * len(self.indices) + COMPLEX_BYTES * len(self.values)


def _block_matvec(m: _CsrBase, x: np.ndarray) -> np.ndarray:
    """Product of the block's rows with x."""
    if not m.nnz:
        return np.zeros(len(m.indptr) - 1, dtype=np.complex128)
    # In place, as NumPy runs `m.data * x[m.indices]` for large gathers only.
    prod = x[m.indices]
    prod *= m.data
    out = np.add.reduceat(prod, np.minimum(m.indptr[:-1], m.nnz - 1))
    # reduceat mishandles empty rows: it emits the next segment's first
    # element instead of zero.
    out[np.diff(m.indptr) == 0] = 0.0
    return out


def _lower_matvec(m: LowerSymmetricRows, lo: int, hi: int,
                  x: np.ndarray) -> np.ndarray:
    """Length-n product of rows [lo, hi) of lower-triangle storage with x,
    each stored off-diagonal entry also acting as its transpose."""
    block = m.rows(lo, hi)
    out = np.zeros(m.n, dtype=np.complex128)
    out[lo:hi] = _block_matvec(block, x)
    # np.multiply into the repeat's buffer, not `*`: `*` may reuse that
    # buffer by swapping the operands, and the complex product then rounds
    # differently.
    prod = np.repeat(x[lo:hi], np.diff(block.indptr))
    np.multiply(block.data, prod, out=prod)
    # A diagonal's transpose adds -0.0 to its row before any other transpose
    # does: bitwise a no-op, where +0.0 would turn a -0.0 into +0.0.
    prod[block.indptr[1:][block.diagonal_last()] - 1] = complex(-0.0, -0.0)
    np.add.at(out, block.indices, prod)
    return out


def spmv_partial(m, fabric, rank: int, x: np.ndarray) -> SparseVector:
    """This rank's contribution to A @ x, from the rows the run's
    ``CommFabric`` gives it.

    For storage #2 the result is exactly the owned row segment.  For
    storage #1 each stored lower entry acts both as (i, j) and (j, i), so
    the contribution also scatters below the owned range; the sum over
    ranks equals the full product either way.
    """
    expected = int(fabric.row_starts[-1])
    if len(x) != expected:
        raise ValueError(f"vector length {len(x)} != {expected}")
    lo, hi = fabric.dof_range(rank)
    if isinstance(m, LowerSymmetricRows):
        return SparseVector.from_segment(0, _lower_matvec(m, lo, hi, x), m.n)
    return SparseVector.from_segment(lo, _block_matvec(m.rows(lo, hi), x), m.n)


def full_matvec(m, x: np.ndarray) -> np.ndarray:
    """Serial A @ x over all rows (reporting/verification helper)."""
    if isinstance(m, LowerSymmetricRows):
        return _lower_matvec(m, 0, m.n, x)
    return _block_matvec(m, x)


# ---------------------------------------------------------------------------
# Matrix Market coordinate export, complex field
# ---------------------------------------------------------------------------

def write_matrix_market(path, m) -> None:
    """Write complex coordinate format; symmetry qualifier follows the type."""
    if isinstance(m, LowerSymmetricRows):
        qualifier = "symmetric"
    elif isinstance(m, RedundantRows):
        qualifier = "general"
    else:
        raise TypeError(f"cannot export {type(m).__name__}")
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate complex {qualifier}\n")
        fh.write(f"{m.n} {m.n} {m.nnz}\n")
        for i in range(m.n):
            cols, vals = m.row(i)
            for j, v in zip(cols, vals):
                fh.write(f"{i + 1} {j + 1} {float(v.real)!r} {float(v.imag)!r}\n")


def write_rhs(path, b: np.ndarray) -> None:
    """Side-car right-hand-side vector, one "re im" pair per line."""
    with open(path, "w") as fh:
        fh.write(f"{len(b)}\n")
        for v in b:
            fh.write(f"{float(v.real)!r} {float(v.imag)!r}\n")

