"""Sparse matrix storage, row partitioning, partial products and export.

Two row-wise representations are provided for the symmetric system
matrix: the lower triangle (storage #1), and storage #1 plus the
mirrored strict upper triangle, so each row holds its full pattern
(storage #2).  Neither carries a column index.  Rows are
block-partitioned across ranks, three matrix rows per mesh node.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COMPLEX_BYTES = 16   # one double-precision complex value
INDEX_BYTES = 8      # one stored index


class SparseFormatError(ValueError):
    """Malformed sparse matrix data."""


@dataclass(frozen=True)
class RowPartition:
    """Contiguous node ranges per rank; each node owns ``dofs_per_node``
    complex rows (3 for the field problem, 1 for raw test matrices)."""
    node_starts: np.ndarray      # length P+1, ascending
    dofs_per_node: int = 3

    @property
    def ranks(self) -> int:
        return len(self.node_starts) - 1

    @property
    def node_count(self) -> int:
        return int(self.node_starts[-1])

    def node_range(self, rank: int) -> tuple[int, int]:
        return int(self.node_starts[rank]), int(self.node_starts[rank + 1])

    def dof_range(self, rank: int) -> tuple[int, int]:
        lo, hi = self.node_range(rank)
        return self.dofs_per_node * lo, self.dofs_per_node * hi

    def owner_of_node(self, node):
        """Rank owning a node, or the owners of an array of nodes."""
        owner = np.searchsorted(self.node_starts, node, side="right") - 1
        return owner if np.ndim(owner) else int(owner)

    def owner_of_dof(self, dof):
        return self.owner_of_node(dof // self.dofs_per_node)


def partition_rows(node_count: int, ranks: int) -> RowPartition:
    """Split N nodes over P ranks; the first N mod P ranks get one extra."""
    if ranks < 1:
        raise ValueError("ranks must be >= 1")
    if ranks > node_count:
        raise ValueError(f"cannot partition {node_count} nodes over {ranks} ranks")
    base, extra = divmod(node_count, ranks)
    sizes = [base + (1 if r < extra else 0) for r in range(ranks)]
    starts = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    return RowPartition(node_starts=starts)


class _CsrBase:
    """Shared CSR plumbing: rows [row_start, row_start + len(indptr) - 1)
    of an n x n complex matrix.  The storage layouts hold all n rows; a
    rank's assembled rows travel as one such row block."""

    def __init__(self, n, indptr, indices, data, row_start=0):
        self.n = int(n)
        self.row_start = int(row_start)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.complex128)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def row(self, i: int):
        lo, hi = self.indptr[i - self.row_start:i - self.row_start + 2]
        return self.indices[lo:hi], self.data[lo:hi]

    def entry_rows(self) -> np.ndarray:
        """Row of every stored entry."""
        return self.row_start + np.repeat(np.arange(len(self.indptr) - 1),
                                          np.diff(self.indptr))

    def value_bytes(self) -> int:
        return COMPLEX_BYTES * self.nnz

    def diagonal(self) -> np.ndarray:
        """Stored diagonal entries; zero where a row stores none."""
        rows = self.entry_rows()
        on = self.indices == rows
        d = np.zeros(self.n, dtype=np.complex128)
        d[rows[on]] = self.data[on]
        return d

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.complex128)
        a[self.entry_rows(), self.indices] = self.data
        return a


def _ranges(begin: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(b, e)`` over the pairs of begin/end."""
    count = end - begin
    return np.arange(count.sum()) + (end - count.cumsum()).repeat(count)


def _csr_join(counts, indices, data):
    """CSR ``(indptr, indices, data)`` of consecutive row pieces, each
    given as its row lengths, columns and values."""
    return (np.concatenate([[0], *counts]).cumsum(),
            np.concatenate(indices or [[]]), np.concatenate(data or [[]]))


def _stacked(blocks, n: int):
    """CSR ``(indptr, indices, data)`` of row blocks stacked in order."""
    ends = [b.row_start + len(b.indptr) - 1 for b in blocks]
    if [b.row_start for b in blocks] + [n] != [0] + ends:
        raise SparseFormatError(f"row blocks do not cover rows [0, {n})")
    return _csr_join([np.diff(b.indptr) for b in blocks],
                     [b.indices for b in blocks], [b.data for b in blocks])


class LowerSymmetricRows(_CsrBase):
    """Storage #1: only the lower triangle of a symmetric matrix, row-wise."""

    def __init__(self, n, indptr, indices, data):
        super().__init__(n, indptr, indices, data)
        rows = self.entry_rows()
        bad = self.indices > rows
        bad[1:] |= (np.diff(rows) == 0) & (np.diff(self.indices) <= 0)
        if bad.any():
            raise SparseFormatError(
                f"row {rows[np.argmax(bad)]}: columns must be strictly "
                "increasing and <= row")

    @classmethod
    def from_symmetric_rows(cls, blocks, n: int) -> "LowerSymmetricRows":
        """Keep the lower triangle of structurally symmetric row blocks."""
        indptr, indices, data = _stacked(blocks, n)
        entry_rows = np.repeat(np.arange(n), np.diff(indptr))
        keep = indices <= entry_rows
        return cls(n, np.searchsorted(entry_rows[keep], np.arange(n + 1)),
                   indices[keep], data[keep])

    def to_dense(self) -> np.ndarray:
        a = super().to_dense()
        a[self.indices, self.entry_rows()] = self.data
        return a


class RedundantRows(_CsrBase):
    """Storage #2: storage #1 plus the mirrored strict upper triangle, so
    each row holds its full symmetric pattern; no column index."""

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
    def from_dense(cls, x: np.ndarray) -> "SparseVector":
        idx = np.nonzero(x)[0]
        return cls(indices=idx.astype(np.int64), values=x[idx], size=len(x))

    @classmethod
    def from_segment(cls, lo: int, values: np.ndarray, size: int) -> "SparseVector":
        values = np.asarray(values, dtype=np.complex128)
        idx = np.nonzero(values)[0]
        return cls(indices=(lo + idx).astype(np.int64), values=values[idx],
                   size=size)

    def payload_bytes(self) -> int:
        return INDEX_BYTES * len(self.indices) + COMPLEX_BYTES * len(self.values)


def _segment_matvec(m: _CsrBase, lo: int, hi: int, x: np.ndarray) -> np.ndarray:
    """Product of rows [lo, hi) with x."""
    s, e = int(m.indptr[lo]), int(m.indptr[hi])
    if s == e:
        return np.zeros(hi - lo, dtype=np.complex128)
    prod = m.data[s:e] * x[m.indices[s:e]]
    starts = (m.indptr[lo:hi] - s).astype(np.int64)
    out = np.add.reduceat(prod, np.minimum(starts, e - s - 1))
    # reduceat mishandles empty rows: it emits the next segment's first
    # element instead of zero.
    empty = np.diff(m.indptr[lo:hi + 1]) == 0
    if np.any(empty):
        out = out.copy()
        out[empty] = 0.0
    return out


def _lower_matvec(m: LowerSymmetricRows, lo: int, hi: int,
                  x: np.ndarray) -> np.ndarray:
    """Length-n product of rows [lo, hi) of lower-triangle storage with x,
    each stored off-diagonal entry also acting as its transpose."""
    out = np.zeros(m.n, dtype=np.complex128)
    out[lo:hi] = _segment_matvec(m, lo, hi, x)
    s, e = m.indptr[lo], m.indptr[hi]
    cols = m.indices[s:e]
    rows = np.repeat(np.arange(lo, hi), np.diff(m.indptr[lo:hi + 1]))
    off = cols < rows
    np.add.at(out, cols[off], m.data[s:e][off] * x[rows[off]])
    return out


def spmv_partial(m, partition: RowPartition, rank: int,
                 x: np.ndarray) -> SparseVector:
    """This rank's contribution to A @ x.

    For storage #2 the result is exactly the owned row segment.  For
    storage #1 each stored lower entry acts both as (i, j) and (j, i), so
    the contribution also scatters below the owned range; the sum over
    ranks equals the full product either way.
    """
    expected = partition.dofs_per_node * partition.node_count
    if len(x) != expected:
        raise ValueError(f"vector length {len(x)} != {expected}")
    lo, hi = partition.dof_range(rank)
    if isinstance(m, LowerSymmetricRows):
        return SparseVector.from_dense(_lower_matvec(m, lo, hi, x))
    return SparseVector.from_segment(lo, _segment_matvec(m, lo, hi, x), m.n)


def full_matvec(m, x: np.ndarray) -> np.ndarray:
    """Serial A @ x over all rows (reporting/verification helper)."""
    if isinstance(m, LowerSymmetricRows):
        return _lower_matvec(m, 0, m.n, x)
    return _segment_matvec(m, 0, m.n, x)


# ---------------------------------------------------------------------------
# Matrix Market coordinate export, complex field
# ---------------------------------------------------------------------------

def write_matrix_market(path, m, comment: str = "") -> None:
    """Write complex coordinate format; symmetry qualifier follows the type."""
    if isinstance(m, LowerSymmetricRows):
        qualifier = "symmetric"
    elif isinstance(m, RedundantRows):
        qualifier = "general"
    else:
        raise TypeError(f"cannot export {type(m).__name__}")
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate complex {qualifier}\n")
        if comment:
            fh.write(f"% {comment}\n")
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

