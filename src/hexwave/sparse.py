"""Sparse matrix storage, row partitioning and partial products.

Two representations are provided for the structurally symmetric system
matrix: a lower-triangle row-wise form (storage #1) and a redundant
row-wise form that additionally carries a column-access index so all
entries of one column sit in a contiguous range (storage #2).  Rows are
block-partitioned across ranks, three matrix rows per mesh node.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COMPLEX_BYTES = 16   # one double-precision complex value
INDEX_BYTES = 8      # one stored index


class SparseFormatError(ValueError):
    """Malformed sparse matrix data or file."""


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


def _csr_from_rows(rows, n: int):
    """CSR ``(indptr, indices, data)`` of n rows given as (columns, values)."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(cols) for cols, _ in rows], out=indptr[1:])
    indices = np.concatenate([cols for cols, _ in rows] or [[]])
    data = np.concatenate([vals for _, vals in rows] or [[]])
    return (indptr, np.asarray(indices, dtype=np.int64),
            np.asarray(data, dtype=np.complex128))


def column_index(entry_rows: np.ndarray, indices: np.ndarray, lo: int,
                 hi: int):
    """CSC-style twin ``(col_ptr, col_rows, col_pos)`` of CSR entries whose
    columns lie in [lo, hi): the entries of column j sit at positions
    ``col_pos[col_ptr[j - lo]:col_ptr[j - lo + 1]]``, rows ascending."""
    order = np.lexsort((entry_rows, indices))
    col_ptr = np.searchsorted(indices[order], np.arange(lo, hi + 1))
    return col_ptr, entry_rows[order], order


class _CsrBase:
    """Shared CSR plumbing: rows [row_start, row_start + len(indptr) - 1)
    of an n x n complex matrix.  The storage layouts hold all n rows."""
    row_start = 0

    def __init__(self, n, indptr, indices, data):
        self.n = int(n)
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

    def index_bytes(self) -> int:
        return INDEX_BYTES * self.nnz

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


class GeneralRows(_CsrBase):
    """Plain row-wise sparse matrix with no symmetry assumption.

    Used for systems before symmetrization and for Matrix Market round
    trips of "general" files.
    """

    @classmethod
    def from_rows(cls, rows, n: int) -> "GeneralRows":
        return cls(n, *_csr_from_rows(rows, n))


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
    def from_symmetric_rows(cls, rows, n: int) -> "LowerSymmetricRows":
        """Keep the lower triangle of full structurally symmetric rows."""
        indptr, indices, data = _csr_from_rows(rows, n)
        entry_rows = np.repeat(np.arange(n), np.diff(indptr))
        keep = indices <= entry_rows
        return cls(n, np.searchsorted(entry_rows[keep], np.arange(n + 1)),
                   indices[keep], data[keep])

    def to_dense(self) -> np.ndarray:
        a = super().to_dense()
        a[self.indices, self.entry_rows()] = self.data
        return a


class RedundantRows(_CsrBase):
    """Storage #2: full symmetric pattern row-wise plus a column index.

    ``col_ptr``/``col_rows``/``col_pos`` form a CSC-style index: the
    entries of column j are ``data[col_pos[col_ptr[j]:col_ptr[j+1]]]`` at
    rows ``col_rows[...]`` - a contiguous traversal per column.
    """

    def __init__(self, n, indptr, indices, data):
        super().__init__(n, indptr, indices, data)
        self.col_ptr, self.col_rows, self.col_pos = column_index(
            self.entry_rows(), self.indices, 0, self.n)

    @classmethod
    def from_rows(cls, rows, n: int) -> "RedundantRows":
        return cls(n, *_csr_from_rows(rows, n))

    def column(self, j: int):
        lo, hi = self.col_ptr[j], self.col_ptr[j + 1]
        return self.col_rows[lo:hi], self.data[self.col_pos[lo:hi]]


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

    def densify(self) -> np.ndarray:
        out = np.zeros(self.size, dtype=np.complex128)
        out[self.indices] = self.values
        return out

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
# Matrix Market coordinate format, complex field
# ---------------------------------------------------------------------------

def write_matrix_market(path, m, comment: str = "") -> None:
    """Write complex coordinate format; symmetry qualifier follows the type."""
    if isinstance(m, LowerSymmetricRows):
        qualifier = "symmetric"
    elif isinstance(m, (RedundantRows, GeneralRows)):
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


def read_matrix_market(path):
    """Read a complex coordinate file.

    Returns :class:`LowerSymmetricRows` for symmetric files and
    :class:`GeneralRows` for general files.
    """
    with open(path) as fh:
        header = fh.readline().strip().split()
        if (len(header) != 5 or header[0] != "%%MatrixMarket"
                or header[1:3] != ["matrix", "coordinate"]):
            raise SparseFormatError(f"bad Matrix Market header: {header}")
        field_kind, qualifier = header[3], header[4]
        if field_kind != "complex":
            raise SparseFormatError(f"unsupported field {field_kind!r}")
        if qualifier not in ("general", "symmetric"):
            raise SparseFormatError(f"unsupported qualifier {qualifier!r}")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        try:
            nrows, ncols, nnz = map(int, line.split())
        except ValueError:
            raise SparseFormatError(f"bad size line: {line!r}") from None
        if nrows != ncols:
            raise SparseFormatError("matrix must be square")
        entries: list[dict] = [dict() for _ in range(nrows)]
        count = 0
        for line in fh:
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 4:
                raise SparseFormatError(f"bad entry line: {line!r}")
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise SparseFormatError(f"index out of bounds: {line!r}")
            v = complex(float(parts[2]), float(parts[3]))
            if qualifier == "symmetric" and j > i:
                raise SparseFormatError(
                    f"upper-triangle entry ({i + 1},{j + 1}) in symmetric file")
            entries[i][j] = v
            count += 1
        if count != nnz:
            raise SparseFormatError(f"expected {nnz} entries, found {count}")
    rows = []
    for row in entries:
        cols = np.asarray(sorted(row), dtype=np.int64)
        rows.append((cols, np.asarray([row[int(c)] for c in cols])))
    if qualifier == "symmetric":
        return LowerSymmetricRows(nrows, *_csr_from_rows(rows, nrows))
    return GeneralRows.from_rows(rows, nrows)


def write_rhs(path, b: np.ndarray) -> None:
    """Side-car right-hand-side vector, one "re im" pair per line."""
    with open(path, "w") as fh:
        fh.write(f"{len(b)}\n")
        for v in b:
            fh.write(f"{float(v.real)!r} {float(v.imag)!r}\n")


def read_rhs(path) -> np.ndarray:
    with open(path) as fh:
        n = int(fh.readline())
        vals = [complex(float(r), float(i))
                for r, i in (line.split() for line in fh if line.strip())]
    if len(vals) != n:
        raise SparseFormatError(f"expected {n} values, found {len(vals)}")
    return np.asarray(vals, dtype=np.complex128)
