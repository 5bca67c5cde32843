"""Shared oracles and helpers for the test suite.

The oracles here are deliberately independent of the package
implementation: element integrals come from closed-form tensor products
of 1D linear-element matrices, global assembly from a dense
element-by-element scatter, the storage-1 product from a mask over the
strict lower entries, the incomplete factorization from a dense
zero-fill loop, a sparse loop over single stored entries or the
column-by-column build, and dense matrices and the CSR row-block
operations from loops over rows and stored entries.
"""
from __future__ import annotations

import numpy as np
import pytest

from hexwave.fabric import CommFabric
from hexwave.mesh import HEX_CORNERS, HEX_FACES, FacetKind
from hexwave.solver import (CholeskyFactor, FactorBreakdownError, _levels,
                            _RankFactor, _schedule_segment,
                            forward_back_substitute)
from hexwave.sparse import (LowerSymmetricRows, _CsrBase, _block_matvec,
                            _ranges, partition_rows)


# ---------------------------------------------------------------------------
# Closed-form 1D linear element matrices on [0, h]
# ---------------------------------------------------------------------------

def mass_1d(h: float) -> np.ndarray:
    return h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])


def stiffness_1d(h: float) -> np.ndarray:
    return 1.0 / h * np.array([[1.0, -1.0], [-1.0, 1.0]])


def deriv_1d() -> np.ndarray:
    """d[i, j] = integral of Ni' * Nj over [0, h] (h-independent)."""
    return np.array([[-0.5, -0.5], [0.5, 0.5]])


def grad_product_3d(h: float, i: int, j: int) -> np.ndarray:
    """(8, 8) closed-form integral of dNa/dx_i * dNb/dx_j on an h-cube."""
    out = np.zeros((8, 8))
    m, s, d = mass_1d(h), stiffness_1d(h), deriv_1d()
    for a in range(8):
        for b in range(8):
            val = 1.0
            for ax in range(3):
                ia, ib = HEX_CORNERS[a][ax], HEX_CORNERS[b][ax]
                if i == ax and j == ax:
                    val *= s[ia, ib]
                elif i == ax:
                    val *= d[ia, ib]
                elif j == ax:
                    val *= d[ib, ia]
                else:
                    val *= m[ia, ib]
            out[a, b] = val
    return out


def mass_3d(h: float) -> np.ndarray:
    out = np.zeros((8, 8))
    m = mass_1d(h)
    for a in range(8):
        for b in range(8):
            val = 1.0
            for ax in range(3):
                val *= m[HEX_CORNERS[a][ax], HEX_CORNERS[b][ax]]
            out[a, b] = val
    return out


def curl_block_oracle(h: float, eps_r: complex) -> np.ndarray:
    """(24, 24) closed-form curl-curl block on an h-cube."""
    out = np.zeros((8, 3, 8, 3), dtype=np.complex128)
    gsum = sum(grad_product_3d(h, m, m) for m in range(3))
    for i in range(3):
        out[:, i, :, i] += gsum
        for j in range(3):
            out[:, i, :, j] -= grad_product_3d(h, j, i)
    return out.reshape(24, 24) / eps_r


def mass_block_oracle(h: float, mu_r: complex, k0: float) -> np.ndarray:
    out = np.zeros((8, 3, 8, 3), dtype=np.complex128)
    m = mass_3d(h)
    for i in range(3):
        out[:, i, :, i] = k0 ** 2 * mu_r * m
    return out.reshape(24, 24)


def penalty_block_oracle(h: float) -> np.ndarray:
    out = np.zeros((8, 3, 8, 3), dtype=np.complex128)
    for i in range(3):
        for j in range(3):
            out[:, i, :, j] = grad_product_3d(h, i, j)
    return out.reshape(24, 24)


def surface_mass_oracle(h: float) -> np.ndarray:
    """(4, 4) bilinear surface mass on an h-square (tensor of 1D mass)."""
    m = mass_1d(h)
    quad = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])
    out = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            out[a, b] = m[quad[a][0], quad[b][0]] * m[quad[a][1], quad[b][1]]
    return out


def surface_stiffness_oracle(h: float) -> np.ndarray:
    m, s = mass_1d(h), stiffness_1d(h)
    quad = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])
    out = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            out[a, b] = (s[quad[a][0], quad[b][0]] * m[quad[a][1], quad[b][1]]
                         + m[quad[a][0], quad[b][0]] * s[quad[a][1], quad[b][1]])
    return out


# ---------------------------------------------------------------------------
# Loop-based mesh references
# ---------------------------------------------------------------------------

def loop_box_elements(nx: int, ny: int, nz: int) -> np.ndarray:
    """(E, 8) connectivity of an nx x ny x nz node grid, one element at a
    time (k outermost, i innermost; node id i + nx*(j + ny*k))."""
    elems = []
    for k in range(nz - 1):
        for j in range(ny - 1):
            for i in range(nx - 1):
                elems.append([i + dx + nx * (j + dy + ny * (k + dz))
                              for dx, dy, dz in HEX_CORNERS])
    return np.asarray(elems, dtype=np.int64)


def dict_boundary_facets(nodes: np.ndarray, elements: np.ndarray):
    """Boundary facets found by hashing every element face in a dict.

    A face seen once is a boundary facet; its normal runs from the
    element centroid to the face centroid, normalized, with components
    below 1e-12 zeroed and renormalized.  Returns corners (F, 4) in the
    element-face winding, element faces 6e + k (F,) and normals (F, 3),
    sorted by corner tuple.
    """
    seen: dict[tuple, tuple[int, tuple]] = {}
    dup: set[tuple] = set()
    for e, conn in enumerate(elements):
        for k, face in enumerate(HEX_FACES):
            quad = tuple(int(n) for n in conn[face])
            key = tuple(sorted(quad))
            if key in seen:
                dup.add(key)
            else:
                seen[key] = (6 * e + k, quad)
    facets = []
    for key, (f, quad) in seen.items():
        if key in dup:
            continue
        e = f // 6
        normal = nodes[list(quad)].mean(axis=0) - nodes[elements[e]].mean(axis=0)
        normal = normal / np.linalg.norm(normal)
        normal[np.abs(normal) < 1e-12] = 0.0
        normal = normal / np.linalg.norm(normal)
        facets.append((quad, f, normal))
    facets.sort(key=lambda f: f[0])
    return (np.array([f[0] for f in facets], dtype=np.int64).reshape(-1, 4),
            np.array([f[1] for f in facets], dtype=np.int64),
            np.array([f[2] for f in facets]).reshape(-1, 3))


def facet_loop_kinds(mesh, planes) -> list:
    """Kind of each facet, one facet at a time, from its geometry alone.

    A facet on no bounding-box face is PEC; otherwise it takes the kind
    of the first declared ``(face, kind)`` plane it lies on (``x`` means
    ``x-``), else EXTERIOR.
    """
    lo, hi = mesh.bounding_box
    tol = 1e-9 * mesh.spacing
    kinds = []
    for quad in mesh.facet_nodes:
        coords = mesh.nodes[quad]
        kind = FacetKind.PEC
        for d in range(3):
            if (np.all(np.abs(coords[:, d] - lo[d]) < tol)
                    or np.all(np.abs(coords[:, d] - hi[d]) < tol)):
                kind = FacetKind.EXTERIOR
        if kind is FacetKind.EXTERIOR:
            for face, plane_kind in planes:
                d = "xyz".index(face[0])
                coord = hi[d] if face.endswith("+") else lo[d]
                if np.all(np.abs(coords[:, d] - coord) < tol):
                    kind = FacetKind(plane_kind)
                    break
        kinds.append(kind)
    return kinds


# ---------------------------------------------------------------------------
# Dense element-loop assembly oracle
# ---------------------------------------------------------------------------

def element_values(params, e: int) -> tuple[complex, complex]:
    """(eps_r, mu_r) of element ``e``: a scalar parameter applies to every
    element, an array gives one value per element."""
    eps = params.eps_r if np.isscalar(params.eps_r) else params.eps_r[e]
    mu = params.mu_r if np.isscalar(params.mu_r) else params.mu_r[e]
    return complex(eps), complex(mu)


def element_loop_assemble(mesh, params) -> np.ndarray:
    """Dense global matrix built element by element, then facet by facet.

    Independent traversal order from the per-node assembly under test;
    uses the same local integrals, so agreement is up to summation
    rounding only.
    """
    from hexwave.assembly import abc_facet_matrices, element_matrices
    n = 3 * mesh.node_count
    a = np.zeros((n, n), dtype=np.complex128)
    for e, conn in enumerate(mesh.elements):
        eps, mu = element_values(params, e)
        em = element_matrices(mesh.nodes[conn] - mesh.nodes[conn].min(axis=0),
                              eps, mu, params.k0)
        blk = em.curl_curl - em.mass + em.penalty
        dofs = (3 * conn[:, None] + np.arange(3)).ravel()
        a[np.ix_(dofs, dofs)] += blk
    for quad, normal, kind in zip(mesh.facet_nodes, mesh.facet_normals,
                                  mesh.facet_kinds):
        if kind is not FacetKind.EXTERIOR:
            continue
        coords = mesh.nodes[quad]
        am = abc_facet_matrices(coords - coords.min(axis=0), normal,
                                params.k0)
        fdofs = (3 * quad[:, None] + np.arange(3)).ravel()
        a[np.ix_(fdofs, fdofs)] += am.first_order + am.second_order
    return a


def node_loop_rows(mesh, params):
    """Rows of every node, one node at a time.

    A node gathers the rows of its elements' blocks (ascending element),
    then of its exterior facets' blocks (ascending facet), and sums
    duplicate columns in that order.  Each block is computed from its own
    element's or facet's coordinates, translated to the origin and snapped
    to the grid, so the sums are bitwise comparable with the package.
    """
    from hexwave.assembly import abc_facet_matrices, element_matrices
    h = mesh.spacing

    def snapped(nodes):
        c = mesh.nodes[list(nodes)]
        return np.round((c - c.min(axis=0)) / h) * h

    def dofs(nodes):
        return (3 * np.asarray(nodes)[:, None] + np.arange(3)).ravel()

    blocks = []
    for e, conn in enumerate(mesh.elements):
        em = element_matrices(snapped(conn), *element_values(params, e),
                              params.k0)
        blocks.append((conn, em.curl_curl - em.mass + em.penalty))
    elem_blocks, blocks = blocks, []
    for quad, normal, kind in zip(mesh.facet_nodes, mesh.facet_normals,
                                  mesh.facet_kinds):
        if kind is FacetKind.EXTERIOR:
            am = abc_facet_matrices(snapped(quad), normal, params.k0)
            blocks.append((quad, am.first_order + am.second_order))
    rows = []
    for n in range(mesh.node_count):
        cols, vals = [], []
        for nodes, blk in elem_blocks + blocks:
            if n in nodes:
                a = list(nodes).index(n)
                cols.append(dofs(nodes))
                vals.append(blk[3 * a:3 * a + 3])
        all_cols = np.concatenate(cols)
        all_vals = np.concatenate(vals, axis=1)
        ucols = np.unique(all_cols)
        acc = np.zeros((3, len(ucols)), dtype=np.complex128)
        for c in range(3):
            np.add.at(acc[c], np.searchsorted(ucols, all_cols), all_vals[c])
        rows.extend((ucols, acc[c]) for c in range(3))
    return rows


def facet_loop_rhs(mesh, wave) -> np.ndarray:
    """Global right-hand side built facet by facet, then scattered.

    Each exterior facet integrates jk0 H_t - n x curl(H) against its
    bilinear shape functions at the 2 x 2 Gauss points (shape functions written
    out here), adds its second-order block applied to the nodal incident
    trace, and adds its four corner loads to the global vector.  Only
    ``incident_field`` and ``abc_facet_matrices`` come from the package.
    """
    from hexwave.assembly import abc_facet_matrices, incident_field
    b = np.zeros(3 * mesh.node_count, dtype=np.complex128)
    pts, wts = np.polynomial.legendre.leggauss(2)
    su = np.array([-1.0, 1.0, 1.0, -1.0])
    sv = np.array([-1.0, -1.0, 1.0, 1.0])
    for quad, n, kind in zip(mesh.facet_nodes, mesh.facet_normals,
                             mesh.facet_kinds):
        if kind is not FacetKind.EXTERIOR:
            continue
        coords = mesh.nodes[quad]
        tangential = [d for d in range(3) if abs(n[d]) < 0.5]
        load = np.zeros((4, 3), dtype=np.complex128)
        for u, wu in zip(pts, wts):
            for v, wv in zip(pts, wts):
                m = 0.25 * (1 + su * u) * (1 + sv * v)
                dm = 0.25 * np.column_stack([su * (1 + sv * v),
                                             sv * (1 + su * u)])
                det = abs(np.linalg.det(dm.T @ coords[:, tangential]))
                h, curl_h = incident_field(wave, m @ coords)
                vec = 1j * wave.k0 * (h - n * (n @ h)) - np.cross(n, curl_h)
                load += wu * wv * det * np.outer(m, vec)
        am = abc_facet_matrices(coords, n, wave.k0)
        trace = np.concatenate([incident_field(wave, p)[0] for p in coords])
        load += (am.second_order @ trace).reshape(4, 3)
        for a, node in enumerate(quad):
            b[3 * node:3 * node + 3] += load[a]
    return b


def abc_incident_load(wave, point, normal) -> np.ndarray:
    """g_ABC(H_i) - n x curl(H_i) at one point of an exterior facet,
    evaluated pointwise from the plane wave."""
    from hexwave.assembly import incident_field
    normal = np.asarray(normal, dtype=float)
    h, curl_h = incident_field(wave, point)
    ht = h - normal * (normal @ h)
    kvec = wave.k0 * wave.direction.real
    kt2 = float(np.linalg.norm(kvec - normal * (normal @ kvec)) ** 2)
    # Laplacian of the tangential plane-wave trace is -|k_t|^2 H_t.
    g = 1j * wave.k0 * ht + (1j / (2.0 * wave.k0)) * kt2 * ht
    return g - np.cross(normal, curl_h)


def csr_from_rows(rows, n: int):
    """CSR ``(indptr, indices, data)`` of n rows given as (columns, values)."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(cols) for cols, _ in rows], out=indptr[1:])
    indices = np.concatenate([cols for cols, _ in rows] or [[]])
    data = np.concatenate([vals for _, vals in rows] or [[]])
    return (indptr, np.asarray(indices, dtype=np.int64),
            np.asarray(data, dtype=np.complex128))


def row_block(rows, n: int, row_start: int = 0) -> _CsrBase:
    """Rows [row_start, row_start + len(rows)) of an n x n matrix, given
    as (columns, values), as one CSR row block."""
    return _CsrBase(n, *csr_from_rows(rows, len(rows)), row_start=row_start)


def dense(m) -> np.ndarray:
    """The n x n matrix of a CSR row block, zero outside its rows, filled
    row by row; lower-triangle storage also fills each entry's mirror."""
    a = np.zeros((m.n, m.n), dtype=np.complex128)
    for i in range(m.row_start, m.row_end):
        cols, vals = m.row(i)
        a[i, cols] = vals
        if isinstance(m, LowerSymmetricRows):
            a[cols, i] = vals
    return a


def select_loop(m, keep) -> list:
    """Rows of a CSR row block as (columns, values), keeping the entries
    where ``keep`` is set, one stored entry at a time."""
    rows, e = [], 0
    for i in range(m.row_start, m.row_end):
        cols, vals = [], []
        for j, v in zip(*m.row(i)):
            if keep[e]:
                cols.append(j)
                vals.append(v)
            e += 1
        rows.append((np.array(cols, dtype=np.int64),
                     np.array(vals, dtype=np.complex128)))
    return rows


def below_by_column_loop(m, lo: int, hi: int) -> list:
    """Per column j in [lo, hi), the (entry, row) pairs of its stored
    entries below the diagonal, visiting rows in order, one entry at a
    time; entry numbers count the block's stored entries from 0."""
    below = [[] for _ in range(lo, hi)]
    e = 0
    for i in range(m.row_start, m.row_end):
        for j in m.row(i)[0].tolist():
            if lo <= j < hi and j < i:
                below[j - lo].append((e, i))
            e += 1
    return below


def assert_same_csr(a, b) -> None:
    """Bitwise-equal CSR arrays and row range."""
    assert a.n == b.n and a.row_start == b.row_start
    for name in ("indptr", "indices", "data"):
        got, ref = getattr(a, name), getattr(b, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name


def same_bits(got, ref) -> bool:
    """Equal dtype, shape and bytes (so -0.0 differs from 0.0)."""
    got, ref = np.asarray(got), np.asarray(ref)
    return (got.dtype == ref.dtype and got.shape == ref.shape
            and got.tobytes() == ref.tobytes())


def split_rows(n: int, ranks: int) -> np.ndarray:
    """``partition_rows``' row bounds, over single rows instead of nodes:
    the first n mod P ranks get one extra row."""
    return partition_rows(n, ranks) // 3


def fabric_of(ranks: int, timeout: float = 60.0,
              strategy: str = "spmd") -> CommFabric:
    """A fabric of ``ranks`` ranks, one row each, for tests of the fabric
    alone."""
    return CommFabric(np.arange(ranks + 1), strategy, timeout=timeout)


def phase_traffic(fabric, phase: str) -> tuple[int, int]:
    """Messages and bytes of one phase, summed over ranks, as the
    fabric's counters report gives them."""
    counters = [c for per_rank in fabric.counters_report()["per_rank"]
                for c in per_rank if c["phase"] == phase]
    return (sum(c["messages"] for c in counters),
            sum(c["bytes"] for c in counters))


def masked_lower_matvec(m, lo: int, hi: int, x: np.ndarray) -> np.ndarray:
    """Length-n product of rows [lo, hi) of lower-triangle storage with x.

    Row ids are rebuilt per call and the strict-lower entries picked by a
    boolean mask; their transposes are scattered with ``np.add.at`` in
    storage order.  The package's storage-1 product must match it bitwise.
    """
    out = np.zeros(m.n, dtype=np.complex128)
    out[lo:hi] = _block_matvec(m.rows(lo, hi), x)
    s, e = m.indptr[lo], m.indptr[hi]
    cols = m.indices[s:e]
    rows = np.repeat(np.arange(lo, hi), np.diff(m.indptr[lo:hi + 1]))
    off = cols < rows
    np.add.at(out, cols[off], m.data[s:e][off] * x[rows[off]])
    return out


# ---------------------------------------------------------------------------
# Dense zero-fill incomplete Cholesky oracle
# ---------------------------------------------------------------------------

def dense_ic_oracle(a: np.ndarray, pattern: np.ndarray | None = None) -> np.ndarray:
    """Zero-fill IC on the lower pattern of a dense complex symmetric
    matrix.  By default the pattern is the value-nonzero lower triangle;
    pass an explicit boolean mask to keep stored-zero positions."""
    n = a.shape[0]
    if pattern is None:
        pattern = (np.tril(a) != 0)
    lo = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        s = a[j, j] - np.dot(lo[j, :j], lo[j, :j])
        lo[j, j] = np.sqrt(np.complex128(s))
        for i in range(j + 1, n):
            if pattern[i, j]:
                s = a[i, j] - np.dot(lo[i, :j], lo[j, :j])
                lo[i, j] = s / lo[j, j]
    return lo


def entry_loop_ic(a, lo: int, hi: int):
    """Zero-fill incomplete Cholesky of the block A[lo:hi, lo:hi] on its
    stored lower pattern, one stored entry at a time.

    Rows come from ``a.row(i)`` of either storage.  Column by column, the
    pivot is computed first, then every entry (i, j) below it from one
    ``np.dot`` of row i's entries left of column j with row j of L.
    Returns ``(cols, vals)`` per row, diagonal last.
    """
    pat_cols, pat_avals = [], []
    for i in range(lo, hi):
        cols, vals = a.row(i)
        keep = (cols >= lo) & (cols <= i)
        pat_cols.append(cols[keep])
        pat_avals.append(vals[keep])
    l_vals = [np.zeros(len(c), dtype=np.complex128) for c in pat_cols]
    updates: dict[int, list] = {}
    for li, cols in enumerate(pat_cols):
        for pos, j in enumerate(cols[:-1].tolist()):
            updates.setdefault(j, []).append((li, pos))
    scratch = np.zeros(a.n, dtype=np.complex128)
    for j in range(lo, hi):
        row_j = l_vals[j - lo]
        val = pat_avals[j - lo][-1] - np.dot(row_j[:-1], row_j[:-1])
        row_j[-1] = np.sqrt(np.complex128(val))
        scratch[pat_cols[j - lo]] = row_j
        for li, pos in updates.get(j, ()):
            s = np.dot(l_vals[li][:pos], scratch[pat_cols[li][:pos]])
            l_vals[li][pos] = (pat_avals[li][pos] - s) / row_j[-1]
        scratch[pat_cols[j - lo]] = 0.0
    return list(zip(pat_cols, l_vals))


class _ColumnLoopFactor(_RankFactor):
    """``_RankFactor`` with the one-column-per-step kernel; ``dense`` is
    a length-n scratch holding row j of L at its columns."""

    def __init__(self, *args):
        super().__init__(*args)
        self.dense = np.zeros(self.n, dtype=np.complex128)

    def pivot(self, j: int) -> None:
        """Row j's diagonal (principal square root) once its left is known."""
        s, e = self.indptr[j - self.row_start:j - self.row_start + 2]
        left = self.data[s:e - 1]
        piv = np.sqrt(np.complex128(self.a[e - 1] - np.dot(left, left)))
        if piv == 0:
            raise FactorBreakdownError(f"zero pivot in column {j}")
        self.data[e - 1] = piv

    def touches(self, j: int) -> bool:
        """Whether a row of this block has an entry below row j in column j."""
        return self.col_ptr[j + 1] > self.col_ptr[j]

    def column(self, j: int, cols_j: np.ndarray, vals_j: np.ndarray) -> None:
        """Every entry of column j in this block from row j of L: entry
        (i, j) subtracts the product of row i's prefix (its entries left of
        column j) with row j, gathered from the dense scratch; the prefixes
        of all rows are summed at once with ``reduceat``."""
        c0, c1 = self.col_ptr[j], self.col_ptr[j + 1]
        ent, count = self.by_col[c0:c1], self.prefix[c0:c1]
        new = self.a[ent]
        full = count > 0
        if full.any():
            # reduceat mishandles empty segments, so they are left out.
            self.dense[cols_j] = vals_j
            pre = _ranges(ent - count, ent)
            prod = self.data[pre] * self.dense[self.indices[pre]]
            new[full] -= np.add.reduceat(prod, (count.cumsum() - count)[full])
            self.dense[cols_j] = 0.0
        self.data[ent] = new / vals_j[-1]


def column_loop_factor(a, rank: int, fabric: CommFabric,
                       col_min: int) -> CholeskyFactor:
    """The rank's rows [lo, hi) of the zero-fill factor on A's lower
    pattern from column ``col_min`` on (0 for ``build_icp``, lo for a
    ``build_bicp`` block), built one column per step: row j's pivot,
    then every entry of column j from one gather, multiply and
    ``reduceat``.

    Rows [col_min, lo) are built alongside in one block instead of coming
    over the fabric, so no other rank takes part: each entry's sum is its
    own segment, so a row's bits do not depend on the rank split."""
    lo, hi = fabric.dof_range(rank)
    f = _ColumnLoopFactor(a, col_min, hi, col_min, hi)
    for j in range(col_min, hi):
        f.pivot(j)
        if f.touches(j):
            f.column(j, *f.row(j))
    own = f.rows(lo, hi)
    return CholeskyFactor(a.n, own.indptr, own.indices, own.data, lo)


def gather_level_sweep(lo: int, hi: int, begin, end, nbr, pos, diag) -> list:
    """Level schedule of one sweep over rows [lo, hi) as index arrays
    into the factor's values: one ``(rows, diag, cols, pos, starts)``
    per level, rows with entries first (the gather-per-level layout)."""
    count = end - begin
    level = _levels(lo, hi, begin, end, nbr)
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


def gather_level_solve(sweep: list, data, rhs, out) -> None:
    """One sweep, each level gathering its values and right-hand side
    and scattering its rows back into ``out`` in row order."""
    for rows, diag, cols, pos, starts in sweep:
        acc = rhs[rows]
        if len(starts):
            acc[:len(starts)] -= np.add.reduceat(data[pos] * out[cols],
                                                 starts)
        out[rows] = acc / data[diag]


def gather_level_substitute(factor, b, lo: int, hi: int) -> np.ndarray:
    """x[lo:hi] with L L^T x = b over rows [lo, hi) of the factor, by the
    gather-per-level solve; the segment must need no other rows (a
    block-local factor's block, or a full factor's whole range)."""
    local = np.arange(lo - factor.row_start, hi - factor.row_start)
    diag = factor.indptr[local + 1] - 1
    forward = gather_level_sweep(lo, hi, factor.indptr[local], diag,
                                 factor.indices, np.arange(factor.nnz), diag)
    below, rows, ptr = factor.below_by_column(lo, hi)
    back = gather_level_sweep(lo, hi, ptr[:-1], ptr[1:], rows, below, diag)
    y = np.zeros(factor.n, dtype=np.complex128)
    x = np.zeros(factor.n, dtype=np.complex128)
    gather_level_solve(forward, factor.data, b, y)
    gather_level_solve(back, factor.data, y, x)
    return x[lo:hi]


def substitute(factor, b, fabric: CommFabric, rank: int) -> np.ndarray:
    """``forward_back_substitute`` on the level schedules of the rank's
    rows, built for this one call as ``cg_solve`` builds them per solve."""
    sweeps = _schedule_segment(factor, *fabric.dof_range(rank))
    return forward_back_substitute(factor, b, fabric, rank, sweeps)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_symmetric_sparse(rng, n: int, density: float = 0.3,
                            diag_boost: float = 8.0):
    """Random complex symmetric matrix rows with a guaranteed diagonal."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mask = rng.random((n, n)) < density
    a = np.where(mask, a, 0)
    a = a + a.T
    a[np.arange(n), np.arange(n)] += diag_boost
    rows = []
    for i in range(n):
        cols = np.nonzero(a[i])[0]
        rows.append((cols.astype(np.int64), a[i, cols]))
    return rows, a
