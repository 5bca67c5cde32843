"""Row-parallel assembly of the time-harmonic vector wave system.

The unknown is the nodal magnetic field (3 complex components per node).
Per element the bilinear form is curl-curl (weighted 1/eps_r) minus the
k0^2*mu_r mass term plus a divergence penalty; exterior facets add the
first- and second-order absorbing-boundary blocks, and the right-hand
side comes from the incident plane wave on those facets.  Assembly is by
degree of freedom: each rank produces the three matrix rows of every
node it owns from the cached blocks of the adjacent elements and facets,
with no inter-rank traffic; applying the symmetry-plane constraints
sends none either.  The A + A^T symmetrization is the one collective
operation over the fabric.  A rank's rows travel from stage to stage as
one CSR row block (``sparse._CsrBase`` with ``row_start`` at its first
owned row); each stage returns a new block built by whole-array
operations in a node-by-node summation order, so rows are bitwise
independent of the partition.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fabric import CommFabric
from .mesh import HexMesh, FacetKind, HEX_CORNERS, HEX_FACES
from .sparse import _CHUNK, _CsrBase, _ranges, _unique

_I3 = np.eye(3)
_REF_CORNERS = 2.0 * HEX_CORNERS - 1.0          # (8, 3) in {-1, +1}
_REF_QUAD = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
# Gauss-Legendre points and weights per direction: two points integrate
# every block of an axis-aligned trilinear element or bilinear facet
# exactly.
_GAUSS = np.polynomial.legendre.leggauss(2)


class AssemblyError(ValueError):
    """Invalid geometry or boundary data during assembly."""


@dataclass(frozen=True)
class MaterialParams:
    """Relative permittivity/permeability per element and free-space k0."""
    eps_r: complex | np.ndarray = 1.0 + 0.0j
    mu_r: complex | np.ndarray = 1.0 + 0.0j
    k0: float = 2.0 * np.pi

    def __post_init__(self):
        if self.k0 <= 0:
            raise AssemblyError("k0 must be positive")
        if np.any(np.asarray(self.eps_r) == 0):
            raise AssemblyError("eps_r must be non-zero on every element")


@dataclass(frozen=True)
class PlaneWave:
    """Incident plane wave: H = polarization * exp(-j k0 direction . x)."""
    direction: np.ndarray
    polarization: np.ndarray
    k0: float

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=np.complex128)
        p = np.asarray(self.polarization, dtype=np.complex128)
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "polarization", p)
        if abs(np.linalg.norm(d.real) - 1.0) > 1e-12 or np.any(d.imag != 0):
            raise AssemblyError("propagation direction must be a real unit vector")
        if abs(np.vdot(d, p)) > 1e-12 * max(np.linalg.norm(p), 1.0):
            raise AssemblyError("polarization must be orthogonal to direction")


@dataclass
class ElementMatrices:
    """24x24 complex blocks, dof index = 3*local_node + component."""
    curl_curl: np.ndarray
    mass: np.ndarray
    penalty: np.ndarray


@dataclass
class AbcFacetMatrices:
    """12x12 complex blocks on (facet node, component); normal rows zero."""
    first_order: np.ndarray
    second_order: np.ndarray


def _hex_shapes(xi: np.ndarray):
    """Trilinear shape values (8,) and reference gradients (8, 3) at xi."""
    t = 1.0 + _REF_CORNERS * xi          # (8, 3)
    n = 0.125 * t.prod(axis=1)
    dn = np.empty((8, 3))
    for d in range(3):
        others = [dd for dd in range(3) if dd != d]
        dn[:, d] = 0.125 * _REF_CORNERS[:, d] * t[:, others].prod(axis=1)
    return n, dn


def _quad_shapes(uv: np.ndarray):
    """Bilinear quad shape values (4,) and reference gradients (4, 2)."""
    t = 1.0 + _REF_QUAD * uv
    m = 0.25 * t.prod(axis=1)
    dm = np.empty((4, 2))
    dm[:, 0] = 0.25 * _REF_QUAD[:, 0] * t[:, 1]
    dm[:, 1] = 0.25 * _REF_QUAD[:, 1] * t[:, 0]
    return m, dm


def element_matrices(coords: np.ndarray, eps_r: complex, mu_r: complex,
                     k0: float) -> ElementMatrices:
    """Volume blocks of one trilinear hexahedron.

    ``coords`` is (8, 3) in VTK corner order.  Raises on non-positive
    Jacobians (degenerate or inverted elements).
    """
    coords = np.asarray(coords, dtype=float)
    pts, wts = _GAUSS
    curl = np.zeros((8, 3, 8, 3), dtype=np.complex128)
    mass = np.zeros((8, 8))
    pen = np.zeros((8, 3, 8, 3))
    for a, wa in zip(pts, wts):
        for b, wb in zip(pts, wts):
            for c, wc in zip(pts, wts):
                n, dn = _hex_shapes(np.array([a, b, c]))
                jac = dn.T @ coords
                det = np.linalg.det(jac)
                if det <= 0:
                    raise AssemblyError(
                        f"non-positive Jacobian {det:.3e} in element")
                grad = dn @ np.linalg.inv(jac)      # (8, 3) physical
                w = wa * wb * wc * det
                g = grad @ grad.T
                curl += w * (np.einsum("ab,ij->aibj", g, _I3)
                             - np.einsum("aj,bi->aibj", grad, grad)) / eps_r
                mass += w * np.outer(n, n)
                pen += w * np.einsum("ai,bj->aibj", grad, grad)
    mass_block = (k0 ** 2 * mu_r) * np.einsum("ab,ij->aibj", mass, _I3)
    return ElementMatrices(curl_curl=curl.reshape(24, 24),
                           mass=mass_block.reshape(24, 24).astype(np.complex128),
                           penalty=pen.reshape(24, 24).astype(np.complex128))


_TANGENT_AXES = np.array([(1, 2), (0, 2), (0, 1)])


def _facet_planes(coords: np.ndarray, normals: np.ndarray, ids=None):
    """Tangential axes (F, 2) and in-plane corner coordinates (F, 4, 2)
    of F axis-aligned planar facets with corners (F, 4, 3).

    ``ids`` names the facets in errors.
    """
    nax = np.argmax(np.abs(normals), axis=1)
    rows = np.arange(len(nax))
    span = coords.max(axis=1) - coords.min(axis=1)
    for bad, what in (
            (np.abs(np.abs(normals[rows, nax]) - 1.0) > 1e-9,
             "normal is not axis-aligned"),
            (span[rows, nax] > 1e-9 * np.maximum(span.max(axis=1), 1.0),
             "is not planar")):
        if bad.any():
            name = "" if ids is None else f" {ids[np.argmax(bad)]}"
            raise AssemblyError(f"facet{name} {what}")
    taxes = _TANGENT_AXES[nax]
    return taxes, np.take_along_axis(coords, taxes[:, None, :], axis=2)


def _abc_matrices(taxes: np.ndarray, p2: np.ndarray, k0: float):
    """Stacked (F, 12, 12) first- and second-order blocks of F facets from
    the bilinear surface mass and stiffness on their planes."""
    pts, wts = _GAUSS
    ms = np.zeros((len(p2), 4, 4))
    ks = np.zeros((len(p2), 4, 4))
    for u, wu in zip(pts, wts):
        for v, wv in zip(pts, wts):
            m, dm = _quad_shapes(np.array([u, v]))
            jac = dm.T @ p2
            det = np.abs(np.linalg.det(jac))
            grad = dm @ np.linalg.inv(jac)
            w = (wu * wv * det)[:, None, None]
            ms += w * np.outer(m, m)
            ks += (w * grad) @ grad.transpose(0, 2, 1)
    first = np.zeros((len(p2), 12, 12), dtype=np.complex128)
    second = np.zeros((len(p2), 12, 12), dtype=np.complex128)
    f = np.arange(len(p2))[:, None, None]
    for c in taxes.T:
        idx = 3 * np.arange(4) + c[:, None]
        first[f, idx[:, :, None], idx[:, None, :]] = 1j * k0 * ms
        second[f, idx[:, :, None], idx[:, None, :]] = (1j / (2.0 * k0)) * ks
    return first, second


def abc_facet_matrices(coords: np.ndarray, normal: np.ndarray,
                       k0: float) -> AbcFacetMatrices:
    """Absorbing-boundary blocks of one exterior facet.

    first_order = j k0 * (surface mass on the tangential components);
    second_order = (j / 2 k0) * (surface stiffness on the tangential
    components), i.e. the tangential Laplacian integrated by parts with
    edge contour terms dropped.  Rows/columns of the normal component
    are zero.  The terms share a sign: for a field varying as cos(k_t x)
    along the facet they impose dH/dn = -j k_eff H, k_eff = k0 + k_t^2 /
    (2 k0), not Engquist and Majda's k0 - k_t^2 / (2 k0) (ROADMAP item 10).
    """
    taxes, p2 = _facet_planes(np.asarray(coords, dtype=float)[None],
                              np.asarray(normal, dtype=float)[None])
    first, second = _abc_matrices(taxes, p2, k0)
    return AbcFacetMatrices(first_order=first[0], second_order=second[0])


def incident_field(wave: PlaneWave, point) -> tuple[np.ndarray, np.ndarray]:
    """Incident H and curl(H) at one point, or at every point of a
    (..., 3) array."""
    point = np.asarray(point, dtype=float)
    kvec = wave.k0 * wave.direction.real
    phase = np.exp(np.matmul(-1j * kvec, point[..., None]))
    h = wave.polarization * phase
    curl_h = -1j * np.cross(kvec, wave.polarization) * phase
    return h, curl_h


# ---------------------------------------------------------------------------
# Degree-of-freedom assembly
# ---------------------------------------------------------------------------

# Owned nodes per block of assemble_rows' passes: bounds their temporaries
# at a few MB whatever the rank size, in few enough NumPy calls that rank
# threads seldom wait on each other for the interpreter lock.
_BLOCK_NODES = 256


def _check_range(mesh: HexMesh, node_range: tuple[int, int]):
    lo, hi = node_range
    if not (0 <= lo <= hi <= mesh.node_count):
        raise AssemblyError(f"node range {node_range} out of bounds")
    return lo, hi


def _incidence(conn: np.ndarray, lo: int, hi: int):
    """Corners of ``conn`` (one row per element or facet) at nodes in
    [lo, hi): (node, row, local corner), ordered by node, then row."""
    flat = conn.ravel()
    hit = np.flatnonzero((flat >= lo) & (flat < hi))
    hit = hit[np.argsort(flat[hit], kind="stable")]
    return flat[hit], hit // conn.shape[1], hit % conn.shape[1]


def _exterior_facets(mesh: HexMesh):
    """Ids, corner nodes (F, 4), element-local faces k and outward
    normals (F, 3) of the exterior facets."""
    ids = np.flatnonzero(mesh.facet_kinds == FacetKind.EXTERIOR)
    return (ids, mesh.facet_nodes[ids],
            mesh.facet_faces[ids] % len(HEX_FACES), mesh.facet_normals[ids])


def _canonical(coords: np.ndarray, h: float) -> np.ndarray:
    """Translate to the origin and snap to exact spacing multiples, so
    congruent blocks are bitwise identical whichever representative
    computes them (absolute coordinates carry position-dependent rounding).
    """
    c = coords - coords.min(axis=0)
    return np.round(c / h) * h


def assemble_rows(mesh: HexMesh, params: MaterialParams,
                  node_range: tuple[int, int]) -> _CsrBase:
    """Matrix rows of the owned nodes, assembled by degree of freedom.

    Returns the 3*(hi-lo) owned rows as one CSR row block starting at
    row 3*lo, columns ascending within each row; every row stores its
    diagonal.  A node's rows gather the cached blocks of its elements
    (ascending), then of its exterior facets (ascending), and sum
    duplicate columns in that order, so a row is bitwise the same
    whichever rank assembles it.
    The pattern comes first, from one sort of (node, neighbour) keys, then
    blocks of ``_BLOCK_NODES`` owned nodes are filled in place; no
    inter-rank messages are needed (the mesh is replicated).
    """
    lo, hi = _check_range(mesh, node_range)
    e_node, e_elem, e_corner = _incidence(mesh.elements, lo, hi)
    h = mesh.spacing

    # Box meshes produce congruent elements, so a volume block depends
    # only on the material pair, a facet block only on its element-local
    # face; each is built once, from the first element or facet met.
    eps, mu = (np.broadcast_to(np.asarray(v, dtype=np.complex128),
                               (mesh.element_count,))[e_elem]
               for v in (params.eps_r, params.mu_r))

    def element_block(i):
        coords = _canonical(mesh.nodes[mesh.elements[e_elem[i]]], h)
        em = element_matrices(coords, eps[i], mu[i], params.k0)
        return em.curl_curl - em.mass + em.penalty

    _, first, e_which, _ = _unique(
        np.column_stack([eps.real, eps.imag, mu.real, mu.imag]), index=True)
    e_blocks = np.array([element_block(i) for i in first]).reshape(-1, 8, 3, 24)

    _, fnodes, faces, normals = _exterior_facets(mesh)
    f_node, f_row, f_corner = _incidence(fnodes, lo, hi)

    def facet_block(i):
        f = f_row[i]
        am = abc_facet_matrices(_canonical(mesh.nodes[fnodes[f]], h),
                                normals[f], params.k0)
        # The boundary term enters the weak form as +W.g_ABC(H),
        # matching the incident load on the right-hand side.
        return am.first_order + am.second_order

    _, first, f_which, _ = _unique(faces[f_row], index=True)
    f_blocks = np.array([facet_block(i) for i in first]).reshape(-1, 4, 3, 12)
    n = mesh.node_count
    # A node's three rows share one pattern, all components of the nodes
    # of its elements (a facet's are its element's): the distinct (node,
    # neighbour) keys, ascending, size the rows and place every entry.
    pattern = _unique(((e_node - lo)[:, None] * n
                       + mesh.elements[e_elem]).ravel())
    at = np.searchsorted(pattern, n * np.arange(hi - lo + 1))
    width = 3 * np.diff(at)
    if not width.all():
        raise AssemblyError(f"node {lo + np.argmin(width)} belongs to no element")
    indptr = np.append(0, np.repeat(width, 3).cumsum())
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1], dtype=np.complex128)
    data.fill(0)        # reuses freed heap; np.zeros would map new pages
    kinds = ((e_node, mesh.elements[e_elem], e_blocks, e_which, e_corner),
             (f_node, fnodes[f_row], f_blocks, f_which, f_corner))
    edges = np.append(np.arange(0, hi - lo, _BLOCK_NODES), hi - lo)
    for b0, b1 in zip(edges[:-1], edges[1:]):
        span = slice(indptr[3 * b0], indptr[3 * b1])
        rows = _ranges(np.repeat(at[b0:b1], 3), np.repeat(at[b0 + 1:b1 + 1], 3))
        cols = indices[span].reshape(-1, 3)
        cols[:, 0] = 3 * (pattern[rows] % n)
        cols[:, 1] = cols[:, 0] + 1
        cols[:, 2] = cols[:, 0] + 2
        # Slot s of a node is its s-th element, ascending, then its
        # facets; pass s adds the blocks of every node with a slot s at
        # distinct entries, so each entry sums in that order from zero.
        for node, conn, table, which, corner in kinds:
            s0, s1 = np.searchsorted(node, [lo + b0, lo + b1])
            v = node[s0:s1] - lo
            # Entry of each corner's first column in its node's first row.
            p = np.searchsorted(pattern, v[:, None] * n + conn[s0:s1])
            col = (indptr[3 * v, None] + 3 * (p - at[v, None]))[:, :, None]
            start = np.searchsorted(v, np.arange(b0, b1 + 1))
            first, count = start[:-1], np.diff(start)
            for s in range(count.max(initial=0)):
                k = first[count > s] + s
                pos = (col[k][:, None] + np.arange(3)) + (
                    width[v[k], None] * np.arange(3))[:, :, None, None]
                block = table[which[s0 + k], corner[s0 + k]]
                data[pos] += block.reshape(pos.shape)
    return _CsrBase(3 * n, indptr, indices, data, row_start=3 * lo)


def assemble_rhs(mesh: HexMesh, wave: PlaneWave,
                 node_range: tuple[int, int]) -> np.ndarray:
    """Right-hand-side segment of the owned nodes from exterior facets.

    The first-order term and the incident curl are integrated pointwise;
    the tangential-Laplacian term applies the same integrated-by-parts
    facet stiffness used on the left-hand side to the nodal trace of the
    incident field, so the dropped edge contour terms cancel between the
    two sides instead of polluting the solution.  The loads of all
    touched facets are integrated together; each node sums its facets'
    loads in ascending facet order.
    """
    lo, hi = _check_range(mesh, node_range)
    ids, fnodes, _, normals = _exterior_facets(mesh)
    f_node, f_row, f_corner = _incidence(fnodes, lo, hi)
    touched, _, which, _ = _unique(f_row, index=True)
    coords, normals = mesh.nodes[fnodes[touched]], normals[touched]
    taxes, p2 = _facet_planes(coords, normals, ids[touched])
    pts, wts = _GAUSS
    load = np.zeros((len(touched), 4, 3), dtype=np.complex128)
    for u, wu in zip(pts, wts):
        for v, wv in zip(pts, wts):
            m, dm = _quad_shapes(np.array([u, v]))
            det = np.abs(np.linalg.det(dm.T @ p2))
            # jk0 H_it - n x curl(H_i), evaluated pointwise.
            h, curl_h = incident_field(wave, m @ coords)
            ht = h - normals * np.matmul(normals[:, None, :], h[:, :, None])[:, 0]
            vec = 1j * wave.k0 * ht - np.cross(normals, curl_h)
            load += (wu * wv * det)[:, None, None] * (m[:, None] * vec[:, None, :])
    _, second = _abc_matrices(taxes, p2, wave.k0)
    trace = incident_field(wave, coords)[0].reshape(-1, 12, 1)
    load += (second @ trace).reshape(-1, 4, 3)
    seg = np.zeros(3 * (hi - lo), dtype=np.complex128)
    np.add.at(seg, (3 * (f_node - lo)[:, None] + np.arange(3)).ravel(),
              load[which, f_corner].ravel())
    return seg


# ---------------------------------------------------------------------------
# Constraints and symmetrization
# ---------------------------------------------------------------------------

def constrained_dofs(mesh: HexMesh) -> np.ndarray:
    """Dofs fixed to zero by the declared symmetry/antisymmetry planes.

    On a symmetry plane the normal component vanishes; on an
    antisymmetry plane both tangential components do.  A node reached by
    both kinds through the same plane axis is a configuration error.
    """
    kinds = mesh.facet_kinds
    plane = np.flatnonzero((kinds == FacetKind.SYMMETRY)
                           | (kinds == FacetKind.ANTISYMMETRY))
    axis = mesh.facet_faces[plane] % len(HEX_FACES) // 2
    # One (node, axis) key per facet corner, in facet order.
    key = (3 * mesh.facet_nodes[plane] + axis[:, None]).ravel()
    anti = np.repeat(kinds[plane] == FacetKind.ANTISYMMETRY, 4)
    ukey, first, which, _ = _unique(key, index=True)
    clash = anti != anti[first][which]
    if clash.any():
        k = key[np.argmax(clash)]
        raise AssemblyError(
            f"node {k // 3} tagged with conflicting plane kinds on axis {k % 3}")
    anti = anti[first]
    node, ax = np.divmod(ukey[anti], 3)
    return _unique(np.concatenate([ukey[~anti], 3 * node + (ax + 1) % 3,
                                   3 * node + (ax + 2) % 3]))


def apply_symmetry_bc(block: _CsrBase, rhs_seg: np.ndarray,
                      constrained: np.ndarray):
    """``(block, rhs)`` with constrained rows made identity/zero and
    their columns eliminated everywhere, leaving the inputs unchanged.

    An entry is kept when neither its row nor its column is constrained;
    a constrained row keeps only its diagonal (every assembled row stores
    one), set to 1.  ``constrained`` is the mesh's ``constrained_dofs``,
    which every rank holds in full, so this is a local step that sends
    no message.  Idempotent.
    """
    if not len(constrained):
        return block, rhs_seg
    lo, hi = block.row_start, block.row_end
    mine = constrained[(constrained >= lo) & (constrained < hi)]
    fixed = np.zeros(block.n, dtype=bool)
    fixed[constrained] = True
    kept = block.select(block.where(
        lambda rows, cols: ~(fixed[rows] | fixed[cols]) | (rows == cols)))
    kept.data[kept.indptr[mine - lo + 1] - 1] = 1.0
    # Eliminated columns carry zero solution values, so the right-hand
    # side is unchanged outside the constrained rows.
    rhs_seg = rhs_seg.copy()
    rhs_seg[mine - lo] = 0.0
    return kept, rhs_seg


def symmetrize(block: _CsrBase, rhs_seg: np.ndarray, rank: int,
               fabric: CommFabric):
    """A new ``(block, rhs)``: A + A^T (no 1/2 factor) and 2*rhs.

    A must be structurally symmetric, as assembly and ``apply_symmetry_bc``
    leave it, so the transpose (j, i, v) of entry (i, j) lands on row j's
    own entry (j, i): row j's owner finds it by binary search, with no
    sort, and adds v, own value first (a local pair is found once, from
    its lower entry).  Transposes are searched in batches of ``_CHUNK``,
    each over the ascending keys of only the rows it targets, so no array
    as long as the block is built.  The result shares the input's
    ``indptr`` and ``indices``.  ``AssemblyError`` names the first row
    whose pattern the transposes do not mirror.
    """
    lo, hi = fabric.dof_range(rank)
    n, ptr, cols, vals = block.n, block.indptr, block.indices, block.data
    nnz = block.nnz
    fabric.set_phase(rank, "symmetrize")
    others = [q for q in range(fabric.ranks) if q != rank]
    for q in others:
        go = np.flatnonzero((cols >= fabric.row_starts[q])
                            & (cols < fabric.row_starts[q + 1]))
        fabric.send(rank, q, (cols[go], lo - 1 + np.searchsorted(
            ptr, go, side="right"), vals[go]))
    received = [fabric.recv(rank, q) for q in others]

    out, hit, arrived = np.empty_like(vals), np.zeros(nnz, dtype=bool), 0

    def window(r0, r1):
        """First entry of rows [r0, r1], and their entries' rows."""
        ws = ptr[r0 - lo]
        return ws, block.entry_rows(ws, ptr[r1 + 1 - lo])

    def add(key, v, ws, rows, e=None) -> bool:
        """Add the transposes with ``key`` and values ``v``, from local
        entries ``e`` or received, to their own entries, found by key in
        the window from entry ``ws`` whose entries' ``rows`` become its
        keys.  False when one is missing."""
        nonlocal arrived
        rows -= lo
        rows *= n
        rows += cols[ws:ws + len(rows)]         # ascends in CSR order
        pos = np.searchsorted(rows, key)
        if (pos == len(rows)).any() or not np.array_equal(rows[pos], key):
            return False
        pos += ws
        out[pos] = vals[pos] + v
        hit[pos] = True
        arrived += len(pos)
        if e is not None:       # the local entry takes its transpose's value
            out[e] = v + vals[pos]
            hit[e] = True
            arrived += np.count_nonzero(e != pos)   # a diagonal is its own
        return True

    def received_batch(r, c, v):
        """Received transposes in rows r, columns c, values v."""
        return add((r - lo) * n + c, v,
                   *window(*np.clip([r.min(), r.max()], lo, hi - 1)))

    def local_batch(s):
        """Chunk s's local pairs, from their lower entries: the chunk lies
        in rows [first, last], their transposes in rows [its least local
        column, last]."""
        c = cols[s:s + _CHUNK]
        first, last = lo - 1 + np.searchsorted(ptr, [s, s + len(c) - 1],
                                               side="right")
        ws, rows = window(min(first, max(lo, c.min())), last)
        r = rows[s - ws:s - ws + len(c)]
        e = np.flatnonzero((c >= lo) & (c <= r))
        key = (c[e] - lo) * n + r[e]
        e += s
        return add(key, vals[e], ws, rows, e)

    if (all(received_batch(r[s:s + _CHUNK], c[s:s + _CHUNK], v[s:s + _CHUNK])
            for r, c, v in received for s in range(0, len(r), _CHUNK))
            and all(local_batch(s) for s in range(0, nnz, _CHUNK))
            # as many transposes as entries, and every entry got one
            and arrived == nnz and hit.all()):
        return _CsrBase(n, ptr, cols, out, row_start=lo), rhs_seg * 2.0
    rows = block.entry_rows()
    own_key = (rows - lo) * n + cols
    mine = (cols >= lo) & (cols < hi)
    got = np.concatenate([(cols[mine] - lo) * n + rows[mine]]
                         + [(r - lo) * n + c for r, c, _ in received])
    first = np.append(np.setxor1d(got, own_key), own_key[np.argmin(hit)])[0]
    raise AssemblyError(f"row {lo + first // n} is not mirrored: rows "
                        f"[{lo}, {hi}) and their transposes differ there")
