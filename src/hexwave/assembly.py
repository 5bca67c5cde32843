"""Row-parallel assembly of the time-harmonic vector wave system.

The unknown is the nodal magnetic field (3 complex components per node).
Per element the bilinear form is curl-curl (weighted 1/eps_r) minus the
k0^2*mu_r mass term plus a divergence penalty; exterior facets add the
first- and second-order absorbing-boundary blocks, and the right-hand
side comes from the incident plane wave on those facets.  Assembly is by
degree of freedom: each rank produces the three matrix rows of every
node it owns by visiting the adjacent elements and facets, with no
inter-rank traffic.  Symmetry-plane constraints and the A + A^T
symmetrization are collective operations over the fabric.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import HexMesh, Facet, FacetKind, HEX_CORNERS, HEX_FACES
from .sparse import RowPartition

_I3 = np.eye(3)
_REF_CORNERS = 2.0 * HEX_CORNERS - 1.0          # (8, 3) in {-1, +1}
_REF_QUAD = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])


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

    def element_values(self, e: int) -> tuple[complex, complex]:
        eps = self.eps_r if np.isscalar(self.eps_r) else self.eps_r[e]
        mu = self.mu_r if np.isscalar(self.mu_r) else self.mu_r[e]
        return complex(eps), complex(mu)


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


@dataclass(frozen=True)
class AssemblyConfig:
    quadrature: int = 2                  # Gauss points per direction
    penalty_weight: float = 1.0


def _gauss(n: int):
    return np.polynomial.legendre.leggauss(n)


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
                     k0: float, quadrature: int = 2) -> ElementMatrices:
    """Volume blocks of one trilinear hexahedron.

    ``coords`` is (8, 3) in VTK corner order.  Raises on non-positive
    Jacobians (degenerate or inverted elements).
    """
    coords = np.asarray(coords, dtype=float)
    pts, wts = _gauss(quadrature)
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


def _facet_frame(coords: np.ndarray, normal: np.ndarray):
    """Normal axis and the two tangential axes of an axis-aligned facet."""
    nax = int(np.argmax(np.abs(normal)))
    if abs(abs(normal[nax]) - 1.0) > 1e-9:
        raise AssemblyError("facet normal is not axis-aligned")
    span = coords.max(axis=0) - coords.min(axis=0)
    if span[nax] > 1e-9 * max(span.max(), 1.0):
        raise AssemblyError("facet is not planar")
    taxes = [d for d in range(3) if d != nax]
    return nax, taxes


def _surface_mass_stiffness(coords: np.ndarray, taxes, quadrature: int = 2):
    """4x4 bilinear surface mass and stiffness on the facet plane."""
    p2 = coords[:, taxes]
    pts, wts = _gauss(quadrature)
    ms = np.zeros((4, 4))
    ks = np.zeros((4, 4))
    for u, wu in zip(pts, wts):
        for v, wv in zip(pts, wts):
            m, dm = _quad_shapes(np.array([u, v]))
            jac = dm.T @ p2
            det = abs(np.linalg.det(jac))
            grad = dm @ np.linalg.inv(jac)
            w = wu * wv * det
            ms += w * np.outer(m, m)
            ks += w * grad @ grad.T
    return ms, ks


def abc_facet_matrices(coords: np.ndarray, normal: np.ndarray, k0: float,
                       quadrature: int = 2) -> AbcFacetMatrices:
    """Absorbing-boundary blocks of one exterior facet.

    first_order = j k0 * (surface mass on the tangential components);
    second_order = (j / 2 k0) * (surface stiffness on the tangential
    components), i.e. the tangential Laplacian integrated by parts with
    edge contour terms dropped.  Rows/columns of the normal component
    are zero.
    """
    coords = np.asarray(coords, dtype=float)
    nax, taxes = _facet_frame(coords, normal)
    ms, ks = _surface_mass_stiffness(coords, taxes, quadrature)
    first = np.zeros((12, 12), dtype=np.complex128)
    second = np.zeros((12, 12), dtype=np.complex128)
    for c in taxes:
        idx = 3 * np.arange(4) + c
        first[np.ix_(idx, idx)] = 1j * k0 * ms
        second[np.ix_(idx, idx)] = (1j / (2.0 * k0)) * ks
    return AbcFacetMatrices(first_order=first, second_order=second)


def incident_field(wave: PlaneWave, point) -> tuple[np.ndarray, np.ndarray]:
    """Incident H and curl(H) at one point."""
    point = np.asarray(point, dtype=float)
    kvec = wave.k0 * wave.direction.real
    phase = np.exp(-1j * kvec @ point)
    h = wave.polarization * phase
    curl_h = -1j * np.cross(kvec, wave.polarization) * phase
    return h, curl_h


def abc_incident_load(wave: PlaneWave, point, normal) -> np.ndarray:
    """g_ABC(H_i) - n x curl(H_i) at one point of an exterior facet."""
    normal = np.asarray(normal, dtype=float)
    h, curl_h = incident_field(wave, point)
    ht = h - normal * (normal @ h)
    kvec = wave.k0 * wave.direction.real
    kt2 = float(np.linalg.norm(kvec - normal * (normal @ kvec)) ** 2)
    # Laplacian of the tangential plane-wave trace is -|k_t|^2 H_t.
    g = 1j * wave.k0 * ht + (1j / (2.0 * wave.k0)) * kt2 * ht
    return g - np.cross(normal, curl_h)


def _first_order_incident_load(wave: PlaneWave, point, normal) -> np.ndarray:
    """jk0 H_it - n x curl(H_i): the load terms evaluated pointwise."""
    normal = np.asarray(normal, dtype=float)
    h, curl_h = incident_field(wave, point)
    ht = h - normal * (normal @ h)
    return 1j * wave.k0 * ht - np.cross(normal, curl_h)


# ---------------------------------------------------------------------------
# Degree-of-freedom assembly
# ---------------------------------------------------------------------------

class _BlockCache:
    """Element/facet block cache.

    Box meshes produce congruent elements, so volume blocks only depend
    on the material pair and facet blocks on the geometry of one
    representative facet per element-local face.
    """

    def __init__(self, mesh: HexMesh, params: MaterialParams,
                 config: AssemblyConfig):
        self.mesh = mesh
        self.params = params
        self.config = config
        self._elem: dict = {}
        self._abc: dict = {}
        self._facet_face: dict = {}

    def _canonical(self, coords: np.ndarray) -> np.ndarray:
        """Translate to the origin and snap to exact spacing multiples.

        Congruent blocks must be bitwise identical no matter which
        representative element computes them (absolute coordinates carry
        position-dependent rounding), so cached blocks are always built
        from canonicalized coordinates.
        """
        h = self.mesh.spacing
        c = coords - coords.min(axis=0)
        return np.round(c / h) * h

    def element_block(self, e: int) -> np.ndarray:
        eps, mu = self.params.element_values(e)
        key = (eps, mu)
        blk = self._elem.get(key)
        if blk is None:
            em = element_matrices(
                self._canonical(self.mesh.nodes[self.mesh.elements[e]]),
                eps, mu, self.params.k0, self.config.quadrature)
            blk = em.curl_curl - em.mass + self.config.penalty_weight * em.penalty
            self._elem[key] = blk
        return blk

    def local_face(self, fid: int, facet: Facet) -> int:
        face = self._facet_face.get(fid)
        if face is None:
            conn = self.mesh.elements[facet.element]
            for lf, loc in enumerate(HEX_FACES):
                if tuple(conn[loc]) == facet.nodes:
                    face = lf
                    break
            else:
                raise AssemblyError("facet does not match any element face")
            self._facet_face[fid] = face
        return face

    def abc_block(self, fid: int, facet: Facet) -> np.ndarray:
        face = self.local_face(fid, facet)
        blk = self._abc.get(face)
        if blk is None:
            am = abc_facet_matrices(
                self._canonical(self.mesh.nodes[list(facet.nodes)]),
                facet.normal, self.params.k0, self.config.quadrature)
            # The boundary term enters the weak form as +W.g_ABC(H),
            # matching the incident load on the right-hand side.
            blk = am.first_order + am.second_order
            self._abc[face] = blk
        return blk


def _node_dofs(nodes) -> np.ndarray:
    nodes = np.asarray(nodes, dtype=np.int64)
    return (3 * nodes[:, None] + np.arange(3)).ravel()


def assemble_rows(mesh: HexMesh, params: MaterialParams,
                  node_range: tuple[int, int],
                  config: AssemblyConfig = AssemblyConfig()):
    """Matrix rows of the owned nodes, assembled by degree of freedom.

    Returns a list of (columns, values) pairs for the 3*(hi-lo) owned
    rows.  Row slots are sized in a first pass over the adjacent volume
    and surface couplings, then filled in a second pass; no inter-rank
    messages are needed (the mesh is replicated).
    """
    lo, hi = node_range
    if not (0 <= lo <= hi <= mesh.node_count):
        raise AssemblyError(f"node range {node_range} out of bounds")
    cache = _BlockCache(mesh, params, config)
    node_elems = mesh.node_to_elements()
    node_facets = mesh.node_to_facets()
    rows = []
    for n in range(lo, hi):
        col_groups = []
        val_groups = []
        for e in node_elems[n]:
            conn = mesh.elements[e]
            a = int(np.nonzero(conn == n)[0][0])
            blk = cache.element_block(e)
            col_groups.append(_node_dofs(conn))
            val_groups.append(blk[3 * a:3 * a + 3, :])
        for fid in node_facets[n]:
            facet = mesh.facets[fid]
            af = facet.nodes.index(n)
            if facet.kind is FacetKind.EXTERIOR:
                blk = cache.abc_block(fid, facet)
                col_groups.append(_node_dofs(facet.nodes))
                val_groups.append(blk[3 * af:3 * af + 3, :])
        if not col_groups:
            raise AssemblyError(f"node {n} belongs to no element")
        all_cols = np.concatenate(col_groups)
        all_vals = np.concatenate(val_groups, axis=1)      # (3, total)
        ucols = np.unique(all_cols)                        # pass 1: reserve
        acc = np.zeros((3, len(ucols)), dtype=np.complex128)
        pos = np.searchsorted(ucols, all_cols)
        for c in range(3):                                  # pass 2: fill
            np.add.at(acc[c], pos, all_vals[c])
        for c in range(3):
            rows.append((ucols.copy(), acc[c].copy()))
    return rows


def assemble_rhs(mesh: HexMesh, wave: PlaneWave, node_range: tuple[int, int],
                 config: AssemblyConfig = AssemblyConfig()) -> np.ndarray:
    """Right-hand-side segment of the owned nodes from exterior facets.

    The first-order term and the incident curl are integrated pointwise;
    the tangential-Laplacian term applies the same integrated-by-parts
    facet stiffness used on the left-hand side to the nodal trace of the
    incident field, so the dropped edge contour terms cancel between the
    two sides instead of polluting the solution.
    """
    lo, hi = node_range
    if not (0 <= lo <= hi <= mesh.node_count):
        raise AssemblyError(f"node range {node_range} out of bounds")
    seg = np.zeros(3 * (hi - lo), dtype=np.complex128)
    node_facets = mesh.node_to_facets()
    pts, wts = _gauss(config.quadrature)
    facet_loads: dict[int, np.ndarray] = {}
    for n in range(lo, hi):
        for fid in node_facets[n]:
            facet = mesh.facets[fid]
            if facet.kind is not FacetKind.EXTERIOR:
                continue
            load = facet_loads.get(fid)
            if load is None:
                coords = mesh.nodes[list(facet.nodes)]
                nax, taxes = _facet_frame(coords, facet.normal)
                p2 = coords[:, taxes]
                load = np.zeros((4, 3), dtype=np.complex128)
                for u, wu in zip(pts, wts):
                    for v, wv in zip(pts, wts):
                        m, dm = _quad_shapes(np.array([u, v]))
                        det = abs(np.linalg.det(dm.T @ p2))
                        x = m @ coords
                        vec = _first_order_incident_load(wave, x, facet.normal)
                        load += wu * wv * det * np.outer(m, vec)
                am = abc_facet_matrices(coords, facet.normal, wave.k0,
                                        config.quadrature)
                trace = np.array([incident_field(wave, p)[0]
                                  for p in coords]).ravel()
                load += (am.second_order @ trace).reshape(4, 3)
                facet_loads[fid] = load
            af = facet.nodes.index(n)
            seg[3 * (n - lo):3 * (n - lo) + 3] += load[af]
    return seg


# ---------------------------------------------------------------------------
# Collective system modifications
# ---------------------------------------------------------------------------

def constrained_dofs(mesh: HexMesh) -> np.ndarray:
    """Dofs fixed to zero by the declared symmetry/antisymmetry planes.

    On a symmetry plane the normal component vanishes; on an
    antisymmetry plane both tangential components do.  A node reached by
    both kinds through the same plane axis is a configuration error.
    """
    per_node: dict[int, dict[int, FacetKind]] = {}
    for facet in mesh.facets:
        if facet.kind not in (FacetKind.SYMMETRY, FacetKind.ANTISYMMETRY):
            continue
        ax = facet.axis
        for n in facet.nodes:
            kinds = per_node.setdefault(n, {})
            if ax in kinds and kinds[ax] is not facet.kind:
                raise AssemblyError(
                    f"node {n} tagged with conflicting plane kinds on axis {ax}")
            kinds[ax] = facet.kind
    dofs = set()
    for n, kinds in per_node.items():
        for ax, kind in kinds.items():
            if kind is FacetKind.SYMMETRY:
                dofs.add(3 * n + ax)
            else:
                dofs.update(3 * n + c for c in range(3) if c != ax)
    return np.asarray(sorted(dofs), dtype=np.int64)


def apply_symmetry_bc(rows, rhs_seg: np.ndarray, mesh: HexMesh,
                      partition: RowPartition, rank: int, fabric=None):
    """Replace constrained rows with identity/zero and eliminate the
    matching columns everywhere.

    Column entries of a constrained dof live on other ranks, so every
    rank broadcasts the constrained dofs it owns; the traffic is counted
    under the "bc" phase.  Idempotent.
    """
    lo, hi = partition.dof_range(rank)
    all_constrained = constrained_dofs(mesh)
    mine = all_constrained[(all_constrained >= lo) & (all_constrained < hi)]
    if fabric is not None and fabric.ranks > 1:
        fabric.set_phase(rank, "bc")
        fabric.broadcast(rank, mine)
        gathered = []
        for src in range(fabric.ranks):
            gathered.append(mine if src == rank else fabric.recv(rank, src))
        merged = np.sort(np.concatenate(gathered))
    else:
        merged = all_constrained
    cset = set(merged.tolist())
    for local, dof in enumerate(range(lo, hi)):
        cols, vals = rows[local]
        if dof in cset:
            rows[local] = (np.array([dof], dtype=np.int64),
                           np.array([1.0 + 0.0j]))
            rhs_seg[local] = 0.0
        else:
            keep = np.array([c not in cset for c in cols.tolist()], dtype=bool)
            if not keep.all():
                # Eliminated columns carry zero solution values, so the
                # right-hand side is unchanged.
                rows[local] = (cols[keep], vals[keep])
    return rows, rhs_seg


def symmetrize(rows, rhs_seg: np.ndarray, partition: RowPartition, rank: int,
               fabric=None):
    """A <- A + A^T (no 1/2 factor) and rhs <- 2*rhs.

    Every rank ships the transpose images of its entries to the owner of
    the destination row; the result is exactly symmetric because both
    stored copies of a pair are formed by the same commutative addition.
    """
    lo, hi = partition.dof_range(rank)
    nrows = hi - lo
    cols_all = np.concatenate([cols for cols, _ in rows]) if nrows else \
        np.empty(0, dtype=np.int64)
    vals_all = np.concatenate([vals for _, vals in rows]) if nrows else \
        np.empty(0, dtype=np.complex128)
    rows_all = np.repeat(np.arange(lo, hi),
                         [len(cols) for cols, _ in rows])
    # Transpose triple (j, i, v) for every stored (i, j, v), grouped by
    # the owner of row j.
    dof_starts = partition.dofs_per_node * partition.node_starts
    owner = np.searchsorted(dof_starts, cols_all, side="right") - 1
    incoming = []
    if fabric is not None and fabric.ranks > 1:
        fabric.set_phase(rank, "symmetrize")
        for q in range(fabric.ranks):
            sel = owner == q
            triple = (cols_all[sel], rows_all[sel], vals_all[sel])
            if q == rank:
                local = triple
            else:
                fabric.send(rank, q, triple)
        for src in range(fabric.ranks):
            incoming.append(local if src == rank else fabric.recv(rank, src))
    else:
        incoming.append((cols_all, rows_all, vals_all))
    add_rows = np.concatenate([t[0] for t in incoming])
    add_cols = np.concatenate([t[1] for t in incoming])
    add_vals = np.concatenate([t[2] for t in incoming])
    order = np.lexsort((add_cols, add_rows))
    add_rows, add_cols, add_vals = (add_rows[order], add_cols[order],
                                    add_vals[order])
    bounds = np.searchsorted(add_rows, np.arange(lo, hi + 1))
    for local in range(nrows):
        s, e = bounds[local], bounds[local + 1]
        ac, av = add_cols[s:e], add_vals[s:e]
        cols, vals = rows[local]
        ucols = np.union1d(cols, ac)
        merged = np.zeros(len(ucols), dtype=np.complex128)
        merged[np.searchsorted(ucols, cols)] = vals
        merged[np.searchsorted(ucols, ac)] += av
        rows[local] = (ucols, merged)
    rhs_seg *= 2.0
    return rows, rhs_seg
