"""Structured hexahedral box meshes with a table of tagged boundary facets.

Meshes are regular axis-aligned grids of trilinear hexahedra.  Boundary
facets (element faces appearing exactly once) form one table of
parallel arrays on the mesh: corner nodes, element face ``6e + k`` and
a ``FacetKind`` tag that selects their treatment during assembly:
absorbing boundary on the exterior, perfect-electric-conductor on
scatterer surfaces, or symmetry-plane constraints on declared
bounding-box faces.  Normals and tags are read from the element face,
never from coordinates, with whole array operations.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .sparse import _unique

# Local corner offsets of a hexahedron (VTK ordering): bottom quad then top quad.
HEX_CORNERS = np.array([
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
], dtype=np.int64)

# Local node indices of the six faces, ordered so the quad is traversed
# consistently.  Face k lies on axis k // 2, on its max side for odd k.
HEX_FACES = np.array([
    (0, 3, 7, 4),   # -x
    (1, 2, 6, 5),   # +x
    (0, 1, 5, 4),   # -y
    (3, 2, 6, 7),   # +y
    (0, 1, 2, 3),   # -z
    (4, 5, 6, 7),   # +z
], dtype=np.int64)

# Outward unit normal of face k, zeros written as +0.0 (np.eye(3) * -1
# would hold -0.0).
_FACE_NORMALS = np.array([(-1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, -1.0, 0.0),
                          (0.0, 1.0, 0.0), (0.0, 0.0, -1.0), (0.0, 0.0, 1.0)])

# Bounding-box face name -> element face k; a bare axis is the min face.
_PLANE_FACES = {"x": 0, "x-": 0, "x+": 1, "y": 2, "y-": 2, "y+": 3,
                "z": 4, "z-": 4, "z+": 5}


class MeshError(ValueError):
    """Invalid mesh construction request."""


class MeshBudgetError(MeshError):
    """The box needs more nodes than the node budget allows."""


class FacetKind(enum.Enum):
    EXTERIOR = "exterior"
    PEC = "pec"
    SYMMETRY = "symmetry"
    ANTISYMMETRY = "antisymmetry"


@dataclass(frozen=True)
class ScattererSpec:
    """Axis-aligned PEC box, corners in wavelengths, snapped to grid nodes."""
    corner_min: tuple[float, float, float]
    corner_max: tuple[float, float, float]

    def __post_init__(self):
        for name in ("corner_min", "corner_max"):
            value = getattr(self, name)
            if np.shape(value) != (3,) or not np.isfinite(value).all():
                raise MeshError(f"scatterer {name} must be three finite "
                                f"numbers, got {value}")


@dataclass
class HexMesh:
    """Nodes, elements and the boundary facet table.

    Facet ``f`` is row ``f`` of three parallel arrays, ordered
    lexicographically by corner tuple: its corners in the element-face
    winding, its element face ``6e + k`` (face k of element e, as in
    ``HEX_FACES``) and its ``FacetKind``.
    """
    nodes: np.ndarray             # (N, 3) coordinates in wavelengths
    elements: np.ndarray          # (E, 8) node indices, VTK corner order
    facet_nodes: np.ndarray       # (F, 4) corner node indices
    facet_faces: np.ndarray       # (F,) element face 6e + k
    facet_kinds: np.ndarray       # (F,) FacetKind members (object array)
    spacing: float                # grid step h in wavelengths

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def element_count(self) -> int:
        return self.elements.shape[0]

    @property
    def facet_normals(self) -> np.ndarray:
        """(F, 3) outward unit normals, read from each facet's face k."""
        return _FACE_NORMALS[self.facet_faces % len(HEX_FACES)]

    @property
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.nodes.min(axis=0), self.nodes.max(axis=0)


def _mesh_with_boundary(nodes: np.ndarray, elements: np.ndarray,
                        spacing: float) -> HexMesh:
    """Mesh whose facets are the element faces appearing exactly once,
    all tagged exterior."""
    quads = elements[:, HEX_FACES].reshape(-1, 4)      # face 6e + k
    _, first, _, count = _unique(np.sort(quads, axis=1), index=True)
    once = first[count == 1]
    once = once[np.lexsort(quads[once].T[::-1])]
    kinds = np.full(len(once), FacetKind.EXTERIOR, dtype=object)
    return HexMesh(nodes=nodes, elements=elements, facet_nodes=quads[once],
                   facet_faces=once, facet_kinds=kinds, spacing=spacing)


def _edge_node_count(side_wavelengths: float, nodes_per_wavelength: int) -> int:
    n = side_wavelengths * nodes_per_wavelength
    n_int = int(round(n))
    if abs(n - n_int) > 1e-9 or n_int < 2:
        raise MeshError(
            f"side of {side_wavelengths} wavelengths at {nodes_per_wavelength} "
            "nodes/wavelength does not give an integer edge node count >= 2")
    return n_int


def build_box_mesh(extent, nodes_per_wavelength: int,
                   node_budget: int = 2_000_000) -> HexMesh:
    """Regular box grid: a side of L wavelengths gets L*npw nodes per edge.

    ``extent`` is the three side lengths in wavelengths; spacing is
    1 / nodes_per_wavelength wavelengths.
    """
    extent = np.asarray(extent, dtype=float)
    if extent.shape != (3,) or np.any(extent <= 0):
        raise MeshError(f"extent must be 3 positive side lengths, got {extent}")
    if nodes_per_wavelength < 2:
        raise MeshError("nodes_per_wavelength must be >= 2")
    counts = [_edge_node_count(extent[d], nodes_per_wavelength) for d in range(3)]
    nx, ny, nz = counts
    if nx * ny * nz > node_budget:
        raise MeshBudgetError(
            f"mesh of {nx * ny * nz} nodes exceeds budget {node_budget}")
    h = 1.0 / nodes_per_wavelength

    # Node id = i + nx*(j + ny*k), x fastest; elements in the same order.
    kk, jj, ii = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx),
                             indexing="ij")
    nodes = np.column_stack([ii.ravel() * h, jj.ravel() * h,
                             kk.ravel() * h]).astype(float)
    base = (np.arange(nx - 1) + nx * (np.arange(ny - 1)[:, None]
                                      + ny * np.arange(nz - 1)[:, None, None]))
    elements = base.reshape(-1, 1) + HEX_CORNERS @ np.array([1, nx, nx * ny])
    return _mesh_with_boundary(nodes, elements, h)


def embed_pec_scatterer(mesh: HexMesh, spec: ScattererSpec | None) -> HexMesh:
    """Remove the elements inside the box and tag newly exposed facets PEC.

    The box corners must coincide with grid nodes and the box must lie
    strictly inside the outer boundary.  Nodes left without any element
    are dropped and the mesh renumbered.
    """
    if spec is None:
        return mesh
    lo = np.asarray(spec.corner_min, dtype=float)
    hi = np.asarray(spec.corner_max, dtype=float)
    if np.any(hi <= lo):
        raise MeshError("scatterer box must have positive volume")
    bb_lo, bb_hi = mesh.bounding_box
    tol = 1e-9 * max(mesh.spacing, 1.0)
    if np.any(lo <= bb_lo + tol) or np.any(hi >= bb_hi - tol):
        raise MeshError("scatterer box must lie strictly inside the outer boundary")
    for corner in (lo, hi):
        offs = corner / mesh.spacing
        if np.any(np.abs(offs - np.round(offs)) > 1e-6):
            raise MeshError(f"scatterer corner {corner} is not grid-aligned")

    centroids = mesh.nodes[mesh.elements].mean(axis=1)
    inside = np.all((centroids > lo) & (centroids < hi), axis=1)
    if not np.any(inside):
        return mesh
    kept = mesh.elements[~inside]

    used = np.zeros(mesh.node_count, dtype=bool)
    used[kept.ravel()] = True
    renum = np.full(mesh.node_count, -1, dtype=np.int64)
    renum[used] = np.arange(int(used.sum()))
    nodes = mesh.nodes[used]
    elements = renum[kept]

    out = _mesh_with_boundary(nodes, elements, mesh.spacing)
    # Tag PEC every facet whose element face was no non-PEC facet of the
    # input: the removal exposed it, or it was PEC already.
    e, k = np.divmod(out.facet_faces, len(HEX_FACES))
    old_faces = np.flatnonzero(~inside)[e] * len(HEX_FACES) + k
    open_faces = mesh.facet_faces[mesh.facet_kinds != FacetKind.PEC]
    out.facet_kinds[~np.isin(old_faces, open_faces)] = FacetKind.PEC
    return out


def plane_kinds(symmetry_planes: list[tuple[str, str]]) -> np.ndarray:
    """``FacetKind`` of each element face k of the planes ``(face, kind)``,
    exterior where none is declared: face ``x-``, ``x+``, ... (a bare axis
    is the min face), kind ``symmetry`` or ``antisymmetry``."""
    by_face = np.full(len(HEX_FACES), FacetKind.EXTERIOR, dtype=object)
    for face, kind in symmetry_planes:
        if face not in _PLANE_FACES:
            raise MeshError(f"unknown bounding-box face {face!r}")
        if kind not in ("symmetry", "antisymmetry"):
            raise MeshError(f"plane {face}: kind must be symmetry or "
                            f"antisymmetry, got {kind!r}")
        if by_face[_PLANE_FACES[face]] is not FacetKind.EXTERIOR:
            raise MeshError(f"duplicate symmetry plane declaration on {face}")
        by_face[_PLANE_FACES[face]] = FacetKind(kind)
    return by_face


def classify_boundary(mesh: HexMesh,
                      symmetry_planes: list[tuple[str, str]]) -> HexMesh:
    """Retag non-PEC facets by the bounding-box face their element face
    k lies on: declared faces take their plane kind (``plane_kinds``),
    the rest exterior."""
    plane = plane_kinds(symmetry_planes)[mesh.facet_faces % len(HEX_FACES)]
    kinds = np.where(mesh.facet_kinds == FacetKind.PEC, FacetKind.PEC, plane)
    return replace(mesh, facet_kinds=kinds)
