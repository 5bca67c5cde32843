"""Mesh construction, scatterer embedding and boundary classification."""
from __future__ import annotations

import numpy as np
import pytest

from hexwave.mesh import (FacetKind, MeshBudgetError, MeshError,
                          ScattererSpec, build_box_mesh, classify_boundary,
                          embed_pec_scatterer)

from conftest import dict_boundary_facets, facet_loop_kinds, loop_box_elements


def test_minimal_grid_one_element():
    mesh = build_box_mesh((1.0, 1.0, 1.0), 2)
    assert mesh.node_count == 8
    assert mesh.element_count == 1
    assert len(mesh.facet_kinds) == 6
    assert mesh.spacing == 0.5


def test_node_ordering_x_fastest():
    mesh = build_box_mesh((1.0, 1.0, 1.0), 3)
    h = mesh.spacing
    nx = 3
    for k in range(3):
        for j in range(3):
            for i in range(3):
                nid = i + nx * (j + nx * k)
                assert np.allclose(mesh.nodes[nid], [i * h, j * h, k * h])


def test_edge_node_count_rule():
    mesh = build_box_mesh((3.0, 3.0, 3.0), 10, node_budget=10**6)
    assert mesh.node_count == 30 ** 3
    # 3 complex unknowns per node, 6 real-pair dofs per node.
    assert 3 * mesh.node_count == 81000


def test_fractional_extent_allowed_when_integral():
    mesh = build_box_mesh((1.2, 1.2, 0.6), 5)
    assert mesh.node_count == 6 * 6 * 3


def test_non_integer_edge_count_rejected():
    with pytest.raises(MeshError):
        build_box_mesh((1.0, 1.0, 1.1), 3)


def test_node_budget_enforced():
    with pytest.raises(MeshBudgetError, match="budget"):
        build_box_mesh((3.0, 3.0, 3.0), 10, node_budget=1000)
    assert issubclass(MeshBudgetError, MeshError)


def test_boundary_facet_count_cube():
    mesh = build_box_mesh((1.0, 1.0, 1.0), 4)
    # 6 faces x 3x3 element faces each.
    assert len(mesh.facet_kinds) == 54
    assert all(k is FacetKind.EXTERIOR for k in mesh.facet_kinds)


def test_facet_normals_outward():
    mesh = build_box_mesh((1.0, 1.0, 1.0), 3)
    lo, hi = mesh.bounding_box
    for quad, normal in zip(mesh.facet_nodes, mesh.facet_normals):
        center = mesh.nodes[quad].mean(axis=0)
        ax = np.argmax(np.abs(normal))
        if normal[ax] > 0:
            assert center[ax] == pytest.approx(hi[ax])
        else:
            assert center[ax] == pytest.approx(lo[ax])


def test_pec_box_removes_elements_and_tags_facets():
    mesh = build_box_mesh((1.0, 1.0, 1.0), 5)
    h = mesh.spacing
    out = embed_pec_scatterer(mesh, ScattererSpec(
        corner_min=(h, h, h), corner_max=(3 * h, 3 * h, 3 * h)))
    assert out.element_count == mesh.element_count - 8
    # One interior node disappears.
    assert out.node_count == mesh.node_count - 1
    # 2x2 exposed faces per box side.
    assert sum(k is FacetKind.PEC for k in out.facet_kinds) == 24
    assert sum(k is FacetKind.EXTERIOR for k in out.facet_kinds) == 6 * 16


def test_pec_box_must_be_interior():
    mesh = build_box_mesh((1.0, 1.0, 1.0), 5)
    h = mesh.spacing
    with pytest.raises(MeshError, match="inside"):
        embed_pec_scatterer(mesh, ScattererSpec(
            corner_min=(0.0, h, h), corner_max=(2 * h, 3 * h, 3 * h)))


def test_pec_box_must_align_with_grid():
    mesh = build_box_mesh((1.0, 1.0, 1.0), 5)
    h = mesh.spacing
    with pytest.raises(MeshError, match="grid"):
        embed_pec_scatterer(mesh, ScattererSpec(
            corner_min=(1.5 * h, h, h), corner_max=(3 * h, 3 * h, 3 * h)))


@pytest.mark.parametrize("corner", [
    (float("nan"), 0.4, 0.4), (float("inf"), 0.8, 0.8), (0.4, 0.4)],
    ids=["nan", "inf", "two-numbers"])
@pytest.mark.parametrize("name", ["corner_min", "corner_max"])
def test_scatterer_corner_must_be_three_finite_numbers(name, corner):
    """A NaN corner would pass every comparison check and remove nothing;
    the spec itself rejects it, naming the corner and its value."""
    kw = {"corner_min": (0.4, 0.4, 0.4), "corner_max": (0.8, 0.8, 0.8)}
    kw[name] = corner
    with pytest.raises(MeshError, match=rf"^scatterer {name} must be three "
                                        rf"finite numbers, got \({corner[0]}"):
        ScattererSpec(**kw)


def test_no_scatterer_is_identity():
    mesh = build_box_mesh((1.0, 1.0, 1.0), 3)
    assert embed_pec_scatterer(mesh, None) is mesh


def test_classify_symmetry_plane():
    mesh = build_box_mesh((1.0, 1.0, 1.0), 3)
    out = classify_boundary(mesh, [("z+", "symmetry"), ("x", "antisymmetry")])
    hi = mesh.bounding_box[1]
    for quad, kind in zip(out.facet_nodes, out.facet_kinds):
        coords = out.nodes[quad]
        if np.allclose(coords[:, 2], hi[2]):
            assert kind is FacetKind.SYMMETRY
        elif np.allclose(coords[:, 0], 0.0):
            assert kind is FacetKind.ANTISYMMETRY
        else:
            assert kind is FacetKind.EXTERIOR


def test_duplicate_plane_rejected():
    mesh = build_box_mesh((1.0, 1.0, 1.0), 3)
    with pytest.raises(MeshError, match="duplicate"):
        classify_boundary(mesh, [("z", "symmetry"), ("z-", "symmetry")])


def test_unknown_face_rejected():
    mesh = build_box_mesh((1.0, 1.0, 1.0), 3)
    with pytest.raises(MeshError, match="unknown"):
        classify_boundary(mesh, [("w+", "symmetry")])


def test_facet_order_deterministic():
    a = build_box_mesh((1.0, 1.0, 1.0), 4)
    b = build_box_mesh((1.0, 1.0, 1.0), 4)
    np.testing.assert_array_equal(a.facet_nodes, b.facet_nodes)


def _scatter_mesh():
    """The 1701-node PEC-box scattering mesh of the acceptance gate."""
    return embed_pec_scatterer(build_box_mesh((1.2, 1.2, 1.2), 10),
                               ScattererSpec(corner_min=(0.4, 0.4, 0.4),
                                             corner_max=(0.8, 0.8, 0.8)))


@pytest.mark.parametrize("mesh", [
    build_box_mesh((1.0, 1.0, 1.0), 3),
    build_box_mesh((1.0, 1.25, 1.5), 4),
    _scatter_mesh(),
], ids=["cube", "non-cubic", "scatterer"])
def test_facet_table_matches_dict_reference(mesh):
    nodes, faces, normals = dict_boundary_facets(mesh.nodes, mesh.elements)
    assert mesh.facet_nodes.dtype == nodes.dtype
    assert mesh.facet_faces.dtype == faces.dtype
    for got, want in ((mesh.facet_nodes, nodes), (mesh.facet_faces, faces),
                      (mesh.facet_normals, normals)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_box_elements_match_triple_loop():
    mesh = build_box_mesh((1.0, 1.25, 1.5), 4)
    want = loop_box_elements(4, 5, 6)
    assert mesh.elements.shape == want.shape
    assert mesh.elements.tobytes() == want.tobytes()


def _wall_hugging_mesh():
    """The 5-node box with a PEC box from h to 3h: one element from
    every wall."""
    mesh = build_box_mesh((1.0, 1.0, 1.0), 5)
    h = mesh.spacing
    return embed_pec_scatterer(mesh, ScattererSpec(
        corner_min=(h, h, h), corner_max=(3 * h, 3 * h, 3 * h)))


def test_classified_kinds_match_facet_loop():
    planes = [("z+", "symmetry"), ("x", "antisymmetry")]
    for mesh in (_wall_hugging_mesh(), _scatter_mesh()):
        mesh = classify_boundary(mesh, planes)
        want = facet_loop_kinds(mesh, planes)
        assert list(mesh.facet_kinds) == want
        assert set(want) == set(FacetKind)
    # Retagging starts over: earlier planes revert to exterior.
    again = classify_boundary(mesh, [("y-", "antisymmetry")])
    assert list(again.facet_kinds) == facet_loop_kinds(again, [("y-", "antisymmetry")])
