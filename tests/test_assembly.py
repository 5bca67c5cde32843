"""Element integrals, boundary terms, RHS, constraints, symmetrization."""
from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hexwave.assembly import (AssemblyError, MaterialParams, PlaneWave,
                              abc_facet_matrices, apply_symmetry_bc,
                              assemble_rhs, assemble_rows, constrained_dofs,
                              element_matrices, incident_field, symmetrize)
from hexwave.fabric import CommFabric, run_spmd
from hexwave.mesh import (HEX_CORNERS, FacetKind, ScattererSpec,
                          build_box_mesh, classify_boundary,
                          embed_pec_scatterer)
from hexwave.sparse import (LowerSymmetricRows, RedundantRows, _CsrBase,
                            partition_rows)

from conftest import (abc_incident_load, assert_same_csr, curl_block_oracle,
                      dense, element_loop_assemble, facet_loop_rhs,
                      mass_block_oracle, node_loop_rows, penalty_block_oracle,
                      phase_traffic, row_block, same_bits,
                      surface_mass_oracle, surface_stiffness_oracle)


# -- element integrals vs closed-form tensor-product oracles -----------------

@pytest.mark.parametrize("h", [1.0, 0.1])
@pytest.mark.parametrize("eps_mu", [(1.0, 1.0), (2.0 - 0.5j, 1.5 + 0.25j)])
def test_element_blocks_match_closed_form(h, eps_mu):
    eps, mu = eps_mu
    coords = h * HEX_CORNERS.astype(float)
    k0 = 2.0 * np.pi
    em = element_matrices(coords, eps, mu, k0)
    np.testing.assert_allclose(em.curl_curl, curl_block_oracle(h, eps),
                               rtol=1e-12, atol=1e-13 / h)
    np.testing.assert_allclose(em.mass, mass_block_oracle(h, mu, k0),
                               rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(em.penalty, penalty_block_oracle(h),
                               rtol=1e-12, atol=1e-13 / h)


def test_element_blocks_symmetric():
    em = element_matrices(0.2 * HEX_CORNERS.astype(float), 1.0, 1.0, 2 * np.pi)
    for blk in (em.curl_curl, em.mass, em.penalty):
        np.testing.assert_allclose(blk, blk.T, atol=1e-14)


def test_degenerate_element_rejected():
    coords = HEX_CORNERS.astype(float)
    coords[6] = coords[0]        # collapse a corner
    with pytest.raises(AssemblyError, match="Jacobian"):
        element_matrices(coords, 1.0, 1.0, 1.0)


def test_curl_block_annihilates_constant_field():
    """curl and divergence of a constant vector field are zero."""
    em = element_matrices(0.3 * HEX_CORNERS.astype(float), 1.0, 1.0, 1.0)
    const = np.tile(np.array([1.0, 2.0, -0.5]), 8)
    np.testing.assert_allclose(em.curl_curl @ const, 0.0, atol=1e-13)
    np.testing.assert_allclose(em.penalty @ const, 0.0, atol=1e-13)


# -- absorbing-boundary facet blocks -----------------------------------------

def test_abc_first_order_unit_facet_entries():
    """k0 = 1, unit facet: j * surface mass with entries {1/9, 1/18, 1/36}."""
    coords = np.array([(0., 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
    am = abc_facet_matrices(coords, np.array([0., 0, 1]), k0=1.0)
    ms = surface_mass_oracle(1.0)
    assert ms[0, 0] == pytest.approx(1 / 9)
    assert ms[0, 1] == pytest.approx(1 / 18)
    assert ms[0, 2] == pytest.approx(1 / 36)
    for c in (0, 1):        # tangential components
        idx = 3 * np.arange(4) + c
        np.testing.assert_allclose(am.first_order[np.ix_(idx, idx)], 1j * ms,
                                   rtol=1e-13)
    nidx = 3 * np.arange(4) + 2
    assert np.all(am.first_order[nidx, :] == 0)
    assert np.all(am.first_order[:, nidx] == 0)


def test_abc_second_order_unit_facet_vs_oracle():
    coords = np.array([(0., 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
    k0 = 3.0
    am = abc_facet_matrices(coords, np.array([0., 0, 1]), k0=k0)
    ks = surface_stiffness_oracle(1.0)
    idx = 3 * np.arange(4)
    np.testing.assert_allclose(am.second_order[np.ix_(idx, idx)],
                               1j / (2 * k0) * ks, rtol=1e-13)


def test_abc_stiffness_acts_as_second_difference_on_quadratic():
    """The assembled facet stiffness applied to the interpolant of
    f = u^2 + v^2 reproduces -integral(N * lap f) = -4 h^2 on interior
    nodes, i.e. the finite-difference second difference, exactly for
    this quadratic."""
    h = 0.25
    m = 5                      # 5x5 node patch in the z=0 plane
    k0 = 1.0
    K = np.zeros((m * m, m * m))
    for j in range(m - 1):
        for i in range(m - 1):
            quad = [i + m * j, i + 1 + m * j, i + 1 + m * (j + 1),
                    i + m * (j + 1)]
            coords = np.array([(h * (i + di), h * (j + dj), 0.0)
                               for di, dj in [(0, 0), (1, 0), (1, 1), (0, 1)]])
            am = abc_facet_matrices(coords, np.array([0., 0, 1]), k0=k0)
            # x-component rows carry the plain surface stiffness
            idx = 3 * np.arange(4)
            blk = (am.second_order[np.ix_(idx, idx)] / (1j / (2 * k0))).real
            K[np.ix_(quad, quad)] += blk
    uv = np.array([(h * (n % m), h * (n // m)) for n in range(m * m)])
    f = uv[:, 0] ** 2 + uv[:, 1] ** 2
    kf = K @ f
    for j in range(1, m - 1):
        for i in range(1, m - 1):
            assert kf[i + m * j] == pytest.approx(-4 * h * h, rel=1e-12)


def test_abc_facet_must_be_planar():
    coords = np.array([(0., 0, 0), (1, 0, 0), (1, 1, 0.5), (0, 1, 0)])
    with pytest.raises(AssemblyError):
        abc_facet_matrices(coords, np.array([0., 0, 1]), k0=1.0)


# -- incident field ----------------------------------------------------------

def _wave(direction=(1, 0, 0), polarization=(0, 1, 0), k0=2 * np.pi):
    return PlaneWave(direction=np.asarray(direction, float),
                     polarization=np.asarray(polarization, float), k0=k0)


def test_incident_field_divergence_free_fd():
    wave = _wave()
    p = np.array([0.21, 0.37, 0.49])
    eps = 1e-5
    div = 0.0
    for d in range(3):
        step = np.zeros(3)
        step[d] = eps
        div += (incident_field(wave, p + step)[0][d]
                - incident_field(wave, p - step)[0][d]) / (2 * eps)
    assert abs(div) < 1e-6


def test_incident_curl_matches_fd():
    wave = _wave(direction=(0, 0, 1), polarization=(1, 0, 0), k0=3.0)
    p = np.array([0.1, 0.2, 0.3])
    eps = 1e-6
    _, curl = incident_field(wave, p)
    fd = np.zeros(3, dtype=complex)
    for c in range(3):
        i, j = (c + 1) % 3, (c + 2) % 3
        si, sj = np.zeros(3), np.zeros(3)
        si[i] = eps
        sj[j] = eps
        fd[c] = ((incident_field(wave, p + si)[0][j]
                  - incident_field(wave, p - si)[0][j]) / (2 * eps)
                 - (incident_field(wave, p + sj)[0][i]
                    - incident_field(wave, p - sj)[0][i]) / (2 * eps))
    np.testing.assert_allclose(curl, fd, rtol=1e-6, atol=1e-8)


def test_incident_load_zero_on_exit_face():
    """Normal incidence, outward normal along propagation: the ABC load
    vanishes identically."""
    wave = _wave()
    for x in np.linspace(0, 1, 7):
        load = abc_incident_load(wave, np.array([1.0, x, 0.5]),
                                 np.array([1.0, 0, 0]))
        np.testing.assert_allclose(load, 0.0, atol=1e-14)


def test_incident_load_drives_entrance_face():
    wave = _wave()
    load = abc_incident_load(wave, np.array([0.0, 0.3, 0.5]),
                             np.array([-1.0, 0, 0]))
    assert np.linalg.norm(load) > 1.0


def test_plane_wave_validation():
    with pytest.raises(AssemblyError):
        PlaneWave(direction=np.array([1.0, 1.0, 0]),
                  polarization=np.array([0, 0, 1.0]), k0=1.0)
    with pytest.raises(AssemblyError):
        PlaneWave(direction=np.array([1.0, 0, 0]),
                  polarization=np.array([1.0, 0, 0]), k0=1.0)


# -- global assembly ---------------------------------------------------------

def _scatter_mesh(npw=5):
    mesh = build_box_mesh((1.0, 1.0, 1.0), npw)
    h = mesh.spacing
    return embed_pec_scatterer(mesh, ScattererSpec(
        corner_min=(h, h, h), corner_max=(2 * h, 2 * h, 2 * h)))


@pytest.mark.parametrize("npw", [3, 4, 5])
def test_dof_assembly_equals_element_loop(npw):
    mesh = _scatter_mesh(npw) if npw == 5 else build_box_mesh((1.,) * 3, npw)
    params = MaterialParams(k0=2 * np.pi)
    block = assemble_rows(mesh, params, (0, mesh.node_count))
    assert block.row_start == 0 and block.n == 3 * mesh.node_count
    got = dense(block)
    ref = element_loop_assemble(mesh, params)
    scale = np.abs(ref).max()
    assert np.abs(got - ref).max() / scale < 1e-12


def _node_range(fab, rank):
    """The nodes of a rank's rows, three rows per node."""
    lo, hi = fab.dof_range(rank)
    return lo // 3, hi // 3


def _stacked_rows(mesh, params, ranks):
    """Every rank's row block, each starting at its first owned dof,
    stacked into one matrix."""
    fab = CommFabric(partition_rows(mesh.node_count, ranks))
    blocks = [assemble_rows(mesh, params, _node_range(fab, r))
              for r in range(ranks)]
    assert [b.row_start for b in blocks] == [fab.dof_range(r)[0]
                                             for r in range(ranks)]
    return RedundantRows.from_rows(blocks, 3 * mesh.node_count)


def test_assembly_partition_invariant_bitwise():
    """Blocks of three ranks stack bitwise into the one-rank block and
    the per-node loop's rows."""
    mesh = _scatter_mesh()
    params = MaterialParams(k0=2 * np.pi)
    full = assemble_rows(mesh, params, (0, mesh.node_count))
    assert_same_csr(_stacked_rows(mesh, params, 3), full)
    assert_same_csr(full, row_block(node_loop_rows(mesh, params),
                                    3 * mesh.node_count))


def _node_of_kind(mesh, on_box_faces: int, pec: bool = False) -> int:
    """The first node on ``on_box_faces`` faces of the bounding box (3 a
    corner, 2 an edge, 1 a face, 0 inside), on a PEC facet or not."""
    lo, hi = mesh.bounding_box
    faces = ((mesh.nodes == lo) | (mesh.nodes == hi)).sum(axis=1)
    on_pec = np.zeros(mesh.node_count, dtype=bool)
    on_pec[mesh.facet_nodes[mesh.facet_kinds == FacetKind.PEC]] = True
    return int(np.flatnonzero((faces == on_box_faces) & (on_pec == pec))[0])


def test_single_node_ranges_are_the_node_loop_rows():
    """A rank of one node, a corner, edge, face, interior or
    scatterer-adjacent one, gets bitwise the per-node loop's rows."""
    mesh = _scatter_mesh()
    params = MaterialParams(k0=2 * np.pi)
    ref = node_loop_rows(mesh, params)
    nodes = [_node_of_kind(mesh, k) for k in (3, 2, 1, 0)]
    nodes.append(_node_of_kind(mesh, 0, pec=True))
    assert len(set(nodes)) == 5
    for v in nodes:
        assert_same_csr(assemble_rows(mesh, params, (v, v + 1)),
                        row_block(ref[3 * v:3 * v + 3], 3 * mesh.node_count,
                                  row_start=3 * v))


def test_two_material_regions_match_element_loop_and_partition():
    """Per-element eps_r/mu_r arrays: two regions, two cached blocks.
    Rows are bitwise the per-node loop's and independent of the split."""
    mesh = _scatter_mesh()
    centroids = mesh.nodes[mesh.elements].mean(axis=1)
    inner = centroids[:, 0] < 0.5
    params = MaterialParams(eps_r=np.where(inner, 4.0 - 0.3j, 1.0 + 0.0j),
                            mu_r=np.where(inner, 2.0 + 0.1j, 1.0 + 0.0j),
                            k0=2 * np.pi)
    full = assemble_rows(mesh, params, (0, mesh.node_count))
    got = dense(full)
    ref = element_loop_assemble(mesh, params)
    assert np.abs(got - ref).max() / np.abs(ref).max() < 1e-12
    uniform = element_loop_assemble(mesh, MaterialParams(k0=2 * np.pi))
    assert np.abs(ref - uniform).max() > 0.1 * np.abs(ref).max()
    assert_same_csr(full, row_block(node_loop_rows(mesh, params),
                                    3 * mesh.node_count))
    assert_same_csr(_stacked_rows(mesh, params, 3), full)


@pytest.mark.parametrize("direction,polarization", [
    ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
    ((0.6, 0.0, -0.8), (0.0, 1.0, 0.0)),
])
def test_rhs_matches_facet_loop_reference(direction, polarization):
    mesh = _scatter_mesh()
    wave = _wave(direction, polarization)
    ref = facet_loop_rhs(mesh, wave)
    fab = CommFabric(partition_rows(mesh.node_count, 3))
    for got in (assemble_rhs(mesh, wave, (0, mesh.node_count)),
                np.concatenate([assemble_rhs(mesh, wave, _node_range(fab, r))
                                for r in range(3)])):
        assert np.abs(got - ref).max() / np.abs(ref).max() <= 1e-13


def _corner_facet(mesh, node, axis):
    """Id of the exterior facet at ``node`` whose normal lies on ``axis``."""
    return next(i for i, (quad, normal) in enumerate(zip(mesh.facet_nodes,
                                                         mesh.facet_normals))
                if node in quad and np.argmax(np.abs(normal)) == axis)


def test_rhs_rejects_nonplanar_exterior_facet():
    mesh = build_box_mesh((1.,) * 3, 3)
    nodes = mesh.nodes.copy()
    nodes[26, 2] += 0.3 * mesh.spacing      # lift the top corner
    bent = replace(mesh, nodes=nodes)
    fid = _corner_facet(mesh, 26, 2)
    with pytest.raises(AssemblyError, match=f"facet {fid} is not planar"):
        assemble_rhs(bent, _wave(), (0, mesh.node_count))


def test_non_axis_aligned_exterior_facet_rejected():
    """A mesh reads its normals from the element faces, so only a caller
    of ``abc_facet_matrices`` can pass a tilted one."""
    coords = np.array([(0., 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
    with pytest.raises(AssemblyError,
                       match="^facet normal is not axis-aligned"):
        abc_facet_matrices(coords, np.array([0.0, 0.6, 0.8]), k0=1.0)


def test_node_in_no_element_is_named():
    mesh = build_box_mesh((1.,) * 3, 3)
    n = mesh.node_count
    orphan = replace(mesh, nodes=np.vstack([mesh.nodes, [[5.0, 5.0, 5.0]]]))
    with pytest.raises(AssemblyError, match=f"node {n} belongs to no element"):
        assemble_rows(orphan, MaterialParams(), (0, n + 1))


@pytest.mark.parametrize("node_range", [(-1, 3), (0, 28), (5, 4)])
def test_node_range_out_of_bounds(node_range):
    mesh = build_box_mesh((1.,) * 3, 3)
    with pytest.raises(AssemblyError, match="out of bounds"):
        assemble_rows(mesh, MaterialParams(), node_range)
    with pytest.raises(AssemblyError, match="out of bounds"):
        assemble_rhs(mesh, _wave(), node_range)


def test_rhs_segments_concatenate(npw=4):
    mesh = build_box_mesh((1.,) * 3, npw)
    wave = _wave()
    full = assemble_rhs(mesh, wave, (0, mesh.node_count))
    fab = CommFabric(partition_rows(mesh.node_count, 3))
    split = np.concatenate([assemble_rhs(mesh, wave, _node_range(fab, r))
                            for r in range(3)])
    np.testing.assert_array_equal(full, split)


def test_rhs_zero_on_pec_only_nodes():
    """Nodes whose facets are all PEC receive no load."""
    mesh = _scatter_mesh()
    wave = _wave()
    b = assemble_rhs(mesh, wave, (0, mesh.node_count))
    pec_nodes = set()
    ext_nodes = set()
    for quad, kind in zip(mesh.facet_nodes, mesh.facet_kinds):
        target = pec_nodes if kind is FacetKind.PEC else ext_nodes
        target.update(quad.tolist())
    for n in pec_nodes - ext_nodes:
        np.testing.assert_array_equal(b[3 * n:3 * n + 3], 0.0)


def test_normal_incidence_rhs_lives_on_entrance_face():
    mesh = build_box_mesh((1.,) * 3, 4)
    wave = _wave()          # propagates along +x
    b = assemble_rhs(mesh, wave, (0, mesh.node_count)).reshape(-1, 3)
    hi = mesh.bounding_box[1]
    for n in range(mesh.node_count):
        x = mesh.nodes[n]
        interior = np.all(x > 0) and np.all(x < hi - 1e-12)
        if interior:
            np.testing.assert_allclose(b[n], 0.0, atol=1e-14)
    exit_only = [n for n in range(mesh.node_count)
                 if mesh.nodes[n][0] > hi[0] - 1e-12
                 and 0 < mesh.nodes[n][1] < hi[1]
                 and 0 < mesh.nodes[n][2] < hi[2]]
    for n in exit_only:
        np.testing.assert_allclose(b[n], 0.0, atol=1e-13)
    entrance = [n for n in range(mesh.node_count) if mesh.nodes[n][0] == 0]
    assert max(np.abs(b[n]).max() for n in entrance) > 1e-2


# -- symmetry constraints ----------------------------------------------------

def test_constrained_dofs_symmetry_normal_component():
    mesh = classify_boundary(build_box_mesh((1.,) * 3, 3),
                             [("z+", "symmetry")])
    dofs = constrained_dofs(mesh)
    top = [n for n in range(27) if mesh.nodes[n][2] == mesh.nodes[:, 2].max()]
    assert sorted(dofs) == sorted(3 * n + 2 for n in top)


def test_constrained_dofs_antisymmetry_tangential_components():
    mesh = classify_boundary(build_box_mesh((1.,) * 3, 3),
                             [("x", "antisymmetry")])
    dofs = set(constrained_dofs(mesh).tolist())
    face = [n for n in range(27) if mesh.nodes[n][0] == 0]
    expect = set()
    for n in face:
        expect.update((3 * n + 1, 3 * n + 2))
    assert dofs == expect


def test_conflicting_plane_kinds_rejected():
    mesh = classify_boundary(build_box_mesh((1.,) * 3, 3),
                             [("z-", "symmetry"), ("z+", "antisymmetry")])
    # Same axis, different kinds, but disjoint faces: allowed.
    constrained_dofs(mesh)


def test_conflicting_plane_kinds_on_shared_node_named():
    mesh = classify_boundary(build_box_mesh((1.,) * 3, 3), [("z+", "symmetry")])
    top = np.flatnonzero(mesh.facet_kinds == FacetKind.SYMMETRY)
    assert len(top) == 4
    kinds = mesh.facet_kinds.copy()
    kinds[top[1]] = FacetKind.ANTISYMMETRY   # shares nodes 19, 22 with top[0]
    with pytest.raises(AssemblyError, match="node 19 tagged with conflicting "
                                            "plane kinds on axis 2"):
        constrained_dofs(replace(mesh, facet_kinds=kinds))


def _assembled(mesh, ranks=1):
    params = MaterialParams(k0=2 * np.pi)
    fab = CommFabric(partition_rows(mesh.node_count, ranks))

    def fn(f, r):
        block = assemble_rows(mesh, params, _node_range(f, r))
        rhs = assemble_rhs(mesh, _wave(), _node_range(f, r))
        return block, rhs

    out = run_spmd(fab, fn)
    return out, fab


def test_apply_symmetry_bc_identity_rows_and_columns():
    mesh = classify_boundary(build_box_mesh((1.,) * 3, 3),
                             [("z+", "symmetry")])
    ((block_in, _),), _ = _assembled(mesh)
    # A load on every dof, so zeroing the constrained ones shows.
    rhs_in = (1.0 + 0.5j) * np.arange(1, 82)
    ref = (dense(block_in), rhs_in.copy())
    block, rhs = apply_symmetry_bc(block_in, rhs_in, constrained_dofs(mesh))
    # The input block and rhs are left as they were.
    np.testing.assert_array_equal(dense(block_in), ref[0])
    np.testing.assert_array_equal(rhs_in, ref[1])
    a = dense(block)
    kept = np.ones(81, dtype=bool)
    kept[constrained_dofs(mesh)] = False
    np.testing.assert_array_equal(a[np.ix_(kept, kept)],
                                  ref[0][np.ix_(kept, kept)])
    np.testing.assert_array_equal(rhs[kept], rhs_in[kept])
    for dof in constrained_dofs(mesh):
        expect = np.zeros(81)
        expect[dof] = 1.0
        np.testing.assert_array_equal(a[dof], expect)
        col = a[:, dof].copy()
        col[dof] = 0.0
        np.testing.assert_array_equal(col, 0.0)
        assert rhs[dof] == 0.0


def test_apply_symmetry_bc_idempotent():
    mesh = classify_boundary(build_box_mesh((1.,) * 3, 3),
                             [("y", "antisymmetry")])
    ((block, rhs),), _ = _assembled(mesh)
    fixed = constrained_dofs(mesh)
    once, rhs_once = apply_symmetry_bc(block, rhs, fixed)
    twice, rhs_twice = apply_symmetry_bc(once, rhs_once, fixed)
    assert_same_csr(twice, once)
    np.testing.assert_array_equal(rhs_twice, rhs_once)


def test_apply_symmetry_bc_parallel_matches_serial():
    mesh = classify_boundary(build_box_mesh((1.,) * 3, 3),
                             [("z+", "symmetry"), ("x", "antisymmetry")])
    fixed = constrained_dofs(mesh)
    out1, _ = _assembled(mesh, ranks=1)
    block1, rhs1 = apply_symmetry_bc(*out1[0], fixed)
    res = [apply_symmetry_bc(*part, fixed)
           for part in _assembled(mesh, ranks=3)[0]]
    assert_same_csr(RedundantRows.from_rows([blk for blk, _ in res], 81),
                    block1)
    rhs3 = np.concatenate([rhs for _, rhs in res])
    np.testing.assert_array_equal(rhs3, rhs1)


def test_apply_symmetry_bc_without_constraints_leaves_rows():
    mesh = build_box_mesh((1.,) * 3, 3)
    assert constrained_dofs(mesh).size == 0
    out, _ = _assembled(mesh, ranks=2)
    for block, rhs in out:
        got = apply_symmetry_bc(block, rhs, constrained_dofs(mesh))
        assert got[0] is block and got[1] is rhs


# -- symmetrization ----------------------------------------------------------

def test_symmetrize_equals_a_plus_at_and_doubles_rhs():
    mesh = _scatter_mesh(4)
    ((block, rhs_before),), fab = _assembled(mesh)
    before = dense(block)
    sym, rhs = symmetrize(block, rhs_before, 0, fab)
    after = dense(sym)
    np.testing.assert_allclose(after, before + before.T, rtol=1e-15, atol=0)
    np.testing.assert_array_equal(rhs, 2.0 * rhs_before)
    np.testing.assert_array_equal(dense(block), before)


def test_symmetrize_shares_pattern_and_leaves_input_unchanged():
    mesh = _scatter_mesh(4)
    ((block, rhs),), fab = _assembled(mesh)
    before = [a.copy() for a in (block.indptr, block.indices, block.data)]
    sym, _ = symmetrize(block, rhs, 0, fab)
    assert sym.indptr is block.indptr and sym.indices is block.indices
    assert not np.shares_memory(sym.data, block.data)
    for got, want in zip((block.indptr, block.indices, block.data), before):
        assert np.array_equal(got, want)


def test_symmetrize_rejects_unmirrored_pattern(monkeypatch):
    """Dropping one stored entry (r, c), c > r, leaves row r unmirrored,
    whether one batch or many search the transposes."""
    from hexwave import assembly
    mesh = build_box_mesh((1.,) * 3, 3)
    ((block, rhs),), fab = _assembled(mesh)
    r = 30
    drop = block.indptr[r + 1] - 1               # last (largest) column
    assert block.indices[drop] > r
    keep = np.arange(block.nnz) != drop
    broken = _CsrBase(block.n, block.indptr - (np.arange(block.n + 1) > r),
                         block.indices[keep], block.data[keep])
    for chunk in (assembly._CHUNK, 50):
        monkeypatch.setattr(assembly, "_CHUNK", chunk)
        with pytest.raises(AssemblyError, match=f"^row {r} is not mirrored"):
            symmetrize(broken, rhs, 0, fab)


def test_symmetrize_exactly_symmetric():
    mesh = _scatter_mesh(4)
    ((block, rhs),), fab = _assembled(mesh)
    a = dense(symmetrize(block, rhs, 0, fab)[0])
    assert np.abs(a - a.T).max() == 0.0


def test_symmetrize_parallel_matches_serial_bitwise():
    mesh = build_box_mesh((1.,) * 3, 4)
    out1, fab1 = _assembled(mesh, ranks=1)
    block1, rhs1 = symmetrize(*out1[0], 0, fab1)

    out4, fab4 = _assembled(mesh, ranks=4)

    def fn(f, r):
        return symmetrize(*out4[r], r, f)

    res = run_spmd(fab4, fn)
    starts = fab4.row_starts[:-1].tolist()
    assert [blk.row_start for blk, _ in res] == starts
    assert_same_csr(RedundantRows.from_rows([blk for blk, _ in res],
                                            block1.n), block1)
    np.testing.assert_array_equal(np.concatenate([rhs for _, rhs in res]),
                                  rhs1)
    assert phase_traffic(fab4, "symmetrize")[0] == 12


def _without_entry(block, k):
    """The block with its stored entry k removed."""
    keep = np.arange(block.nnz) != k
    return _CsrBase(block.n, block.indptr - (block.indptr > k),
                    block.indices[keep], block.data[keep],
                    row_start=block.row_start)


def test_symmetrize_rejects_unmirrored_pattern_across_ranks(monkeypatch):
    """Dropping rank 0's entry (r, c), whose transpose lives on rank 1,
    names row r at P = 2 as at P = 1, whether one batch or many search
    the local and the received transposes."""
    from hexwave import assembly
    mesh = build_box_mesh((1.,) * 3, 3)
    r = 30
    for chunk in (assembly._CHUNK, 50):
        monkeypatch.setattr(assembly, "_CHUNK", chunk)
        for ranks in (1, 2):
            out, fab = _assembled(mesh, ranks)
            block, rhs = out[0]
            drop = block.indptr[r + 1] - 1       # last (largest) column
            assert fab.owner_of_dof(
                block.indices[drop:drop + 1])[0] == ranks - 1
            broken = [(_without_entry(block, drop), rhs)] + out[1:]
            with pytest.raises(AssemblyError,
                               match=f"^row {r} is not mirrored"):
                run_spmd(fab, lambda f, q: symmetrize(*broken[q], q, f))


def test_symmetrize_rejects_a_transpose_that_arrives_twice():
    """One transpose arrives twice: in place of the next one, from a row
    that stores one column twice or from a message that repeats one
    triple, and on top of all the others."""
    mesh = build_box_mesh((1.,) * 3, 3)
    ((block, rhs),), fab = _assembled(mesh)
    r = 30
    end = block.indptr[r + 1]
    cols = block.indices.copy()
    cols[end - 1] = cols[end - 2]
    twice = _CsrBase(block.n, block.indptr, cols, block.data)
    with pytest.raises(AssemblyError, match=f"^row {r} is not mirrored"):
        symmetrize(twice, rhs, 0, fab)

    out, _ = _assembled(mesh, ranks=2)
    other = out[1][0]
    rows = other.entry_rows()
    go = np.flatnonzero(other.indices < out[0][0].row_end)
    repeated = go.copy()
    repeated[1] = go[0]
    for sent, row in ((repeated, other.indices[go[1]]),
                      (np.append(go, go[0]), r"\d+")):
        fab = CommFabric(partition_rows(mesh.node_count, 2))

        def fn(f, q):
            if q == 0:
                return symmetrize(*out[0], 0, f)
            f.send(1, 0, (other.indices[sent], rows[sent], other.data[sent]))

        with pytest.raises(AssemblyError, match=f"^row {row} is not mirrored"):
            run_spmd(fab, fn)


def test_symmetrize_in_small_chunks_equals_a_plus_at(monkeypatch):
    """Chunks that split rows give the same exact A + A^T at P = 1 and 3."""
    from hexwave import assembly
    monkeypatch.setattr(assembly, "_CHUNK", 100)
    mesh = build_box_mesh((1.,) * 3, 4)
    for ranks in (1, 3):
        out, fab = _assembled(mesh, ranks)
        before = dense(RedundantRows.from_rows([b for b, _ in out], 192))
        res = run_spmd(fab, lambda f, q: symmetrize(*out[q], q, f))
        after = RedundantRows.from_rows([b for b, _ in res], 192)
        assert np.array_equal(dense(after), before + before.T)


def _traced_peak(fn):
    """``(fn(), peak bytes fn allocated above what was live at entry)``."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_apply_symmetry_bc_builds_no_full_length_row_array():
    """With a z+ symmetry plane on the 12 x 12 x 12-node box at P = 2,
    the peak beyond the kept blocks is the keep mask (1 B per entry) and
    ``select``'s index of the kept entries (8 B each): 8.8 B per input
    entry, within 12.  The full-length entry-row array and its masks made
    it 17.8 B; one int64 array more as long as the block adds 8."""
    mesh = classify_boundary(build_box_mesh((1.,) * 3, 12),
                             [("z+", "symmetry")])
    out, _ = _assembled(mesh, ranks=2)
    fixed = constrained_dofs(mesh)
    res, peak = _traced_peak(
        lambda: [apply_symmetry_bc(*part, fixed) for part in out])
    nnz = sum(b.nnz for b, _ in out)
    held = sum(b.indptr.nbytes + b.indices.nbytes + b.data.nbytes
               for b, _ in res)
    assert sum(b.nnz for b, _ in res) < nnz
    assert peak - held <= 12 * nnz, (peak - held) / nnz


def test_symmetrize_and_lower_join_hold_about_one_copy():
    """On a 12 x 12 x 12-node box at P = 2, symmetrize's peak stays
    within 1.5x, and the storage-1 join's within 1.1x, of their input
    blocks' index and value bytes (24 B per entry): 1.43x and 1.02x.
    Sorting copies of every triple took 3.0-3.5x, and full-length row
    and key arrays 1.95x; stacking full rows took 1.9x."""
    mesh = build_box_mesh((1.,) * 3, 12)
    out, fab = _assembled(mesh, ranks=2)
    entry_bytes = 24 * sum(b.nnz for b, _ in out)
    res, peak = _traced_peak(
        lambda: run_spmd(fab, lambda f, q: symmetrize(*out[q], q, f)))
    assert peak <= 1.5 * entry_bytes, peak / entry_bytes
    del out
    blocks = [b for b, _ in res]
    _, peak = _traced_peak(lambda: LowerSymmetricRows.from_symmetric_rows(
        blocks, blocks[0].n))
    assert peak <= 1.1 * entry_bytes, peak / entry_bytes


def test_symmetrize_in_small_windows_holds_no_full_length_array(monkeypatch):
    """With batches of 4096 entries each window of searched rows is a
    fraction of a rank's 176,868 entries: the peak is the new values (16
    B per entry), the hit marks (1 B) and the batches, within 1.0x the
    input's 24 B per entry (0.92x); one full-length int64 array more
    would add 0.33x.  The result is bitwise that of the default chunk."""
    from hexwave import assembly
    mesh = build_box_mesh((1.,) * 3, 12)
    out, fab = _assembled(mesh, ranks=2)
    entry_bytes = 24 * sum(b.nnz for b, _ in out)
    ref = run_spmd(fab, lambda f, q: symmetrize(*out[q], q, f))
    monkeypatch.setattr(assembly, "_CHUNK", 4096)
    fab = CommFabric(partition_rows(mesh.node_count, 2))
    res, peak = _traced_peak(
        lambda: run_spmd(fab, lambda f, q: symmetrize(*out[q], q, f)))
    assert peak <= 1.0 * entry_bytes, peak / entry_bytes
    for (got, _), (want, _) in zip(res, ref):
        assert_same_csr(got, want)
        assert same_bits(got.data, want.data)


def test_storage_1_handoff_copies_each_lower_entry_once():
    """At P = 2 the join of the ranks' lower blocks, as storage-1 ranks
    hand them over, is bitwise the join of their full blocks, and peaks
    within 1.05x its own bytes: one copy of each entry, with no full
    blocks and no full-length check arrays beside it."""
    mesh = build_box_mesh((1.,) * 3, 12)
    out, fab = _assembled(mesh, ranks=2)
    full = [b for b, _ in run_spmd(
        fab, lambda f, q: symmetrize(*out[q], q, f))]
    del out
    ref = LowerSymmetricRows.from_symmetric_rows(full, full[0].n)
    lower = [b.lower() for b in full]
    del full
    m, peak = _traced_peak(lambda: LowerSymmetricRows.from_symmetric_rows(
        lower, lower[0].n))
    assert_same_csr(m, ref)
    assert same_bits(m.data, ref.data)
    held = m.indptr.nbytes + m.indices.nbytes + m.data.nbytes
    assert peak <= 1.05 * held, peak / held


def test_one_rank_join_copies_nothing():
    """At P = 1 either storage's join wraps the rank's block in read-only
    views, allocating at most 0.05x the block's bytes; the block itself
    stays writable."""
    mesh = build_box_mesh((1.,) * 3, 12)
    ((block, rhs),), fab = _assembled(mesh)
    full, _ = symmetrize(block, rhs, 0, fab)
    del block
    for build, blk in ((RedundantRows.from_rows, full),
                       (LowerSymmetricRows.from_symmetric_rows, full.lower())):
        m, peak = _traced_peak(lambda: build([blk], blk.n))
        held = blk.indptr.nbytes + blk.indices.nbytes + blk.data.nbytes
        assert peak <= 0.05 * held, peak / held
        for name in ("indptr", "indices", "data"):
            got, mine = getattr(m, name), getattr(blk, name)
            assert np.shares_memory(got, mine) and np.array_equal(got, mine)
            assert not got.flags.writeable and mine.flags.writeable


def test_lower_storage_holds_24_bytes_per_entry():
    """The storage-1 system of the 12 x 12 x 12-node box at P = 2 holds
    its entries' indices and values (24 B each) and its row pointers: a
    transpose-row copy of the indices made it 32.2 B per entry."""
    mesh = build_box_mesh((1.,) * 3, 12)
    out, fab = _assembled(mesh, ranks=2)
    blocks = [b for b, _ in run_spmd(
        fab, lambda f, q: symmetrize(*out[q], q, f))]
    del out
    tracemalloc.start()
    try:
        m = LowerSymmetricRows.from_symmetric_rows(blocks, blocks[0].n)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 24.5 * m.nnz, held / m.nnz


def test_assemble_rows_writes_rows_in_place():
    """Rows go straight into their final arrays: on the 12 x 12 x 12-node
    box the peak stays within 2x the result's 24 B per entry (keeping
    every node block's pieces and their concatenation took 2.2x)."""
    mesh = build_box_mesh((1.,) * 3, 12)
    block, peak = _traced_peak(lambda: assemble_rows(
        mesh, MaterialParams(k0=2 * np.pi), (0, mesh.node_count)))
    assert peak <= 2.0 * 24 * block.nnz, peak / (24 * block.nnz)


def test_rows_and_symmetrize_across_node_blocks():
    """343 nodes span two blocks of the array passes: rows stay bitwise
    the per-node loop's and A + A^T is exact.  So do the rows of ranges
    that start and end mid-mesh, one shorter than a block and one a
    block and a part long."""
    from hexwave import assembly
    mesh = build_box_mesh((1.,) * 3, 7)
    n = 3 * mesh.node_count
    size = assembly._BLOCK_NODES
    assert mesh.node_count > size
    params = MaterialParams(k0=2 * np.pi)
    ref = node_loop_rows(mesh, params)
    block = assemble_rows(mesh, params, (0, mesh.node_count))
    assert_same_csr(block, row_block(ref, n))
    for lo, hi in ((3, size // 2), (size // 8, size + size // 4)):
        assert hi < mesh.node_count
        assert_same_csr(assemble_rows(mesh, params, (lo, hi)),
                        row_block(ref[3 * lo:3 * hi], n, row_start=3 * lo))
    before = dense(block)
    sym, _ = symmetrize(block, np.zeros(n, dtype=np.complex128), 0,
                        CommFabric(partition_rows(mesh.node_count, 1)))
    assert np.array_equal(dense(sym), before + before.T)


@pytest.mark.parametrize("storage", ["1", "2"])
def test_assemble_system_shares_one_system_across_ranks(storage):
    """At P = 2 and 3 every rank gets the same (matrix, b) object,
    bitwise equal to the one-rank system: on an empty box, and with a
    scatterer, a z+ symmetry plane and an x antisymmetry plane."""
    from hexwave.runner import Scenario, build_scenario_mesh, assemble_system

    planes = [("z+", "symmetry"), ("x", "antisymmetry")]
    for sc in (Scenario(extent=(0.5, 0.5, 0.75), nodes_per_wavelength=4,
                        storage=storage),
               Scenario(extent=(1.25, 1.25, 1.5), nodes_per_wavelength=4,
                        scatterer=ScattererSpec(corner_min=(0.25, 0.25, 0.25),
                                                corner_max=(0.5, 0.75, 0.5)),
                        symmetry_planes=planes, direction=(0.6, 0.8, 0.0),
                        polarization=(0.0, 0.0, 1.0), storage=storage)):
        mesh = build_scenario_mesh(sc)
        assert (constrained_dofs(mesh).size > 0) == bool(sc.symmetry_planes)
        ref, ref_b = assemble_system(
            sc, mesh, 0, CommFabric(partition_rows(mesh.node_count, 1)))
        for ranks in (2, 3):
            fab = CommFabric(partition_rows(mesh.node_count, ranks))
            out = run_spmd(fab, lambda f, r: assemble_system(sc, mesh, r, f))
            assert all(o is out[0] for o in out)
            matrix, b = out[0]
            assert type(matrix) is type(ref)
            assert_same_csr(matrix, ref)
            assert np.array_equal(b, ref_b)
            assert fab.barrier_collectives == 1


# -- half-domain symmetry-plane equivalence ----------------------------------

def test_symmetry_plane_reproduces_full_domain_solution():
    """A mirror-symmetric scenario solved on the half mesh with a
    symmetry plane matches the full-mesh solution on the shared nodes."""
    from hexwave.runner import Scenario, build_scenario_mesh, assemble_system

    def dense_solve(sc):
        mesh = build_scenario_mesh(sc)
        fab = CommFabric(partition_rows(mesh.node_count, 1))
        a, b = assemble_system(sc, mesh, 0, fab)
        return mesh, np.linalg.solve(dense(a), b)

    npw = 4
    # Full mesh: 3x3x9 nodes (z = 0 .. 8h), mirror plane at z = 4h.
    # Half mesh: 3x3x5 nodes with a symmetry plane on its top face.
    full = Scenario(extent=(0.75, 0.75, 2.25), nodes_per_wavelength=npw)
    half = Scenario(extent=(0.75, 0.75, 1.25), nodes_per_wavelength=npw,
                    symmetry_planes=[("z+", "symmetry")])
    mesh_f, x_f = dense_solve(full)
    mesh_h, x_h = dense_solve(half)
    hf = x_f.reshape(-1, 3)
    hh = x_h.reshape(-1, 3)
    nx, nz = 3, 9
    scale = np.abs(hf).max()
    for k in range(nz):      # mirror antisymmetry of the full solution
        for nid in range(nx * nx):
            a = nid + nx * nx * k
            b = nid + nx * nx * (nz - 1 - k)
            np.testing.assert_allclose(hf[a][:2], hf[b][:2],
                                       atol=1e-9 * scale)
            np.testing.assert_allclose(hf[a][2], -hf[b][2],
                                       atol=1e-9 * scale)
    for k in range(5):       # half solution equals the restriction
        for nid in range(nx * nx):
            np.testing.assert_allclose(hh[nid + nx * nx * k],
                                       hf[nid + nx * nx * k],
                                       atol=1e-9 * scale)
