"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL
line with the measured value and its tolerance.  The criteria:

 1. per-row assembly agrees with an element-loop oracle to 1e-12
 2. concatenation traffic is exactly P^2-P (all-to-all) / 2(P-1)
    (master-slave) messages per solver iteration
 3. the block factorization on one rank is bitwise the global one
 4. at scale: factored preconditioners beat the diagonal one, block
    quality degrades monotonically with rank count, and the diagonal
    iteration count is rank-independent
 5. on a dense pattern the incomplete factorization is exact (1e-12)
    and preconditioned CG converges in one iteration
 6. an empty domain reproduces the incident wave within 5% relative
    L2 error, improving monotonically under mesh refinement
 7. the symmetrized assembled system is exactly symmetric (gap 0.0)
 8. factored-preconditioner memory is about 1.5x the matrix alone
    (within 10%)
 9. both matrix storage layouts hold identical entries and give the
    same iteration count
10. repeat runs and both concatenation strategies are bitwise
    reproducible
"""
from __future__ import annotations

import numpy as np

from hexwave.assembly import (AssemblyConfig, MaterialParams, PlaneWave,
                              assemble_rows, incident_field)
from hexwave.fabric import CommFabric
from hexwave.mesh import (ScattererSpec, build_box_mesh, classify_boundary,
                          embed_pec_scatterer)
from hexwave.runner import (Scenario, assemble_system, build_scenario_mesh,
                            run_scenario)
from hexwave.solver import Preconditioner, build_bicp, build_icp, cg_solve
from hexwave.sparse import RedundantRows, RowPartition, partition_rows, to_redundant

from conftest import dense_ic_oracle, element_loop_assemble, row_block


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def _scatter_scenario(**kw) -> Scenario:
    base = dict(extent=(1.2, 1.2, 1.2), nodes_per_wavelength=10,
                scatterer=ScattererSpec(corner_min=(0.4, 0.4, 0.4),
                                        corner_max=(0.8, 0.8, 0.8)),
                direction=(0.0, 0.0, 1.0), polarization=(1.0, 0.0, 0.0))
    base.update(kw)
    return Scenario(**base)


def _small_scenario(**kw) -> Scenario:
    base = dict(extent=(0.5, 0.5, 0.5), nodes_per_wavelength=6,
                direction=(0.0, 0.0, 1.0), polarization=(1.0, 0.0, 0.0))
    base.update(kw)
    return Scenario(**base)


def _assembled(scenario: Scenario):
    mesh = build_scenario_mesh(scenario)
    part = partition_rows(mesh.node_count, 1)
    return assemble_system(scenario, mesh, part, 0, CommFabric(1)) + (part,)


def test_criterion_1_assembly_matches_element_loop_oracle():
    """Tolerance: max |A_rows - A_oracle| <= 1e-12 * max |A_oracle|,
    on meshes up to 5^3 elements with a one-element PEC box."""
    gaps = []
    for npw in (4, 6):                  # 3^3 and 5^3 elements
        h = 1.0 / npw
        mesh = build_box_mesh((1.0, 1.0, 1.0), npw, wavelength=1.0)
        mesh = embed_pec_scatterer(
            mesh, ScattererSpec(corner_min=(h, h, h),
                                corner_max=(2 * h, 2 * h, 2 * h)))
        mesh = classify_boundary(mesh, [])
        params = MaterialParams(eps_r=1.0, mu_r=1.0, k0=2 * np.pi)
        config = AssemblyConfig()
        got = assemble_rows(mesh, params, (0, mesh.node_count),
                            config).to_dense()
        ref = element_loop_assemble(mesh, params, config)
        gaps.append(np.abs(got - ref).max() / np.abs(ref).max())
    ok = all(g <= 1e-12 for g in gaps)
    _verdict(1, ok,
             "row assembly vs element-loop oracle on 3^3/5^3-element "
             "meshes, rel gaps "
             + ", ".join(f"{g:.2e}" for g in gaps) + " (tolerance 1e-12)")


def test_criterion_2_concat_message_counts_exact():
    """Tolerance: exact message counts per iteration for
    P in {1, 2, 4, 8, 10} under both strategies."""
    checks = []
    for ranks in (1, 2, 4, 8, 10):
        for concat, per_iter in (("spmd", ranks * ranks - ranks),
                                 ("ms", 2 * (ranks - 1))):
            sc = _small_scenario(ranks=ranks, concat=concat)
            res = run_scenario(sc)
            phases = [c for r in res.report.counters["per_rank"] for c in r
                      if c["phase"] == "solve-iteration"]
            msgs = sum(c["messages"] for c in phases)
            checks.append((concat, ranks, msgs,
                           per_iter * res.report.iterations))
    ok = all(got == want for _, _, got, want in checks)
    bad = [f"{c} P={p}: {got} msgs (expect {want})"
           for c, p, got, want in checks if got != want]
    _verdict(2, ok,
             "per-iteration concatenation traffic exact (P^2-P all-to-all, "
             "2(P-1) master-slave) for P in {1,2,4,8,10}"
             + ("" if ok else "; mismatches: " + "; ".join(bad)))


def _cube_scattering_scenario(**kw) -> Scenario:
    # 3^3-element cube (4 nodes/edge) with a one-element PEC box inside
    h = 0.25
    base = dict(extent=(1.0, 1.0, 1.0), nodes_per_wavelength=4,
                scatterer=ScattererSpec(corner_min=(h, h, h),
                                        corner_max=(2 * h, 2 * h, 2 * h)),
                direction=(0.0, 0.0, 1.0), polarization=(1.0, 0.0, 0.0))
    base.update(kw)
    return Scenario(**base)


def test_criterion_3_block_factor_on_one_rank_is_global_factor():
    """Tolerance: bitwise equality of factor arrays and equal solve
    iteration counts on a 3^3-element scattering system."""
    matrix, _, part = _assembled(_cube_scattering_scenario())
    icp = build_icp(matrix, part, 0, CommFabric(1))
    bicp = build_bicp(matrix, part, 0)
    same_factor = (np.array_equal(icp.data, bicp.data)
                   and np.array_equal(icp.indices, bicp.indices)
                   and np.array_equal(icp.indptr, bicp.indptr))
    it_icp = run_scenario(_cube_scattering_scenario(
        preconditioner="icp")).report.iterations
    it_bicp = run_scenario(_cube_scattering_scenario(
        preconditioner="bicp")).report.iterations
    ok = same_factor and it_icp == it_bicp
    _verdict(3, ok, "one-rank block factor bitwise equals the global "
                    f"factor ({icp.data.size} stored values), iterations "
                    f"{it_bicp} == {it_icp}")


def test_criterion_4_preconditioner_quality_at_scale():
    """Tolerance: exact iteration-count comparisons on a 1701-node
    scattering scenario."""
    rank_list = (1, 2, 4, 8)
    dp_iters = []
    for p in rank_list:
        dp_iters.append(run_scenario(
            _scatter_scenario(preconditioner="dp", ranks=p)).report.iterations)
    icp_iters = run_scenario(
        _scatter_scenario(preconditioner="icp", ranks=1)).report.iterations
    bicp_iters = []
    for p in rank_list:
        bicp_iters.append(run_scenario(
            _scatter_scenario(preconditioner="bicp", ranks=p)).report.iterations)
    ok_dp = len(set(dp_iters)) == 1
    ok_icp = icp_iters < dp_iters[0]
    ok_bicp = all(a <= b for a, b in zip(bicp_iters, bicp_iters[1:]))
    ok_start = bicp_iters[0] == icp_iters
    ok = ok_dp and ok_icp and ok_bicp and ok_start
    _verdict(4, ok,
             f"scale run: diagonal {dp_iters} rank-independent, factored "
             f"{icp_iters} < diagonal {dp_iters[0]}, block {bicp_iters} "
             f"nondecreasing with rank count")


def test_criterion_5_dense_pattern_factorization_is_exact(rng):
    """Tolerance: factor gap <= 1e-14, exactly 1 CG iteration."""
    m = rng.standard_normal((20, 20))
    a = (m @ m.T + 20 * np.eye(20)).astype(complex)
    rows = [(np.arange(20), a[i].copy()) for i in range(20)]
    ar = RedundantRows.from_rows([row_block(rows, 20)], 20)
    part = RowPartition(node_starts=np.array([0, 20]), dofs_per_node=1)
    factor = build_icp(ar, part, 0, CommFabric(1))
    gap = np.abs(factor.to_dense() - np.linalg.cholesky(a.real)).max()
    b = rng.standard_normal(20).astype(complex)
    _, rep = cg_solve(ar, b, Preconditioner(kind="icp", factor=factor),
                      part, 0, CommFabric(1), tol=1e-10)
    ok = gap <= 1e-14 and rep.iterations == 1 and rep.converged
    _verdict(5, ok, f"dense-pattern factorization exact (gap {gap:.2e} <= "
                    f"1e-14), CG converged in {rep.iterations} iteration")


def test_criterion_6_empty_domain_reproduces_incident_wave():
    """Tolerance: relative L2 error <= 5% at 10 nodes/wavelength,
    strictly decreasing at 15 and 20."""
    errors = []
    for npw in (10, 15, 20):
        sc = Scenario(extent=(1.0, 1.0, 1.0), nodes_per_wavelength=npw,
                      direction=(0.0, 0.0, 1.0), polarization=(1.0, 0.0, 0.0),
                      preconditioner="icp", tol=1e-8)
        mesh = build_scenario_mesh(sc)
        res = run_scenario(sc)
        wave = PlaneWave(direction=sc.direction, polarization=sc.polarization,
                         k0=sc.k0)
        ref = np.array([incident_field(wave, p)[0] for p in mesh.nodes]).ravel()
        errors.append(float(np.linalg.norm(res.solution - ref)
                            / np.linalg.norm(ref)))
    ok = errors[0] <= 0.05 and errors[0] > errors[1] > errors[2]
    _verdict(6, ok,
             "empty-domain incident-wave error "
             + ", ".join(f"{e:.3%}" for e in errors)
             + " at 10/15/20 nodes/wavelength (<= 5%, monotone)")


def test_criterion_7_assembled_system_exactly_symmetric():
    """Tolerance: symmetry gap exactly 0.0."""
    matrix, _, _ = _assembled(Scenario(
        extent=(1.0, 1.0, 1.0), nodes_per_wavelength=6,
        direction=(0.0, 0.0, 1.0), polarization=(1.0, 0.0, 0.0),
        scatterer=ScattererSpec(corner_min=(2 / 6, 2 / 6, 2 / 6),
                                corner_max=(3 / 6, 3 / 6, 3 / 6))))
    dense = matrix.to_dense()
    gap = np.abs(dense - dense.T).max()
    _verdict(7, gap == 0.0,
             f"symmetrized system gap max|A - A^T| = {gap} (exactly 0.0)")


def test_criterion_8_factored_preconditioner_memory_ratio():
    """Tolerance: (matrix + factor) / matrix within 10% of 1.5."""
    dp = run_scenario(_scatter_scenario(preconditioner="dp"))
    ratios = []
    for precond, ranks in (("icp", 1), ("bicp", 1), ("bicp", 4)):
        res = run_scenario(_scatter_scenario(preconditioner=precond,
                                             ranks=ranks))
        ratios.append((precond, ranks,
                       (res.matrix_bytes + res.precond_total_bytes)
                       / dp.matrix_bytes))
    ok = all(abs(r - 1.5) <= 0.15 for _, _, r in ratios)
    _verdict(8, ok, "storage ratio vs matrix alone: "
             + ", ".join(f"{p} P={k}: {r:.3f}" for p, k, r in ratios)
             + " (1.5 +- 10%)")


def test_criterion_9_storage_layouts_hold_identical_entries():
    """Tolerance: bitwise-equal entries, equal iteration counts, and
    the incomplete factor within 1e-13 of a densified reference."""
    sc1 = _small_scenario(storage="1")
    sc2 = _small_scenario(storage="2")
    m1, b1, _ = _assembled(sc1)
    m2, b2, part = _assembled(sc2)
    d1 = to_redundant(m1).to_dense()
    d2 = m2.to_dense()
    same_entries = np.array_equal(d1, d2) and np.array_equal(b1, b2)
    factor = build_icp(m2, part, 0, CommFabric(1))
    stored = np.zeros((m2.n, m2.n), dtype=bool)
    for i in range(m2.n):
        cols, _ = m2.row(i)
        stored[i, cols[cols <= i]] = True
    fgap = np.abs(factor.to_dense() - dense_ic_oracle(d2, stored)).max()
    it1 = run_scenario(sc1).report.iterations
    it2 = run_scenario(sc2).report.iterations
    ok = same_entries and it1 == it2 and fgap <= 1e-13
    _verdict(9, ok, f"lower-triangle and redundant layouts: entries "
                    f"bitwise equal, iterations {it1} == {it2}, factor vs "
                    f"densified reference gap {fgap:.2e} (<= 1e-13)")


def test_criterion_10_runs_are_bitwise_reproducible():
    """Tolerance: bitwise-identical solutions."""
    sc = _small_scenario(ranks=4)
    a = run_scenario(sc)
    b = run_scenario(sc)
    c = run_scenario(_small_scenario(ranks=4, concat="ms"))
    ok = (np.array_equal(a.solution, b.solution)
          and np.array_equal(a.solution, c.solution)
          and a.report.iterations == b.report.iterations == c.report.iterations)
    _verdict(10, ok, "repeat runs and both concatenation strategies give "
                     f"bitwise-identical solutions ({a.report.iterations} "
                     "iterations)")
