"""CG solutions of the 1701-node scattering system against a direct solve.

SciPy's sparse LU (a test-only oracle) factors the assembled storage-2
system once per module, in about 2 s.  At ``tol`` 1e-6 each
preconditioner's CG solution must agree with it to a relative forward
error of 2e-6 (about 2e-7 is measured for all three), and the true
relative residual must agree with CG's recursive one to 10 ``tol``.
"""
from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from hexwave.fabric import CommFabric
from hexwave.mesh import ScattererSpec
from hexwave.runner import (Scenario, assemble_system, build_scenario_mesh,
                            run_scenario)
from hexwave.sparse import RedundantRows, partition_rows

TOL = 1e-6


def _scatter_scenario(**kw) -> Scenario:
    """The acceptance criterion-4 geometry: a 1.2 wavelength box around a
    0.4 wavelength PEC cube, 10 nodes per wavelength."""
    return Scenario(extent=(1.2, 1.2, 1.2), nodes_per_wavelength=10,
                    scatterer=ScattererSpec(corner_min=(0.4, 0.4, 0.4),
                                            corner_max=(0.8, 0.8, 0.8)),
                    direction=(0.0, 0.0, 1.0), polarization=(1.0, 0.0, 0.0),
                    tol=TOL, max_iter=300, **kw)


@pytest.fixture(scope="module")
def direct_solution():
    sc = _scatter_scenario()
    mesh = build_scenario_mesh(sc)
    a, b = assemble_system(sc, mesh, 0,
                           CommFabric(partition_rows(mesh.node_count, 1)))
    assert isinstance(a, RedundantRows)
    lu = scipy.sparse.linalg.splu(scipy.sparse.csr_matrix(
        (a.data, a.indices, a.indptr), shape=(a.n, a.n)).tocsc())
    return mesh.node_count, lu.solve(b)


@pytest.mark.parametrize("precond, ranks", [("dp", 1), ("icp", 1),
                                            ("bicp", 2)])
def test_cg_solution_matches_sparse_lu(direct_solution, precond, ranks):
    nodes, x_ref = direct_solution
    res = run_scenario(_scatter_scenario(preconditioner=precond, ranks=ranks))
    rep = res.report
    assert res.node_count == nodes == 1701 and rep.converged
    error = np.linalg.norm(res.solution - x_ref) / np.linalg.norm(x_ref)
    gap = abs(rep.true_residual - rep.residual_history[-1])
    print(f"{precond} P={ranks}: {rep.iterations} iterations, forward "
          f"error {error:.2e}, residual gap {gap:.1e}")
    assert error <= 2e-6
    assert gap <= 10 * TOL
