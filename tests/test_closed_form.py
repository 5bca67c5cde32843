"""Computed fields against closed-form solutions.

Each case is a one-element-wide column between symmetry walls: x±
symmetry planes (H_x = 0) and y± antisymmetry planes (H_x = H_z = 0)
leave a normally incident wave with H along ŷ exact, so nodal H_y
along z can be compared with a 1-D solution.  The box extent is
(2/npw, 2/npw, 2 + 1/npw) wavelengths: two nodes across, and a side
along z of 2 npw + 1 nodes, physically 2 wavelengths long.
"""
from __future__ import annotations

import functools

import numpy as np
import pytest

from hexwave.runner import Scenario, run_scenario

NODES_PER_WAVELENGTH = (10, 20, 40, 80)
WALLS = [("x-", "symmetry"), ("x+", "symmetry"),
         ("y-", "antisymmetry"), ("y+", "antisymmetry")]

# Per case: the incident direction, the planes added to WALLS (the ABC
# takes the remaining z faces), the closed-form H_y(k0 z), and the bound
# on the relative L2 error at 20, 40 and 80 nodes/λ, a little above the
# measured 0.0584 / 0.0148 / 0.00372 (wall) and 0.0300 / 0.00753 /
# 0.00188 (guided).
CASES = {
    # A z- symmetry plane fixes H_z = 0, the conducting wall's n·H = 0:
    # the wave incident along -z and its reflection stand as 2 cos(k0 z).
    "conducting-wall": ((0.0, 0.0, -1.0), [("z-", "symmetry")],
                        lambda kz: 2.0 * np.cos(kz), (0.07, 0.018, 0.0045)),
    # The ABC on both z faces: the wave passes through unreflected.
    "guided": ((0.0, 0.0, 1.0), [], lambda kz: np.exp(-1j * kz),
               (0.035, 0.009, 0.0023)),
}


CONFIGS = [("dp", 1), ("dp", 2), ("icp", 1), ("icp", 2), ("bicp", 2)]


@functools.lru_cache(maxsize=None)
def _field(case: str, npw: int, preconditioner: str = "dp",
           ranks: int = 1) -> np.ndarray:
    """Nodal H, one row per node, of a run at ``tol`` 1e-10."""
    direction, planes, _, _ = CASES[case]
    res = run_scenario(Scenario(
        extent=(2.0 / npw, 2.0 / npw, 2.0 + 1.0 / npw),
        nodes_per_wavelength=npw, symmetry_planes=WALLS + planes,
        direction=direction, polarization=(0.0, 1.0, 0.0),
        preconditioner=preconditioner, ranks=ranks, tol=1e-10))
    assert res.report.converged
    return res.solution.reshape(-1, 3)


def _error(case: str, npw: int, *config) -> float:
    """Relative L2 error of nodal H_y against the closed form."""
    h = _field(case, npw, *config)
    z = np.arange(len(h)) // 4 / npw          # four nodes per z layer
    exact = CASES[case][2](2.0 * np.pi * z)
    return float(np.linalg.norm(h[:, 1] - exact) / np.linalg.norm(exact))


@pytest.mark.parametrize("case", sorted(CASES))
def test_error_falls_at_second_order(case):
    errors = [_error(case, npw) for npw in NODES_PER_WAVELENGTH]
    assert all(e < bound for e, bound in zip(errors[1:], CASES[case][3]))
    assert np.log2(errors[2] / errors[3]) >= 1.9


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("npw", NODES_PER_WAVELENGTH)
def test_every_preconditioner_gives_the_same_field(case, npw):
    """H_x and H_z are exactly 0, and dp, icp and bicp on one or two
    ranks give the same error to 1e-4 relative."""
    reference = _error(case, npw)
    for config in CONFIGS:
        h = _field(case, npw, *config)
        assert not h[:, 0].any() and not h[:, 2].any()
        assert _error(case, npw, *config) == pytest.approx(reference,
                                                           rel=1e-4)
