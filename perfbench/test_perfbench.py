"""Checks of the benchmark itself on tiny scenarios (a second or two)."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import perf_harness as h          # noqa: E402
from perf_trace import _get_raw, layer_targets   # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = dict(extent=(0.5, 0.5, 0.5), nodes_per_wavelength=6, tol=1e-6)
TINY_CASES = {
    "icp-p1": dict(TINY, preconditioner="icp", ranks=1),
    "bicp-p2-spmd": dict(TINY, preconditioner="bicp", ranks=2, concat="spmd"),
    "dp-p2-ms-lower": dict(TINY, preconditioner="dp", ranks=2, concat="ms",
                           storage="1"),
}


def _quiet(*args, **kwargs):
    pass


@pytest.mark.parametrize("case", sorted(TINY_CASES))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(case, trace):
    originals = [(owner, attr, _get_raw(owner, attr))
                 for owner, attr, _ in layer_targets()]
    outcome = h.run_workload(TINY_CASES[case], 0, 0.0, trace,
                             check_incident=False, log=_quiet)
    metrics, _ = h.summarize(outcome, trace)

    assert all(r.ok for r in outcome["repeats"])
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {name: unit for name, (_, unit) in metrics.items()}
    # No wrapper survives the run.
    for owner, attr, raw in originals:
        assert _get_raw(owner, attr) is raw, attr
    if trace and TINY_CASES[case]["ranks"] == 1:
        # On one rank the self times tile the traced wall time.
        assert metrics["trace.self_time_share"][0] == pytest.approx(1.0,
                                                                    abs=0.05)


def test_seed_zero_is_the_acceptance_wave_and_seeds_cycle_pairs():
    assert h.incident_pair(0) == ("+z/x", (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
    labels = {h.incident_pair(s)[0] for s in range(len(h.INCIDENT_PAIRS))}
    assert len(labels) == len(h.INCIDENT_PAIRS) == 12


def test_gate_fails_a_repeat_that_differs():
    outcome = h.run_workload(TINY_CASES["icp-p1"], 0, 0.0, False,
                             check_incident=False, log=_quiet)
    repeats = outcome["repeats"]
    repeats[-1].solution = repeats[-1].solution[::-1]
    for r in repeats:
        r.ok = True
    h._gate(repeats, _quiet)
    assert [r.ok for r in repeats] == [True] * (len(repeats) - 1) + [False]


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         "scatter-icp", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
