"""Workloads, repeats, the correctness gate and the metrics of the benchmark.

Every repeat builds a :class:`hexwave.runner.Scenario` and hands only that
to ``run_scenario``.  Untraced repeats carry one hook, two clock reads
around ``cg_solve``; traced repeats wrap every layer listed in
:func:`perf_trace.layer_targets`.
"""
from __future__ import annotations

import gc
import resource
import sys
import threading
import traceback
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

import numpy as np

from hexwave import runner
from hexwave.assembly import PlaneWave, incident_field
from hexwave.mesh import ScattererSpec
from hexwave.sparse import LowerSymmetricRows

from perf_trace import Patches, Tracer, layer_targets, self_times

# Axis-aligned (direction, polarization) pairs; seed 0 is the acceptance
# tests' +z / x-polarized wave.
_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
INCIDENT_PAIRS = [
    (sign, d, p)
    for sign in ("+", "-")
    for d, perps in (("z", "xy"), ("x", "yz"), ("y", "zx"))
    for p in perps
]

_SCATTER = dict(extent=(1.2, 1.2, 1.2), nodes_per_wavelength=10,
                scatterer=ScattererSpec(corner_min=(0.4, 0.4, 0.4),
                                        corner_max=(0.8, 0.8, 0.8)),
                storage="2", tol=1e-6)

# Why each workload is here is recorded in README.md beside this file.
WORKLOADS = {
    "scatter-icp": dict(_SCATTER, preconditioner="icp", ranks=1),
    "scatter-bicp-p2": dict(_SCATTER, preconditioner="bicp", ranks=2,
                            concat="spmd"),
    "empty-dp-p2": dict(extent=(1.0, 1.0, 1.0), nodes_per_wavelength=20,
                        preconditioner="dp", ranks=2, concat="ms",
                        storage="1", tol=1e-6),
}
# Workloads whose solution is gated against the incident wave, with
# criterion 6's bound on the relative L2 error.
INCIDENT_CHECKED = {"empty-dp-p2"}
INCIDENT_ERROR_LIMIT = 0.05

PHASES = ("bc", "symmetrize", "precond-build", "solve-iteration")
TIME_LAYERS = {
    "mesh.build_s": "mesh.build",
    "assembly.rows_s": "assembly.rows",
    "assembly.rhs_s": "assembly.rhs",
    "assembly.bc_s": "assembly.bc",
    "assembly.symmetrize_s": "assembly.symmetrize",
    "sparse.system_build_s": "sparse.system_build",
    "sparse.spmv_s": "sparse.spmv",
    "sparse.true_residual_s": "sparse.true_residual",
    "fabric.replicate_s": "fabric.replicate",
    "fabric.concat_s": "fabric.concat",
    "fabric.recv_wait_s": "fabric.recv_wait",
    "fabric.barrier_wait_s": "fabric.barrier_wait",
    "solver.precond_build_s": "solver.precond_build",
    "solver.precond_apply_s": "solver.precond_apply",
    "solver.cg_self_s": "solver.cg",
    "runner.self_s": "runner",
}
# Computed kernel counts: 8 real flops per complex multiply-add; an SpMV
# product reads a 16-byte value, an 8-byte index and a 16-byte x entry.
FLOPS_PER_MAC = 8
SPMV_BYTES_PER_ENTRY = 16 + 8 + 16

MIN_UNTRACED_REPEATS = 3


def incident_pair(seed: int):
    sign, d, p = INCIDENT_PAIRS[seed % len(INCIDENT_PAIRS)]
    s = -1.0 if sign == "-" else 1.0
    direction = tuple(s * v for v in _AXES[d])
    return f"{sign}{d}/{p}", direction, _AXES[p]


def make_scenario(spec: dict, seed: int) -> tuple[runner.Scenario, str]:
    label, direction, polarization = incident_pair(seed)
    return runner.Scenario(direction=direction, polarization=polarization,
                           seed=seed, **spec), label


def incident_reference(scenario: runner.Scenario) -> np.ndarray:
    mesh = runner.build_scenario_mesh(scenario)
    wave = PlaneWave(direction=scenario.direction,
                     polarization=scenario.polarization, k0=scenario.k0)
    return np.array([incident_field(wave, p)[0] for p in mesh.nodes]).ravel()


# ---------------------------------------------------------------------------
# One repeat
# ---------------------------------------------------------------------------

@dataclass
class Repeat:
    traced: bool
    ok: bool = False
    error: str = ""
    wall_s: float = 0.0
    setup_s: float = 0.0
    solve_s: float = 0.0
    iterations: int = 0
    totals: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    solution: bytes = b""
    true_residual: float = 0.0
    incident_error: float | None = None
    node_count: int = 0
    matrix_bytes: int = 0
    precond_bytes: int = 0
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def signature(self):
        return (self.iterations, tuple(sorted(self.totals.items())),
                self.solution)


def _spmv_hook(counts, args):
    m, partition, rank, _ = args
    counts[f"spmv_calls.rank{rank}"] += 1
    key = f"spmv_entries_per_call.rank{rank}"
    if key in counts:
        return
    # Stored entries one call multiplies; measured once per rank.
    lo, hi = partition.dof_range(rank)
    s, e = int(m.indptr[lo]), int(m.indptr[hi])
    entries = e - s
    if isinstance(m, LowerSymmetricRows):
        # Each stored off-diagonal entry also acts as its transpose.
        rows = np.repeat(np.arange(lo, hi), np.diff(m.indptr[lo:hi + 1]))
        entries += int(np.count_nonzero(m.indices[s:e] < rows))
    counts[key] = entries


def _spmv_totals(counts) -> tuple[int, int]:
    """(calls, multiplied entries) summed over ranks."""
    calls = entries = 0
    for key, n in counts.items():
        if key.startswith("spmv_calls.rank"):
            calls += n
            entries += n * counts[key.replace("spmv_calls",
                                              "spmv_entries_per_call")]
    return calls, entries


def _precond_apply_hook(counts, args):
    factor, _, partition, rank = args[:4]
    counts["precond_apply_calls"] += 1
    # Each rank solves the factor rows it owns, once forward and once
    # back, with one multiply-add per stored entry.
    lo, hi = (r - factor.row_start for r in partition.dof_range(rank))
    counts["trisolve_entries"] += 2 * int(factor.indptr[hi]
                                          - factor.indptr[lo])


_HOOKS = {"sparse.spmv": _spmv_hook,
          "solver.precond_apply": _precond_apply_hook}


def _cg_clock(entries: dict, exits: dict):
    """Wrapper factory for ``runner.cg_solve`` that reads the clock on
    entry and exit, keyed by thread."""
    def make(fn):
        def timed(*args, **kwargs):
            entries[threading.current_thread().name] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                exits[threading.current_thread().name] = perf_counter()
        timed.__wrapped__ = fn
        return timed
    return make


def run_repeat(scenario, traced: bool, reference=None) -> Repeat:
    rep = Repeat(traced=traced)
    entries: dict = {}
    exits: dict = {}
    tracer = Tracer(_HOOKS)
    patches = Patches()
    if traced:
        tracer.install(layer_targets(), patches)
    else:
        patches.install(runner, "cg_solve", _cg_clock(entries, exits))
    gc.collect()
    t0 = perf_counter()
    try:
        result = runner.run_scenario(scenario)
        rep.wall_s = perf_counter() - t0
    except Exception:                      # noqa: BLE001 - counted as failed
        rep.error = traceback.format_exc()
        return rep
    finally:
        patches.restore()
    report = result.report
    rep.iterations = report.iterations
    counters = report.counters
    rep.totals = dict(counters["totals"])
    for phase in PHASES:
        rep.phases[phase] = [sum(c[key] for r in counters["per_rank"]
                                 for c in r if c["phase"] == phase)
                             for key in ("messages", "bytes")]
    rep.solution = result.solution.tobytes()
    rep.true_residual = report.true_residual
    rep.node_count = result.node_count
    rep.matrix_bytes = result.matrix_bytes
    rep.precond_bytes = report.precond_bytes
    if reference is not None:
        rep.incident_error = float(np.linalg.norm(result.solution - reference)
                                   / np.linalg.norm(reference))
    if traced:
        rep.spans = tracer.spans
        rep.layers = dict(self_times(tracer.spans))
        rep.layers.update(tracer.counts)
    else:
        # run_spmd names rank threads rank<r>; one rank runs inline.
        main = "rank0" if scenario.ranks > 1 else "MainThread"
        rep.setup_s = max(entries.values()) - t0
        rep.solve_s = exits[main] - entries[main]
    rep.ok = report.converged and rep.true_residual <= 10 * scenario.tol
    if not rep.ok:
        rep.error = (f"converged={report.converged} true_residual="
                     f"{rep.true_residual:.3e} "
                     f"(limit {10 * scenario.tol:.1e})")
    elif rep.incident_error is not None and \
            rep.incident_error > INCIDENT_ERROR_LIMIT:
        rep.ok = False
        rep.error = (f"incident-wave error {rep.incident_error:.3%} > "
                     f"{INCIDENT_ERROR_LIMIT:.0%}")
    return rep


# ---------------------------------------------------------------------------
# A run: repeats for a time budget, the gate, and the metrics
# ---------------------------------------------------------------------------

def run_workload(spec: dict, seed: int, seconds: float, trace: bool,
                 check_incident: bool, log=print) -> dict:
    scenario, pair = make_scenario(spec, seed)
    reference = incident_reference(scenario) if check_incident else None
    log(f"seed {seed}: incident direction/polarization {pair}")
    repeats: list[Repeat] = []
    start = perf_counter()
    # A traced run alternates untraced and traced repeats, at least one
    # of each, so both kinds see the same machine state.
    min_repeats = 2 if trace else MIN_UNTRACED_REPEATS
    while len(repeats) < min_repeats or perf_counter() - start < seconds:
        rep = run_repeat(scenario, trace and len(repeats) % 2 == 1, reference)
        repeats.append(rep)
        split = ("" if rep.traced else f", setup {rep.setup_s:.4f} s, "
                                       f"solve {rep.solve_s:.4f} s")
        kind = "traced" if rep.traced else "untraced"
        log(f"repeat {len(repeats) - 1} {kind}: wall {rep.wall_s:.4f} s"
            f"{split}, iterations {rep.iterations}")
    _gate(repeats, log)
    return {"pair": pair, "repeats": repeats}


def _gate(repeats: list[Repeat], log) -> None:
    """Every repeat must match the first passing one bit for bit: the
    solution, the iteration count and the traffic totals."""
    ref = next((r for r in repeats if r.ok), None)
    for i, r in enumerate(repeats):
        if r.ok and r.signature() != ref.signature():
            r.ok = False
            r.error = (f"differs from repeat {repeats.index(ref)}: "
                       f"iterations {r.iterations} vs {ref.iterations}, "
                       f"traffic {r.totals} vs {ref.totals}, solution "
                       + ("equal" if r.solution == ref.solution
                          else "differs"))
        if not r.ok:
            log(f"repeat {i} FAILED: {r.error.strip()}", file=sys.stderr)


def summarize(outcome: dict, trace: bool) -> tuple[dict, list[str]]:
    """(metrics as {name: (value, unit)}, human-readable lines)."""
    repeats = outcome["repeats"]
    good = [r for r in repeats if r.ok]
    untraced = [r for r in good if not r.traced]
    lines = [f"repeats attempted {len(repeats)}, failed "
             f"{len(repeats) - len(good)}, failed_fraction "
             f"{(len(repeats) - len(good)) / len(repeats):.3f}"]
    metrics: dict = {}
    if not good:
        return metrics, lines
    first = good[0]
    lines.append(f"iterations {first.iterations}, traffic {first.totals}, "
                 f"true_residual {first.true_residual:.3e}"
                 + ("" if first.incident_error is None else
                    f", incident-wave error {first.incident_error:.3%}"))
    if not trace:
        for name in ("wall_s", "setup_s", "solve_s"):
            vals = [getattr(r, name) for r in untraced]
            metrics[name] = (median(vals), "s")
            lines.append(f"{name}: median {median(vals):.4f} s, "
                         f"min {min(vals):.4f}, max {max(vals):.4f}, "
                         f"n={len(vals)}")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (rss, "MB")
        return metrics, lines

    traced = [r for r in good if r.traced]
    if not traced or not untraced:
        return metrics, lines
    for metric, span in TIME_LAYERS.items():
        metrics[metric] = (median([r.layers.get(span, 0.0)
                                              for r in traced]), "s")
    counts = traced[0].layers
    spmv_calls, spmv_entries = _spmv_totals(counts)
    trisolve_entries = counts.get("trisolve_entries", 0)
    metrics.update({
        "mesh.nodes": (first.node_count, "count"),
        "sparse.spmv_calls": (spmv_calls, "count"),
        "sparse.matrix_bytes": (first.matrix_bytes, "B"),
        "sparse.spmv_flops_computed": (FLOPS_PER_MAC * spmv_entries, "flop"),
        "sparse.spmv_bytes_computed": (SPMV_BYTES_PER_ENTRY * spmv_entries,
                                       "B"),
        "fabric.messages": (first.totals["messages"], "count"),
        "fabric.bytes": (first.totals["bytes"], "B"),
        "fabric.barriers": (first.totals["barriers"], "count"),
        "solver.precond_apply_calls": (counts.get("precond_apply_calls", 0),
                                       "count"),
        "solver.trisolve_flops_computed": (FLOPS_PER_MAC * trisolve_entries,
                                           "flop"),
        "solver.iterations": (first.iterations, "count"),
        "solver.precond_bytes": (first.precond_bytes, "B"),
        "solver.true_residual": (first.true_residual, "1"),
    })
    for phase in PHASES:
        msgs, nbytes = first.phases[phase]
        metrics[f"fabric.messages.{phase}"] = (msgs, "count")
        metrics[f"fabric.bytes.{phase}"] = (nbytes, "B")
    traced_wall = median([r.wall_s for r in traced])
    untraced_wall = median([r.wall_s for r in untraced])
    accounted = median([sum(r.layers.get(s, 0.0)
                            for s in TIME_LAYERS.values()) / r.wall_s
                        for r in traced])
    metrics.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.self_time_share": (accounted, "1"),
    })
    lines.append(f"traced repeats n={len(traced)}, "
                 f"untraced n={len(untraced)}; "
                 f"tracing overhead {traced_wall - untraced_wall:+.4f} s; "
                 f"self times sum to {accounted:.3f} x traced wall "
                 f"(summed over rank threads)")
    return metrics, lines
