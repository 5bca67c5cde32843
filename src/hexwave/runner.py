"""Scenario configuration and the end-to-end pipeline.

A scenario (mesh geometry, incident wave, solver choices) is read from a
flat INI file or built directly; ``run_scenario`` executes the full
chain — mesh, assemble, constrain, symmetrize, precondition, solve —
across the simulated rank fabric and returns a machine-readable result.
"""
from __future__ import annotations

import configparser
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .assembly import (AssemblyError, MaterialParams, PlaneWave,
                       apply_symmetry_bc, assemble_rhs, assemble_rows,
                       constrained_dofs, symmetrize)
from .fabric import CONCAT_STRATEGIES, CommFabric, run_spmd
from .mesh import (HexMesh, ScattererSpec, build_box_mesh, classify_boundary,
                   embed_pec_scatterer)
from .solver import (Preconditioner, SolveReport, build_bicp, build_dp,
                     build_icp, cg_solve)
# to_redundant is unused here; perfbench's tracer wraps runner.to_redundant.
from .sparse import (LowerSymmetricRows, RedundantRows, partition_rows,
                     to_redundant, write_matrix_market, write_rhs)

SPEED_OF_LIGHT = 299_792_458.0    # m/s
PRECONDITIONERS = ("dp", "icp", "bicp")
STORAGES = ("1", "2")              # lower-triangle, redundant
MAX_RANKS = 64      # a fabric holds P x P queues and runs one thread per rank


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


@dataclass
class Scenario:
    extent: tuple[float, float, float] = (1.0, 1.0, 1.0)   # wavelengths
    nodes_per_wavelength: int = 10
    frequency: float = SPEED_OF_LIGHT                      # Hz -> 1 m wavelength
    scatterer: ScattererSpec | None = None
    symmetry_planes: list = field(default_factory=list)
    direction: tuple[float, float, float] = (1.0, 0.0, 0.0)
    polarization: tuple[float, float, float] = (0.0, 1.0, 0.0)
    eps_r: complex = 1.0
    mu_r: complex = 1.0
    ranks: int = 1
    preconditioner: str = "dp"
    concat: str = "spmd"
    storage: str = "2"             # "1" lower-triangle / "2" redundant
    tol: float = 1e-6
    max_iter: int | None = None
    node_budget: int = 2_000_000
    seed: int = 0      # unread; perfbench still passes it (ROADMAP item 4)

    def __post_init__(self):
        for key in ("extent", "frequency", "direction", "polarization",
                    "eps_r", "mu_r", "tol"):
            value = getattr(self, key)
            if not np.isfinite(value).all():
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.frequency <= 0:
            raise ConfigError("frequency must be positive")
        try:                # the incident wave, before any mesh is built
            PlaneWave(self.direction, self.polarization, self.k0)
        except AssemblyError as exc:
            raise ConfigError(str(exc)) from exc
        if self.preconditioner not in PRECONDITIONERS:
            raise ConfigError(f"unknown preconditioner {self.preconditioner!r}")
        if self.concat not in CONCAT_STRATEGIES:
            raise ConfigError(f"unknown concat strategy {self.concat!r}")
        if str(self.storage) not in STORAGES:
            raise ConfigError(f"storage must be '1' or '2', got {self.storage!r}")
        self.storage = str(self.storage)
        if not 1 <= self.ranks <= MAX_RANKS:
            raise ConfigError(f"ranks {self.ranks} is not in [1, {MAX_RANKS}]")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.max_iter is not None and self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.node_budget < 1:
            raise ConfigError(f"node_budget must be >= 1, got {self.node_budget}")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency

    @property
    def k0(self) -> float:
        return 2.0 * np.pi * self.frequency / SPEED_OF_LIGHT

    @classmethod
    def from_config(cls, path) -> "Scenario":
        cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
        try:
            if cp.read(path):
                return cls._from_parser(cp)
        except (configparser.Error, ValueError, KeyError) as exc:
            raise ConfigError(f"bad config {path}: {exc}") from exc
        raise ConfigError(f"cannot read config file {path}")

    @classmethod
    def _from_parser(cls, cp: configparser.ConfigParser) -> "Scenario":
        kw: dict = {}
        for section in cp.sections():
            if section not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            if section == "symmetry":       # keys are bounding-box faces
                kw["symmetry_planes"] = list(cp[section].items())
                continue
            for key, value in cp[section].items():
                if key not in _CONFIG_KEYS[section]:
                    raise ConfigError(f"unknown config key [{section}] {key}")
                kw[key] = _CONFIG_KEYS[section][key](value)
        if cp.has_section("scatterer"):
            kw["scatterer"] = ScattererSpec(corner_min=kw.pop("corner_min"),
                                            corner_max=kw.pop("corner_max"))
        return cls(**kw)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split())


# Per INI section, its keys and their parsers; [symmetry] takes any face.
_CONFIG_KEYS = {
    "domain": {"extent": _floats, "nodes_per_wavelength": int,
               "frequency": float, "node_budget": int},
    "scatterer": {"corner_min": _floats, "corner_max": _floats},
    "symmetry": {},
    "wave": {"direction": _floats, "polarization": _floats},
    "material": {"eps_r": complex, "mu_r": complex},
    "solver": {"ranks": int, "preconditioner": str, "concat": str,
               "storage": str, "tol": float, "max_iter": int},
}


@dataclass
class RunResult:
    report: SolveReport
    solution: np.ndarray
    node_count: int
    element_count: int
    complex_unknowns: int          # 3 per node
    dof_count: int                 # 6 per node (real-pair accounting)
    matrix_bytes: int
    precond_total_bytes: int
    probes: list = field(default_factory=list)
    wall_time: float = 0.0

    def as_dict(self) -> dict:
        d = self.report.as_dict()
        d.update({f.name: getattr(self, f.name) for f in fields(self)
                  if f.name not in ("report", "solution")})
        return d


def build_scenario_mesh(scenario: Scenario) -> HexMesh:
    mesh = build_box_mesh(scenario.extent, scenario.nodes_per_wavelength,
                          wavelength=scenario.wavelength,
                          node_budget=scenario.node_budget)
    mesh = embed_pec_scatterer(mesh, scenario.scatterer)
    return classify_boundary(mesh, scenario.symmetry_planes)


def assemble_system(scenario: Scenario, mesh: HexMesh, rank: int,
                    fabric: CommFabric):
    """Assemble, constrain and symmetrize this rank's CSR row block, then
    stack every rank's block into one global ``(matrix, b)``.

    With storage 1 each rank keeps only its block's lower triangle before
    the join, so the full blocks are gone when the join copies each
    stored entry once.  The join is built once and every rank gets the
    same read-only object, standing in for each rank's replicated copy of
    the final system.  It is simulation plumbing, not counted algorithm
    traffic (assembly itself is message-free, and the constraint and
    symmetrization messages are counted in their own phases); it costs
    one barrier.
    """
    params = MaterialParams(eps_r=scenario.eps_r, mu_r=scenario.mu_r,
                            k0=scenario.k0)
    wave = PlaneWave(direction=scenario.direction,
                     polarization=scenario.polarization, k0=scenario.k0)
    constrained = constrained_dofs(mesh)    # conflicting planes fail here
    node_range = tuple(d // 3 for d in fabric.dof_range(rank))
    fabric.set_phase(rank, "assemble")
    block = assemble_rows(mesh, params, node_range)
    rhs_seg = assemble_rhs(mesh, wave, node_range)
    block, rhs_seg = apply_symmetry_bc(block, rhs_seg, constrained, rank,
                                       fabric)
    block, rhs_seg = symmetrize(block, rhs_seg, rank, fabric)
    if scenario.storage == "1":
        block = block.lower()

    def join(parts):
        build = (LowerSymmetricRows.from_symmetric_rows
                 if scenario.storage == "1" else RedundantRows.from_rows)
        return (build([blk for blk, _ in parts], block.n),
                np.concatenate([seg for _, seg in parts]))

    return fabric.allgather_object(rank, (block, rhs_seg), join)


def build_preconditioner(scenario: Scenario, matrix, rank: int,
                         fabric: CommFabric) -> Preconditioner:
    fabric.set_phase(rank, "precond-build")
    if scenario.preconditioner == "dp":
        return build_dp(matrix)
    if scenario.preconditioner == "icp":
        return Preconditioner("icp", factor=build_icp(matrix, rank, fabric))
    return Preconditioner("bicp", factor=build_bicp(matrix, rank, fabric))


def _probe_samples(mesh: HexMesh, x: np.ndarray, stride: int) -> list:
    """|H| on every stride-th node, for qualitative field plots."""
    out = []
    h = x.reshape(-1, 3)
    for node in range(0, mesh.node_count, stride):
        p = mesh.nodes[node]
        mag = float(np.linalg.norm(h[node]))
        out.append([float(p[0]), float(p[1]), float(p[2]), mag])
    return out


def run_scenario(scenario: Scenario, probe_stride: int = 0,
                 export_matrix: str | None = None) -> RunResult:
    """Execute the full pipeline and return rank 0's result.

    All ranks share one system object (and, for ``icp``, one factor),
    so ``matrix_bytes`` and ``export_matrix`` describe that one copy.
    """
    if probe_stride < 0:
        raise ConfigError(f"probe stride must be >= 0, got {probe_stride}")
    start = time.monotonic()
    mesh = build_scenario_mesh(scenario)
    fabric = CommFabric(partition_rows(mesh.node_count, scenario.ranks),
                        scenario.concat)

    def per_rank(fab: CommFabric, rank: int):
        matrix, b = assemble_system(scenario, mesh, rank, fab)
        precond = build_preconditioner(scenario, matrix, rank, fab)
        x, report = cg_solve(matrix, b, precond, rank, fab, tol=scenario.tol,
                             max_iter=scenario.max_iter)
        pbytes = fab.allgather_object(rank, precond.memory_bytes())
        # A full factor is replicated on every rank: count it once.
        return matrix, b, x, report, (
            sum(pbytes) if precond.kind == "bicp" else pbytes[0])

    results = run_spmd(fabric, per_rank)
    matrix, b, x, report, precond_total = results[0]
    report.counters = fabric.counters_report()
    if export_matrix:
        write_matrix_market(export_matrix, matrix)
        write_rhs(export_matrix + ".rhs", b)
    probes = _probe_samples(mesh, x, probe_stride) if probe_stride else []
    return RunResult(
        report=report, solution=x,
        node_count=mesh.node_count, element_count=mesh.element_count,
        complex_unknowns=3 * mesh.node_count, dof_count=6 * mesh.node_count,
        matrix_bytes=matrix.value_bytes(), precond_total_bytes=precond_total,
        probes=probes, wall_time=time.monotonic() - start)


def compare_preconditioners(scenario: Scenario, precond_list,
                            rank_list) -> list[dict]:
    """Iteration/traffic table over the preconditioner x rank grid.

    Failures are recorded as marked cells, not raised.
    """
    rows = []
    for precond in precond_list:
        for ranks in rank_list:
            cell = {"preconditioner": precond, "ranks": ranks}
            try:
                sc = replace(scenario, preconditioner=precond, ranks=ranks)
                res = run_scenario(sc)
                totals = res.report.counters["totals"]
                cell.update({
                    "iterations": res.report.iterations,
                    "converged": res.report.converged,
                    "messages": totals["messages"],
                    "bytes": totals["bytes"],
                    "barriers": totals["barriers"],
                })
            except Exception as exc:   # noqa: BLE001 - marked cell per contract
                cell["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(cell)
    return rows
