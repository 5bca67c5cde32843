"""Command-line interface: configs, exit codes, exports."""
from __future__ import annotations

import csv
import json
import pathlib
import re
import threading

import numpy as np
import pytest
import scipy.io

import hexwave
from hexwave import cli
from hexwave.cli import main
from hexwave.mesh import MeshBudgetError, MeshError
from hexwave.runner import MAX_RANKS, ConfigError, Scenario
from hexwave.solver import FactorBreakdownError

SMALL_CONFIG = """\
[domain]
extent = 0.5 0.5 0.5
nodes_per_wavelength = 6

[wave]
direction = 0 0 1
polarization = 1 0 0

[solver]
ranks = 2
preconditioner = dp
tol = 1e-6
"""


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "scenario.ini"
    p.write_text(SMALL_CONFIG)
    return str(p)


def test_scenario_from_config_round_trip(config_path):
    sc = Scenario.from_config(config_path)
    assert sc.extent == (0.5, 0.5, 0.5)
    assert sc.nodes_per_wavelength == 6
    assert sc.direction == (0.0, 0.0, 1.0)
    assert sc.ranks == 2 and sc.preconditioner == "dp"


def test_scenario_missing_config_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        Scenario.from_config(str(tmp_path / "nope.ini"))


def test_scenario_validation_errors():
    with pytest.raises(ConfigError):
        Scenario(preconditioner="ssor")
    with pytest.raises(ConfigError):
        Scenario(storage="3")
    with pytest.raises(ConfigError):
        Scenario(frequency=-1.0)
    with pytest.raises(ConfigError):
        Scenario(ranks=0)


def test_scenario_rejects_more_ranks_than_the_cap(monkeypatch):
    """A rank count above MAX_RANKS is refused when the scenario is built,
    before any fabric (P x P queues) or rank thread exists."""
    from hexwave import fabric
    built = []
    monkeypatch.setattr(fabric.CommFabric, "__init__",
                        lambda self, *a, **k: built.append(a))
    threads = threading.active_count()
    with pytest.raises(ConfigError, match=r"^ranks 1701 is not in \[1, 64\]"):
        Scenario(ranks=1701)
    with pytest.raises(ConfigError):
        Scenario(ranks=MAX_RANKS + 1)
    assert Scenario(ranks=MAX_RANKS).ranks == MAX_RANKS
    assert not built and threading.active_count() == threads


def test_run_too_many_ranks_exit_four(config_path, capsys):
    assert main(["run", "--config", config_path, "--ranks", "65"]) == 4
    assert "ranks 65 is not in [1, 64]" in capsys.readouterr().err


def test_run_converged_exit_zero_and_report(config_path, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["run", "--config", config_path,
                 "--report", str(report), "--probe-grid", "7"])
    assert code == 0
    blob = json.loads(report.read_text())
    assert blob["converged"] is True
    assert blob["preconditioner"] == "dp"
    assert blob["ranks"] == 2
    assert blob["complex_unknowns"] == 3 * blob["node_count"]
    assert blob["counters"]["totals"]["messages"] > 0
    assert len(blob["probes"]) > 0 and len(blob["probes"][0]) == 4


def test_run_report_on_stdout_by_default(config_path, capsys):
    code = main(["run", "--config", config_path, "--ranks", "1"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["converged"] is True and blob["ranks"] == 1
    assert "seed" not in blob


@pytest.mark.parametrize("command", ["run", "compare"])
def test_removed_seed_flag_exit_four(config_path, command, capsys):
    assert main([command, "--config", config_path, "--seed", "3"]) == 4
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_run_flag_overrides_config(config_path, tmp_path):
    report = tmp_path / "r.json"
    code = main(["run", "--config", config_path, "--precond", "icp",
                 "--ranks", "1", "--report", str(report)])
    assert code == 0
    assert json.loads(report.read_text())["preconditioner"] == "icp"


def test_run_nonconverged_exit_two(config_path, tmp_path, capsys):
    code = main(["run", "--config", config_path, "--max-iter", "1",
                 "--report", str(tmp_path / "r.json")])
    assert code == 2


@pytest.mark.parametrize("flag, value", [("--precond", "ssor"),
                                         ("--ranks", "x")])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_bad_flag_value_exit_four(command, flag, value, capsys):
    """A bad command-line value is a config error, like a bad INI value,
    and is rejected before anything runs."""
    assert main([command, flag, value]) == 4
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"argument {flag}" in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--precond" in capsys.readouterr().out


def test_bad_config_value_exit_four(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text("[solver]\npreconditioner = ssor\n")
    assert main(["run", "--config", str(p)]) == 4
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    ("[solver]\nprecondtioner = icp\n", "[solver] precondtioner"),
    ("[solver]\npenalty_weight = 2.0\n", "[solver] penalty_weight"),
    ("[solver]\nseed = 3\n", "[solver] seed"),
    ("[domian]\nextent = 1 1 1\n", "[domian]"),
], ids=["misspelled-key", "removed-key", "removed-seed-key",
        "misspelled-section"])
def test_unknown_config_key_or_section_exit_four(tmp_path, capsys, text,
                                                 named):
    p = tmp_path / "typo.ini"
    p.write_text(text)
    assert main(["run", "--config", str(p)]) == 4
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    ("[solver]\ntol = 1e-6\ntol = 1e-5\n",
     "option 'tol' in section 'solver' already exists"),
    ("[solver]\ntol = 1e-6\n[solver]\nranks = 2\n",
     "section 'solver' already exists"),
    ("[solver\ntol = 1e-6\n", "no section headers"),
], ids=["duplicate-key", "duplicate-section", "unterminated-header"])
def test_malformed_config_exit_four(tmp_path, capsys, text, named):
    """INI syntax errors are config errors that name the file, not
    tracebacks."""
    p = tmp_path / "malformed.ini"
    p.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(str(p))):
        Scenario.from_config(str(p))
    assert main(["run", "--config", str(p)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bad config {p}: ") and named in err


@pytest.mark.parametrize("section, key, text", [
    ("solver", "tol", "{}"), ("domain", "frequency", "{}"),
    ("material", "eps_r", "{}"), ("material", "mu_r", "{}"),
    ("domain", "extent", "1 {} 1"), ("wave", "direction", "0 0 {}"),
    ("wave", "polarization", "{} 0 0")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_value_exit_four_before_mesh(tmp_path, capsys,
                                                monkeypatch, section, key,
                                                text, value):
    """A NaN or infinite tolerance, frequency, material constant or
    geometry vector is rejected when the scenario is built, naming the
    key, before any mesh exists."""
    from hexwave import runner

    def no_mesh(scenario):
        raise AssertionError("mesh built for a non-finite value")

    monkeypatch.setattr(runner, "build_scenario_mesh", no_mesh)
    p = tmp_path / "nonfinite.ini"
    p.write_text(f"[{section}]\n{key} = {text.format(value)}\n")
    assert main(["run", "--config", str(p)]) == 4
    err = capsys.readouterr().err
    assert f"{key} must be finite, got " in err and value in err
    parsed = runner._CONFIG_KEYS[section][key](text.format(value))
    with pytest.raises(ConfigError, match=f"^{key} must be finite"):
        Scenario(**{key: parsed})


@pytest.mark.parametrize("key, text, message", [
    ("direction", "1 1 0", "propagation direction must be a real unit vector"),
    ("polarization", "1 0 0", "polarization must be orthogonal to direction"),
])
def test_bad_incident_wave_exit_four_before_mesh(tmp_path, capsys,
                                                 monkeypatch, key, text,
                                                 message):
    """A direction that is not a unit vector, or a polarization that is
    not orthogonal to the direction (default +x), is rejected when the
    scenario is built, naming the file and the key, before any mesh."""
    from hexwave import runner

    def no_mesh(scenario):
        raise AssertionError("mesh built for a bad incident wave")

    monkeypatch.setattr(runner, "build_scenario_mesh", no_mesh)
    p = tmp_path / "bad-wave.ini"
    p.write_text(f"[wave]\n{key} = {text}\n")
    assert main(["run", "--config", str(p)]) == 4
    assert capsys.readouterr().err == (f"config error: bad config {p}: "
                                       f"{message}\n")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        Scenario(**{key: runner._floats(text)})


@pytest.mark.parametrize("budget", [0, -5])
def test_non_positive_node_budget_exit_four_before_mesh(tmp_path, capsys,
                                                        monkeypatch, budget):
    """A node budget below 1 is a config error naming the key, before any
    mesh is built, not an exceeded budget (exit 5)."""
    from hexwave import runner

    def no_mesh(scenario):
        raise AssertionError("mesh built for a non-positive node budget")

    monkeypatch.setattr(runner, "build_scenario_mesh", no_mesh)
    p = tmp_path / "node-budget.ini"
    p.write_text(f"[domain]\nnode_budget = {budget}\n")
    assert main(["run", "--config", str(p)]) == 4
    message = f"node_budget must be >= 1, got {budget}"
    assert capsys.readouterr().err == (f"config error: bad config {p}: "
                                       f"{message}\n")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        Scenario(node_budget=budget)


@pytest.mark.parametrize("key, value", [
    ("corner_min", "nan 0.4 0.4"), ("corner_max", "inf 0.8 0.8"),
    ("corner_min", "0.4 0.4")], ids=["nan", "inf", "two-numbers"])
def test_bad_scatterer_corner_exit_four(tmp_path, capsys, monkeypatch, key,
                                        value):
    """A scatterer corner that is not three finite numbers is a config
    error naming the file, the corner and its value, before any mesh; a
    NaN corner would otherwise remove nothing and solve an empty box."""
    from hexwave import runner

    def no_mesh(scenario):
        raise AssertionError("mesh built for a bad scatterer corner")

    monkeypatch.setattr(runner, "build_scenario_mesh", no_mesh)
    corners = {"corner_min": "0.4 0.4 0.4", "corner_max": "0.8 0.8 0.8",
               key: value}
    p = tmp_path / "corner.ini"
    p.write_text("[domain]\nextent = 1.2 1.2 1.2\nnodes_per_wavelength = 10\n"
                 "[scatterer]\n" + "".join(f"{k} = {v}\n"
                                           for k, v in corners.items()))
    assert main(["run", "--config", str(p)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bad config {p}: scatterer {key} "
                          "must be three finite numbers, got (")
    assert value.split()[0] in err


def test_non_finite_flags_and_complex_parts_rejected(config_path, capsys):
    assert main(["run", "--config", config_path, "--tol", "nan"]) == 4
    assert "tol must be finite, got nan" in capsys.readouterr().err
    for key in ("eps_r", "mu_r"):
        with pytest.raises(ConfigError, match=f"^{key} must be finite"):
            Scenario(**{key: complex(1.0, float("nan"))})


def test_readme_ini_example_loads(tmp_path):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    p = tmp_path / "readme.ini"
    p.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
    sc = Scenario.from_config(str(p))
    assert sc.extent == (1.2, 1.2, 1.2)
    assert sc.preconditioner == "bicp" and sc.ranks == 4
    assert sc.symmetry_planes == [("z+", "symmetry")]
    assert sc.scatterer.corner_min == (0.4, 0.4, 0.4)


def test_missing_config_file_exit_four(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 4


@pytest.mark.parametrize("max_iter", [0, -5])
def test_nonpositive_max_iter_exit_four(config_path, tmp_path, capsys,
                                        max_iter):
    """A cap below one iteration is a config error, not a non-converged
    run, from the config file and from the flag alike."""
    p = tmp_path / "cap.ini"
    p.write_text(SMALL_CONFIG + f"max_iter = {max_iter}\n")
    assert main(["run", "--config", str(p)]) == 4
    assert f"max_iter must be >= 1, got {max_iter}" in capsys.readouterr().err
    assert main(["run", "--config", config_path,
                 "--max-iter", str(max_iter)]) == 4
    with pytest.raises(ConfigError):
        Scenario(max_iter=max_iter)


def test_negative_probe_stride_exit_four_before_mesh(config_path, tmp_path,
                                                    capsys, monkeypatch):
    """A negative stride is rejected before any mesh is built, and no
    report is written."""
    from hexwave import runner

    def no_mesh(scenario):
        raise AssertionError("mesh built for a rejected probe stride")

    monkeypatch.setattr(runner, "build_scenario_mesh", no_mesh)
    report = tmp_path / "r.json"
    assert main(["run", "--config", config_path, "--probe-grid", "-1",
                 "--report", str(report)]) == 4
    assert "probe stride must be >= 0, got -1" in capsys.readouterr().err
    assert not report.exists()
    with pytest.raises(ConfigError, match="probe stride"):
        runner.run_scenario(Scenario(), probe_stride=-3)


@pytest.mark.parametrize("flag", ["--export-matrix", "--report"])
def test_unwritable_output_path_exit_four(config_path, tmp_path, capsys,
                                          flag):
    missing = tmp_path / "no-such-dir" / "out"
    assert main(["run", "--config", config_path, flag, str(missing)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert err.count("\n") == 1


def test_node_budget_exit_five(tmp_path, capsys):
    p = tmp_path / "big.ini"
    p.write_text("[domain]\nextent = 2 2 2\nnodes_per_wavelength = 10\n"
                 "node_budget = 100\n")
    assert main(["run", "--config", str(p)]) == 5
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("error, code", [
    (MeshBudgetError("mesh of 9 nodes exceeds budget 8"), 5),
    (MeshError("budget words in a mesh error of another kind"), 4)])
def test_mesh_errors_map_to_exit_codes_by_type(config_path, monkeypatch,
                                               capsys, error, code):
    """Only a MeshBudgetError exits 5, whatever the message says."""
    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr(cli, "run_scenario", fail)
    assert main(["run", "--config", config_path]) == code
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: " if code == 5
                          else "config error: ")


def test_solver_breakdown_exit_three(config_path, monkeypatch, capsys):
    def breakdown(*args, **kwargs):
        raise FactorBreakdownError("zero pivot in row 4")
    monkeypatch.setattr(cli, "run_scenario", breakdown)
    assert main(["run", "--config", config_path]) == 3
    assert "row 4" in capsys.readouterr().err


def test_version_matches_pyproject():
    text = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version\s*=\s*"([^"]+)"', text, re.M).group(1)
    assert hexwave.__version__ == declared
    assert not hasattr(hexwave, "run_scenario")    # no top-level re-exports


def test_export_matrix_round_trips_through_scipy(config_path, tmp_path):
    mm = tmp_path / "system.mtx"
    report = tmp_path / "r.json"
    code = main(["run", "--config", config_path, "--ranks", "1",
                 "--export-matrix", str(mm), "--report", str(report)])
    assert code == 0
    a = scipy.io.mmread(str(mm)).tocsr()
    b = np.loadtxt(str(mm) + ".rhs", skiprows=1).view(np.complex128).ravel()
    blob = json.loads(report.read_text())
    n = blob["complex_unknowns"]
    assert a.shape == (n, n) and b.shape == (n,)
    sym_gap = abs(a - a.T).max()
    assert sym_gap == 0.0


def test_compare_emits_csv_table(config_path, tmp_path):
    out = tmp_path / "table.csv"
    code = main(["compare", "--config", config_path,
                 "--precond-list", "dp,bicp", "--ranks-list", "1,2",
                 "--report", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {(r["preconditioner"], r["ranks"]) for r in rows} == {
        ("dp", "1"), ("dp", "2"), ("bicp", "1"), ("bicp", "2")}
    assert all(r["converged"] == "True" for r in rows)
    assert int(rows[0]["iterations"]) > 0


def test_compare_bad_precond_list_exit_four(config_path, capsys,
                                            monkeypatch):
    """An unknown preconditioner, a rank count below 1 or an empty list
    is a bad flag value: exit 4 before any mesh is built."""
    from hexwave import runner

    def no_mesh(scenario):
        raise AssertionError("mesh built for a rejected compare list")

    monkeypatch.setattr(runner, "build_scenario_mesh", no_mesh)
    for flag, value, message in [
            ("--precond-list", "dp,ssor", "unknown preconditioner 'ssor'"),
            ("--ranks-list", "0", "rank counts >= 1"),
            ("--ranks-list", "-1", "rank counts >= 1"),
            ("--ranks-list", "1,-1", "rank counts >= 1"),
            ("--precond-list", "", "rank counts >= 1"),
            ("--ranks-list", "", "rank counts >= 1")]:
        assert main(["compare", "--config", config_path, flag, value]) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
