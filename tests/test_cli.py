"""End-to-end CLI contract: formats, determinism, exit codes, schema.

Every invocation runs in a fresh interpreter so environment handling,
argument parsing and exit codes are exercised exactly as a shell user
would hit them.
"""

import contextlib
import io
import json
import math
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from datetime import datetime

import pytest
from hypothesis import example, given, settings, strategies as st

from efimov_lab.cli import main
from efimov_lab.core import MAX_GRID_POINTS

B_REF = 1.0062378251027815
C_REF = 1.2625145606675758
RATIO_E_REF = 515.03500138488278
RATIO_NODE_REF = 22.694382595366695
SLOPE_REF = 0.73750752295684
BRANCH_ROOTS_AT_X0 = [-1.012514560667576, 19.938856034048226,
                      46.49004553340669, 86.94975630411273]

MANIFEST_KEYS = {"command", "version", "parameters", "tolerances", "units", "timestamp"}

# subcommands whose --tol bounds a result; potential and branches take none
TOL_COMMANDS = {"constants", "spectrum", "nodes", "meanfield"}


def _manifest_ok(manifest, command):
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["command"] == command
    assert manifest["units"]["hbar"] == 1.0
    assert manifest["units"]["mass_scale"] == 1.0
    assert "a < 0" in manifest["units"]["convention"]
    assert {"format", "output"} <= set(manifest["parameters"])
    assert ("tol" in manifest["parameters"]) == (command in TOL_COMMANDS)
    datetime.fromisoformat(manifest["timestamp"])


def test_version_flag(cli):
    out = cli(["--version"]).stdout
    assert out.startswith("efimov-lab ")


def test_constants_json_contract(cli, schema_validator):
    doc = json.loads(cli(["constants", "--format", "json"]).stdout)
    schema_validator.validate(doc)
    assert set(doc) == {"b", "C", "residual", "manifest"}
    assert doc["b"] == pytest.approx(B_REF, rel=1e-10)
    assert doc["C"] == pytest.approx(C_REF, rel=1e-10)
    assert abs(doc["C"] - (doc["b"] ** 2 + 0.25)) <= 1e-12
    assert doc["residual"] <= 1e-10
    _manifest_ok(doc["manifest"], "constants")


def test_constants_csv_layout(cli, schema_validator):
    proc = cli(["constants"])
    lines = proc.stdout.splitlines()
    assert lines[0] == "b,C,residual"
    assert len(lines) == 2
    b, c, res = (float(v) for v in lines[1].split(","))
    assert b == pytest.approx(B_REF, rel=1e-10)
    assert c == pytest.approx(C_REF, rel=1e-10)
    side = json.loads(proc.stderr)
    schema_validator.validate(side)
    _manifest_ok(side["manifest"], "constants")


def test_csv_cells_are_canonical_12_digit_forms(cli):
    args = ["spectrum", "--a", "inf", "--R", "1", "--rho-max", "1e6"]
    lines = cli(args).stdout.splitlines()
    for line in lines[1:]:
        for cell in line.split(","):
            assert cell == "%.12g" % float(cell) or cell in ("0", "1")


def test_reruns_are_byte_identical(cli):
    args = ["potential", "--a", "3.3", "--rho-min", "0.01",
            "--rho-max", "100", "--points", "60"]
    first = cli(args).stdout
    second = cli(args).stdout
    assert first == second
    assert first.endswith("\n") and "\r" not in first


def test_large_csv_body_is_streamed(tmp_path, capsys):
    # the body is written a block of lines at a time and never held whole.
    # Held whole, this 50,000-point table peaked at 15.5 MB of Python
    # allocations, against 5.7 MB streamed, most of which is the table's own
    # columns (at 1e6 points: 303 MB against 107 MB).  The bytes are the
    # same on stdout and through --output, and are the lines joined whole
    from efimov_lab import LogGrid, effective_potential, make_config, tabulate_branch

    n = 50_000
    argv = ["potential", "--a", "inf", "--rho-min", "1e-3", "--rho-max", "1e3",
            "--points", str(n)]
    path = tmp_path / "pot.csv"
    tracemalloc.start()
    try:
        assert main(argv + ["--output", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150 * n, peak
    body = path.read_bytes()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == body
    table = effective_potential(tabulate_branch(make_config(math.inf),
                                                LogGrid.make(1e-3, 1e3, n))).table()
    cols = ["rho", "x", "nu_squared", "lambda", "v_eff"]
    lines = [",".join(cols)] + [",".join("%.12g" % v for v in row)
                                for row in zip(*(table[c] for c in cols))]
    assert body == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("spaced, joined", [
    (["spectrum", "--a", "-1e4", "--R", "1", "--rho-max", "1e6"],
     ["spectrum", "--a=-1e4", "--R", "1", "--rho-max", "1e6"]),
    (["potential", "--a", "-inf", "--rho-min", "0.1", "--rho-max", "10", "--points", "8"],
     ["potential", "--a=-inf", "--rho-min", "0.1", "--rho-max", "10", "--points", "8"]),
    (["branches", "--x", "-1e4", "--count", "2"],
     ["branches", "--x=-1e4", "--count", "2"]),
])
def test_negative_exponent_and_infinite_values_parse(cli, spaced, joined):
    # plain argparse takes '-1e4' and '-inf' for option names and exits 2
    assert cli(spaced).stdout == cli(joined).stdout


def test_scipy_is_never_imported():
    # every module of the package, the lazily loaded ones included
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, efimov_lab.cli, efimov_lab.hyperangular, efimov_lab.meanfield, "
         "efimov_lab.radial; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


_BASE = {"efimov_lab", "efimov_lab.core"}
_CLI = _BASE | {"efimov_lab.cli"}
_NU2 = _CLI | {"efimov_lab.hyperangular"}
_LEVELS = _NU2 | {"efimov_lab.radial", "efimov_lab._kernel", "efimov_lab._kernel._pure"}


@pytest.mark.parametrize("argv, modules", [
    (["-c", "import efimov_lab"], _BASE),
    (["-m", "efimov_lab", "--version"], _CLI),
    (["-m", "efimov_lab", "constants"], _NU2),
    (["-m", "efimov_lab", "potential", "--a", "inf", "--rho-min", "1", "--rho-max", "2",
      "--points", "2"], _NU2),
    (["-m", "efimov_lab", "branches", "--x", "0", "--count", "1"], _NU2),
    (["-m", "efimov_lab", "meanfield", "--statistics", "fermi", "--t0", "-4", "--stabilizer",
      "dd", "--alpha", "1", "--t3", "1", "--points", "2"], _CLI | {"efimov_lab.meanfield"}),
    (["-m", "efimov_lab", "spectrum", "--a", "inf", "--R", "1", "--rho-max", "1e4"], _LEVELS),
    (["-m", "efimov_lab", "nodes", "--a", "inf", "--R", "1", "--rho-max", "1e8"], _LEVELS),
    (["-m", "efimov_lab", "nodes", "--a", "inf", "--probe-E", "-0.5", "--decades", "1"],
     _LEVELS),
], ids=["import", "version", "constants", "potential", "branches", "meanfield", "spectrum",
        "nodes-level", "nodes-probe"])
def test_each_subcommand_loads_only_its_modules(argv, modules):
    # the package loads core alone and the CLI imports each solver module in
    # the subcommand that runs it, so constants, potential and branches never
    # load radial or meanfield, and meanfield loads neither of the others
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, text=True, check=True)
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert {m for m in imported if m.split(".")[0] == "efimov_lab"} == modules
    assert not [m for m in imported if m.split(".")[0] == "scipy"]


# every name that the package bound at import before its surface turned lazy
_SURFACE = {
    "core": ["ConfigError", "EfimovLabError", "GridError", "InsufficientNodesError", "LogGrid",
             "PoleError", "SolverError", "SystemConfig", "UnregularizedPotentialError",
             "make_config"],
    "hyperangular": ["LHS_AT_ZERO", "AdiabaticBranch", "Cap", "EfimovConstants", "HardWall",
                     "NuSquared", "branch_interval", "constant_branch", "effective_potential",
                     "efimov_constants", "eigen_lhs", "solve_branch0", "solve_branches",
                     "tabulate_branch"],
    "meanfield": ["CORRELATION_CAVEAT", "Classification", "MatterModel", "StabilityReport",
                  "Stabilizer", "StabilizerKind", "Statistics", "classify_stability",
                  "energy_density", "energy_per_particle", "kinetic_density_fermi"],
    "radial": ["BoundStateSpectrum", "NodeReport", "ProbeResult", "RadialSolution",
               "collapse_probe", "find_spectrum", "integrate_radial", "node_analysis"],
}


@pytest.mark.parametrize("home", sorted(_SURFACE))
def test_package_surface_keeps_every_name(home):
    import importlib

    import efimov_lab

    module = importlib.import_module(f"efimov_lab.{home}")
    assert getattr(efimov_lab, home) is module
    listed = dir(efimov_lab)
    assert home in listed
    for name in _SURFACE[home]:
        assert getattr(efimov_lab, name) is getattr(module, name), name
        assert name in listed
    # core's names, the error classes among them, are bound at import
    assert set(_SURFACE["core"]) | {"__version__", "KERNEL_BACKEND"} <= set(vars(efimov_lab))
    assert efimov_lab.radial.DEFAULT_DT is efimov_lab.core.DEFAULT_DT
    assert efimov_lab.radial.DEFAULT_TOL_E is efimov_lab.core.DEFAULT_TOL_E
    with pytest.raises(AttributeError, match=r"^module 'efimov_lab' has no attribute "
                                             r"'find_spectra'$"):
        efimov_lab.find_spectra


def test_lazy_names_load_their_module_on_first_use():
    # a fresh process, where no test has imported the solver modules yet
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, efimov_lab\n"
         "loaded = lambda: sorted(m for m in sys.modules if m.startswith('efimov_lab.'))\n"
         "print(loaded())\n"
         "from efimov_lab import classify_stability\n"
         "print(loaded())\n"
         "efimov_lab.find_spectrum\n"
         "print(loaded())"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == [
        "['efimov_lab.core']",
        "['efimov_lab.core', 'efimov_lab.meanfield']",
        "['efimov_lab._kernel', 'efimov_lab._kernel._pure', 'efimov_lab.core', "
        "'efimov_lab.hyperangular', 'efimov_lab.meanfield', 'efimov_lab.radial']"]


_HELP_DIR = pathlib.Path(__file__).resolve().parent / "golden" / "help"


@pytest.mark.parametrize("command", [None, "constants", "potential", "spectrum", "nodes",
                                     "meanfield", "branches"])
def test_help_text_is_unchanged(command, monkeypatch, capsys):
    # the parser reads DEFAULT_DT and DEFAULT_TOL_E from core without importing
    # radial, and each help text stays as frozen at 80 columns by Python 3.11,
    # whose "options:" heading 3.10 calls "optional arguments:"
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(([command] if command else []) + ["--help"])
    assert exc.value.code == 0
    got = capsys.readouterr().out.replace("\noptional arguments:\n", "\noptions:\n")
    assert got == (_HELP_DIR / f"{command or 'efimov-lab'}.txt").read_text(encoding="utf-8")


def test_potential_table_at_unitarity(cli, schema_validator):
    doc = json.loads(cli(["potential", "--a", "inf", "--rho-min", "1e-3",
                          "--rho-max", "1e3", "--points", "40",
                          "--format", "json"]).stdout)
    schema_validator.validate(doc)
    tbl = doc["table"]
    assert set(tbl) == {"rho", "x", "nu_squared", "lambda", "v_eff"}
    for nu2, lam in zip(tbl["nu_squared"], tbl["lambda"]):
        assert lam == nu2 - 4.0
        assert nu2 == pytest.approx(-B_REF ** 2, rel=1e-10)
    for rho, x, v in zip(tbl["rho"], tbl["x"], tbl["v_eff"]):
        assert x == 0.0
        assert 2.0 * v * rho * rho == pytest.approx(-C_REF, rel=1e-10)


def test_potential_dimer_tail_matches_binding_energy(cli):
    # x = -200 sits at rho = 200 sqrt(0.5) for a = -1; there the doubled
    # potential must reproduce -1/(mu a^2)
    rho_star = 200.0 * math.sqrt(0.5)
    doc = json.loads(cli(["potential", "--a", "-1", "--rho-min",
                          "%.17g" % rho_star, "--rho-max", "150",
                          "--points", "2", "--format", "json"]).stdout)
    x0 = doc["table"]["x"][0]
    v0 = doc["table"]["v_eff"][0]
    assert x0 == pytest.approx(-200.0, rel=1e-12)
    assert 2.0 * v0 == pytest.approx(-2.0, rel=0.01)


def test_spectrum_contract(cli, schema_validator):
    args = ["spectrum", "--a", "inf", "--R", "1", "--rho-max", "1e6"]
    doc = json.loads(cli(args + ["--format", "json"]).stdout)
    schema_validator.validate(doc)
    levels = doc["levels"]
    assert len(levels) >= 3
    assert doc["total_nodes_at_edge"] >= len(levels)
    assert doc["E_threshold"] == 0.0
    # |E_h - E_2h| / 15 estimates the error of the h-grid level: at h = 1/32
    # 1.8e-8 to 5.8e-8 of E (1.1e-9 to 3.6e-9 at h = 1/64, sixteen times less)
    assert len(doc["E_error"]) == len(levels)
    for k, (lv, err) in enumerate(zip(levels, doc["E_error"])):
        assert lv["node_count"] == k
        assert lv["E_n"] < 0.0
        assert lv["kappa_n"] == pytest.approx(math.sqrt(-2.0 * lv["E_n"]),
                                              rel=1e-12)
        assert 1e-9 < err / -lv["E_n"] < 1e-7
    for k in range(len(levels) - 1):
        if not (levels[k]["flag"] or levels[k + 1]["flag"]):
            assert levels[k]["ratio_to_next"] == pytest.approx(
                RATIO_E_REF, rel=0.02)
    assert levels[-1]["flag"] is True

    proc = cli(args)
    lines = proc.stdout.splitlines()
    assert lines[0] == "E_n,kappa_n,node_count,ratio_to_next,flag"
    assert len(lines) == len(levels) + 1
    assert lines[-1].endswith(",1")
    side = json.loads(proc.stderr)
    schema_validator.validate(side)
    assert side["E_threshold"] == 0.0
    assert side["E_error"] == doc["E_error"]


def test_dimer_side_spectrum_reports_its_threshold(schema_validator, tmp_path):
    out = tmp_path / "dimer.csv"
    assert main(["spectrum", "--a=-1e4", "--R", "1", "--rho-max", "1e8",
                 "--output", str(out)]) == 0
    side = json.loads((tmp_path / "dimer.csv.manifest.json").read_text())
    schema_validator.validate(side)
    assert side["E_threshold"] == pytest.approx(-1e-8, rel=1e-15)
    energies = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    assert len(energies) == 3
    assert all(e < side["E_threshold"] for e in energies)


def test_dimer_side_nodes_counts_the_trimers(capsys):
    # at a = -1e4, R = 1 three trimers lie below the threshold; the
    # shallowest holds 2 nodes, too few for node geometry
    assert main(["nodes", "--a=-1e4", "--R", "1", "--rho-max", "1e8"]) == 2
    err = capsys.readouterr().err
    assert "error: level 2: 2 interior node(s) in the window" in err
    assert "3 bound level(s) lie below the threshold E_thr = -1e-08" in err


def test_no_trimer_below_the_threshold(capsys, schema_validator, tmp_path):
    # at a = -1, R = 1 the threshold E_thr = -1 lies above the search floor
    # -5, and no level lies below it: a larger box would not change that
    argv = ["--a=-1", "--R", "1", "--rho-max", "1e8"]
    assert main(["nodes"] + argv) == 2
    err = capsys.readouterr().err
    assert "no trimer lies below the atom-dimer threshold E_thr = -1 at a = -1, R = 1" in err
    assert "--rho-max" not in err

    out = tmp_path / "spectrum.csv"
    assert main(["spectrum"] + argv + ["--output", str(out)]) == 0
    assert out.read_text() == "E_n,kappa_n,node_count,ratio_to_next,flag\n"
    side = json.loads((tmp_path / "spectrum.csv.manifest.json").read_text())
    schema_validator.validate(side)
    assert side["E_threshold"] == -1.0
    assert main(["spectrum"] + argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    schema_validator.validate(doc)
    assert doc["levels"] == [] and doc["E_threshold"] == -1.0


def test_threshold_below_the_search_floor_names_it(capsys):
    # at a = -0.3 the threshold -1/a^2 = -11.1 lies below the floor -5 / R^2
    assert main(["spectrum", "--a=-0.3", "--R", "1", "--rho-max", "1e8"]) == 2
    err = capsys.readouterr().err
    assert ("error: the atom-dimer threshold E_thr = -11.1111 and every trimer below it "
            "lie below the search floor E = -5 for R = 1") in err


def test_spectrum_of_bare_potential_is_forbidden(cli):
    proc = cli(["spectrum", "--a", "inf", "--R", "1", "--rho-max", "1e6",
                "--regularization", "none"], expect=3)
    assert proc.stderr.startswith("efimov-lab: forbidden:")
    assert "no ground state" in proc.stderr


def test_nodes_level_mode_geometric_spacing(cli, schema_validator):
    doc = json.loads(cli(["nodes", "--a", "inf", "--R", "1",
                          "--rho-max", "1e8", "--format", "json"]).stdout)
    schema_validator.validate(doc)
    s = doc["summary"]
    assert s["mode"] == "level"
    assert s["level"] >= 3
    assert len(doc["nodes"]) == s["level"]
    assert s["interior_count"] >= 3
    assert s["fitted_ratio"] == pytest.approx(RATIO_NODE_REF, rel=0.01)
    assert s["E"] < 0.0


def test_nodes_ground_state_has_too_few_nodes(cli):
    proc = cli(["nodes", "--a", "inf", "--R", "1", "--rho-max", "1e4",
                "--level", "0"], expect=2)
    assert proc.stderr.startswith("efimov-lab: error:")


def test_nodes_probe_mode(cli, schema_validator):
    doc = json.loads(cli(["nodes", "--a", "inf", "--probe-E", "-0.5",
                          "--decades", "3", "--per-decade", "4",
                          "--format", "json"]).stdout)
    schema_validator.validate(doc)
    s = doc["summary"]
    assert s["mode"] == "probe"
    assert s["reference_slope"] == pytest.approx(SLOPE_REF, rel=1e-9)
    assert s["slope_per_decade"] == pytest.approx(SLOPE_REF, rel=0.10)
    assert s["reference_ratio"] == pytest.approx(RATIO_NODE_REF, rel=1e-12)
    assert len(s["zeros"]) == 2
    assert s["zero_ratio"] == pytest.approx(RATIO_NODE_REF, rel=1e-3)
    counts = [row["node_count"] for row in doc["sweep"]]
    assert len(counts) == 3 * 4 + 1
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] > counts[0]


def test_meanfield_contract(cli, schema_validator):
    args = ["meanfield", "--statistics", "bose", "--t0", "-1",
            "--stabilizer", "threebody", "--t3", "1"]
    doc = json.loads(cli(args + ["--format", "json"]).stdout)
    schema_validator.validate(doc)
    rep = doc["report"]
    assert rep["classification"] == "Saturating"
    assert rep["n_sat"] == pytest.approx(1.5, rel=1e-10)
    assert rep["e_min"] == pytest.approx(-0.375, rel=1e-10)
    assert rep["model"]["c3"] == pytest.approx(1.0 / 6.0)
    assert rep["model"]["c3_defaulted"] is True
    assert len(rep["caveat"]) > 50
    tbl = doc["table"]
    assert len(tbl["n"]) == 100
    for n, e, per in zip(tbl["n"], tbl["epsilon"],
                         tbl["epsilon_per_particle"]):
        assert per == pytest.approx(e / n, rel=1e-12)

    proc = cli(args)
    lines = proc.stdout.splitlines()
    assert lines[0] == "n,epsilon,epsilon_per_particle"
    assert len(lines) == 101
    side = json.loads(proc.stderr)
    schema_validator.validate(side)
    assert side["report"]["classification"] == "Saturating"


def test_meanfield_table_stops_short_of_an_overflow(schema_validator, tmp_path, capsys):
    # n^(alpha + 2) overflows just above n = 1: the default table keeps its 80
    # rows below it, and the JSON document and the sidecar count the 20 left out
    argv = ["meanfield", "--statistics", "fermi", "--t0=0", "--stabilizer", "dd", "--t3=1",
            "--alpha=1e300"]
    out = tmp_path / "meanfield.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--format", "json"]) == 0
        assert main(argv + ["--output", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    schema_validator.validate(doc)
    assert doc["report"]["classification"] == "TrivialMinimumAtZero"
    assert doc["rows_dropped"] == 20
    assert len(doc["table"]["n"]) == 80 and doc["table"]["n"][-1] < 1.0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 80
    side = json.loads((tmp_path / "meanfield.csv.manifest.json").read_text(encoding="utf-8"))
    schema_validator.validate(side)
    assert side["rows_dropped"] == 20


def test_meanfield_argument_errors(cli):
    proc = cli(["meanfield", "--statistics", "fermi", "--t0", "-4",
                "--stabilizer", "dd", "--t3", "1"], expect=2)
    assert "--alpha" in proc.stderr
    proc = cli(["meanfield", "--statistics", "bose", "--t0", "-1",
                "--t3", "1"], expect=2)
    assert "--stabilizer" in proc.stderr
    proc = cli(["meanfield", "--statistics", "bose", "--t0", "-1",
                "--stabilizer", "threebody", "--t3", "-1"], expect=2)
    assert proc.stderr.startswith("efimov-lab: error:")


@pytest.mark.parametrize("argv, named", [
    (["constants", "--tol", "2"], "tol"),
    (["constants", "--tol", "nan"], "tol"),
    (["potential", "--a", "1", "--rho-min", "0.1", "--rho-max", "10",
      "--branch", "-1"], "branch index"),
    (["potential", "--a", "inf", "--rho-min", "0.1", "--rho-max", "10",
      "--points", str(MAX_GRID_POINTS + 1)],
     f"a log grid holds at most {MAX_GRID_POINTS} points"),
    (["meanfield", "--statistics", "bose", "--t0", "1", "--points", str(MAX_GRID_POINTS + 1)],
     f"--points must be in [1, {MAX_GRID_POINTS}]"),
    # x = rho / (sqrt(mu) a) overflows past rho of about 1.27e308 at a = -1
    (["spectrum", "--a=-1", "--R", "1e308", "--rho-max", "1.5e308"],
     "x = rho / (sqrt(mu) a) overflows at rho = 1.5e+308 for a = -1.0"),
    (["potential", "--a=-1", "--rho-min", "1e308", "--rho-max", "1.7e308", "--points", "3"],
     "x = rho / (sqrt(mu) a) overflows at rho = 1.30384"),
    (["nodes", "--a", "inf", "--R", "1", "--rho-max", "1e8", "--dt", "0"],
     "dt must be in (0, 0.04804), got 0"),
    (["meanfield", "--statistics", "bose", "--t0", "1", "--points", "-1"], "--points"),
    (["nodes", "--a=-1", "--R", "1e308", "--rho-max", "1.5e308"],
     "x = rho / (sqrt(mu) a) overflows at rho = 1.5e+308 for a = -1.0"),
    # 1 / a overflows
    (["potential", "--a=-1e-310", "--rho-min", "1", "--rho-max", "2", "--points", "2"],
     "x = rho / (sqrt(mu) a) overflows at rho = 1.0 for a = -1e-310"),
    (["nodes", "--a", "inf", "--R", "1", "--rho-max", "1e8", "--kappa-rho-max", "nan"],
     "kappa_rho_max"),
    (["nodes", "--a", "inf", "--R", "1", "--rho-max", "1e8", "--kappa-rho-max", "-1"],
     "kappa_rho_max"),
    (["nodes", "--a", "inf", "--R", "1", "--rho-max", "1e8", "--wall-factor", "nan"],
     "wall_factor"),
    (["nodes", "--a", "inf", "--probe-E", "-0.5", "--decades", "400"], "--decades"),
    (["nodes", "--a", "inf", "--probe-E", "-0.5", "--decades", "-400"], "--decades"),
    (["nodes", "--a", "inf", "--probe-E", "-0.5", "--base-cutoff", "nan"], "--base-cutoff"),
    (["spectrum", "--a", "inf", "--R", "1", "--rho-max", "1e8", "--dt", "1e-12"], "dt"),
    (["nodes", "--a", "inf", "--R", "1", "--rho-max", "1e8", "--dt", "1e-12"], "dt"),
    (["nodes", "--a", "inf", "--probe-E", "-0.5", "--per-decade", "0"], "decades"),
    (["nodes", "--a", "inf", "--R", "1", "--rho-max", "1e4", "--level", "-1"], "--level"),
    (["nodes", "--a", "inf", "--probe-E", "-0.5", "--decades", "300", "--dt", "1e-5"], "dt"),
    (["nodes", "--a", "inf", "--probe-E", "-0.5", "--per-decade", "1000000000"],
     "decades"),
    (["nodes", "--a", "inf", "--probe-E", "-0.5", "--dt", "0"], "dt"),
    (["nodes", "--a", "inf", "--probe-E", "-inf"], "--probe-E"),
    (["nodes", "--a", "inf", "--probe-E", "-1e300"], "outer end"),
    (["nodes", "--a", "inf", "--probe-E", "0.5"], "--probe-E"),
    (["nodes", "--probe-E", "-0.5"], "--probe-E"),
    (["spectrum", "--a", "inf", "--R", "10", "--rho-max", "5"], "--rho-max"),
    (["nodes", "--a", "inf", "--R", "1", "--rho-max", "1e4", "--level", "9"], "--level"),
    (["potential", "--a", "inf", "--rho-min", "0.1", "--rho-max", "10",
      "--regularization", "cap"], "--regularization"),
    (["nodes", "--a=-1e4", "--probe-E", "-5e-9"], "probe energy"),
    (["branches", "--x", "-1e160", "--count", "1"], "x = -1e+160"),
    (["branches", "--x=-1e13", "--count", "2"], "branch 1 root at x = -10000000000000"),
    (["potential", "--a=-1e-13", "--rho-min", "1", "--rho-max", "10", "--points", "3",
      "--branch", "1"], "branch 1 root failed at rho = 1"),
    (["branches", "--x", "1e308", "--count", "1"], "branch 0 root at x = 1e+308"),
    (["branches", "--x", "0", "--count", str(MAX_GRID_POINTS + 1)],
     f"count must be in [1, {MAX_GRID_POINTS}]"),
    # the 2h grid's Numerov march turns unstable near the tail cutoff, where
    # it once made spurious nodes that read as levels below the search floor
    (["spectrum", "--a", "inf", "--R", "1", "--rho-max", "1e8", "--dt", "0.25"],
     "dt must be in (0, 0.04804), got 0.25"),
    (["spectrum", "--a", "inf", "--R", "1", "--rho-max", "1e8", "--dt", "0.5"],
     "dt must be in (0, 0.04804), got 0.5"),
    # the search floor -5 / R^2 overflows below R of about 1e-154
    (["spectrum", "--a", "inf", "--R", "1e-300", "--rho-max", "1e8"], "R = 1e-300"),
    (["spectrum", "--a", "inf", "--R", "1e-160", "--rho-max", "1"], "R = 1e-160"),
    # rho^2 overflows past about 1.34e154, at rho_max or at the probe's outer end
    (["spectrum", "--a", "inf", "--R", "1", "--rho-max", "1e300"], "rho_max = 1e+300"),
    (["spectrum", "--a", "inf", "--R", "1", "--rho-max", "2e154"], "rho_max = 2e+154"),
    (["nodes", "--a", "inf", "--probe-E", "-1e-310"], "probe energy -1e-310"),
    # the threshold is refused before any nu^2 is solved out at rho_max,
    # where x = -1.41e158 would overflow
    (["spectrum", "--a=-1e-150", "--R", "1", "--rho-max", "1e8"],
     "the atom-dimer threshold E_thr = -1e+300 and every trimer below it lie below"),
    # the t0 and t3 terms balance where n overflows or underflows: the balance is
    # taken in logs, and a scan window outside the float range is refused
    (["meanfield", "--statistics", "bose", "--t0=-4", "--stabilizer", "dd", "--t3=1e-300",
      "--alpha", "0.5"], "t0 = -4.0 and t3 = 1e-300, alpha = 0.5 balance at n = 10^601.2"),
    (["meanfield", "--statistics", "bose", "--t0=-4", "--stabilizer", "dd", "--t3=1e300",
      "--alpha", "0.5"], "t0 = -4.0 and t3 = 1e+300, alpha = 0.5 balance at n = 10^-598.8"),
    # n^(alpha + 2) overflows just above n = 1, below every row of the table
    (["meanfield", "--statistics", "fermi", "--t0=0", "--stabilizer", "dd", "--t3=1",
      "--alpha=1e300", "--n-min", "2"],
     "t3 = 1.0, alpha = 1e+300: the energy term in n^1e+300 overflows at n = 2"),
    # 0.63 / rho^2 is not a double at rho = 5e-324
    (["potential", "--a", "inf", "--rho-min", "5e-324", "--rho-max", "1e-300", "--points", "3"],
     "v_eff = (nu^2 - 1/4) / (2 rho^2) overflows at rho = 4.94066e-324"),
    # e = -3.75e-601 at the minimum n = 1.5e-300 underflows
    (["meanfield", "--statistics", "bose", "--t0=-1e-300", "--stabilizer", "threebody",
      "--t3=1"], "t0 = -1e-300 and t3 = 1.0: e(n) has its minimum near n = 1.5e-300"),
])
def test_bad_input_exits_2_naming_it(argv, named, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert f"efimov-lab: error: {named}" in err


def _log_uniform(lo, hi):
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


_DIMER_RUNS = st.one_of(
    st.builds(lambda x, count: ["branches", f"--x={-x!r}", "--count", str(count)],
              _log_uniform(5e-324, 1.3e154), st.integers(1, 3)),
    st.builds(lambda a, rho, span, points: ["potential", f"--a={-a!r}", "--rho-min",
                                            repr(rho), "--rho-max", repr(rho * span),
                                            "--points", str(points)],
              _log_uniform(1e-300, 1e300), _log_uniform(1e-300, 1e280), _log_uniform(1.5, 1e20),
              st.integers(2, 5)))


@given(_DIMER_RUNS)
# v_eff ~ -1 / (2 mu a^2) overflows at every rho: refused, once after a numpy warning
@example(["potential", "--a=-5.3704431246552086e-157", "--rho-min", "2.659536005159497e-118",
          "--rho-max", "5.152568547759542e-117", "--points", "4"])
@settings(max_examples=60, deadline=None)
def test_dimer_side_runs_compute_or_exit_2_naming_an_argument(argv):
    # branch 0 at x < 0 on the command line (with branches 1 and 2 in the same
    # batch), every RuntimeWarning an error but the designed near-pole one,
    # which branch 1 raises beyond |x| of about 1e8
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", r"root nu\^2 = .* lies within 1e-08 of a pole",
                                RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2), argv
    if code == 2:
        assert re.match(r"efimov-lab: error: .*(x = |rho|a = )", err.getvalue()), (argv, err)


# couplings from zero, the subnormals and 1e-300 to 1e300 and the top decade of
# the doubles, where a coefficient c (p - 1) of e'(n) would overflow
_EXTREME = (st.sampled_from([0.0, 5e-324, 4e-323, 1e-300, 1.0, 1e154, 1e300])
            | st.floats(8e307, 1.7976931348623157e308)).flatmap(lambda v: st.sampled_from([v, -v]))

_MEANFIELD_RUNS = st.builds(
    lambda statistics, t0, stabilizer, t3, alpha: (
        ["meanfield", "--statistics", statistics, f"--t0={t0!r}", "--stabilizer", stabilizer]
        + ([] if t3 is None else [f"--t3={t3!r}"])
        + ([] if alpha is None else [f"--alpha={alpha!r}"])),
    st.sampled_from(["bose", "fermi"]), _EXTREME, st.sampled_from(["none", "threebody", "dd"]),
    st.none() | _EXTREME, st.none() | _EXTREME | st.floats(90.0, 110.0))


@given(_MEANFIELD_RUNS)
# e(n)'s n^2 term falls below the normal doubles near the minimum: the scan
# once put the minimum on its window edge and exited 2 naming no argument
@example(["meanfield", "--statistics", "bose", "--t0=-4.0", "--stabilizer", "threebody",
          "--t3=1e+300"])
@example(["meanfield", "--statistics", "bose", "--t0=-4.0", "--stabilizer", "dd",
          "--t3=1e+300", "--alpha=1.0"])
# e'(n)'s coefficient c (p - 1) once overflowed, and once kept a few digits of a
# subnormal c, and both exited 2 naming nothing
@example(["meanfield", "--statistics", "bose", "--t0=-12.32818188584236", "--stabilizer", "dd",
          "--t3=8.534574401093275e+307", "--alpha=94.33909601629502"])
@example(["meanfield", "--statistics", "bose", "--t0=-7.55028835958462e-249", "--stabilizer",
          "dd", "--t3=4e-323", "--alpha=0.5108658774053998"])
# a power near the largest double overflowed the logs of e(n)'s terms, with a warning
@example(["meanfield", "--statistics", "fermi", "--t0=-1.0", "--stabilizer", "dd",
          "--t3=1e-300", "--alpha=8e+307"])
@settings(max_examples=60, deadline=None)
def test_meanfield_runs_compute_or_exit_2_naming_an_argument(argv):
    # both statistics and every stabilizer at couplings from zero and the least
    # subnormal to the largest double, with every RuntimeWarning an error
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2), argv
    if code == 2:
        assert re.match(r"efimov-lab: error: .*(t0|t3|alpha)", err.getvalue()), (argv, err)


# the 2h grid's Numerov coefficient stays positive up to the tail cutoff only
# for dt below sqrt(3 / (36^2 + 4)), about 0.048
_DT_EDGE = math.sqrt(3.0 / (36.0 ** 2 + 4.0))
_DT = st.just(None) | _log_uniform(1e-16, 0.5).map(lambda u: _DT_EDGE * (1.0 - u))


def _near(value, lo, hi):
    """value moved by a relative amount log-uniform in [lo, hi], up or down."""
    return st.tuples(_log_uniform(lo, hi), st.sampled_from([-1.0, 1.0])).map(
        lambda t: value * (1.0 + t[1] * t[0]))


@st.composite
def _level_runs(draw):
    # R near its floor, below which the search floor's kappa^2 = 10 / R^2
    # overflows at R = 2.36e-154, or of order 1; rho_max up to 1e154, where rho^2 overflows
    # just above 1.34e154; a at unitarity, on the dimer side at the threshold
    # floor, where -1/a^2 meets -5 / R^2 at |a| = R / sqrt(5), or anywhere
    R = draw(_log_uniform(2.3e-154, 1e-150) | _log_uniform(1e-2, 1e2))
    rho_max = draw(st.just(1e154) | _log_uniform(30.0 * R, 1e154))
    a = draw(st.sampled_from([math.inf, -math.inf])
             | _near(-R / math.sqrt(5.0), 1e-16, 0.5)
             | _log_uniform(1e-1, 1e9).flatmap(lambda k: st.sampled_from([-k * R, k * R])))
    dt = draw(_DT)
    tol = draw(st.just(None) | _log_uniform(1e-16, 1e-13) | _log_uniform(1e-3, 0.09))
    argv = [draw(st.sampled_from(["spectrum", "nodes"])), f"--a={a!r}", f"--R={R!r}",
            f"--rho-max={rho_max!r}",
            "--regularization", draw(st.sampled_from(["hardwall", "cap"]))]
    argv += [] if dt is None else [f"--dt={dt!r}"]
    argv += [] if tol is None else [f"--tol={tol!r}"]
    if argv[0] == "nodes":
        level = draw(st.none() | st.integers(0, 7))
        argv += [] if level is None else ["--level", str(level)]
    return argv


@st.composite
def _probe_runs(draw):
    # E from -1e300 to -1e-300, so that the outer end 36 / sqrt(2 |E|) reaches
    # 2.5e151; the base cutoff up to 5 decades inside it, and the sweep down to
    # the float floor; a at unitarity or on the dimer side at E's threshold,
    # where -1/a^2 meets E
    E = -draw(_log_uniform(1e-300, 1e300))
    rho_out = 36.0 / math.sqrt(-2.0 * E)
    base = rho_out * 10.0 ** -draw(st.floats(1e-6, 5.0))
    top = max(1, min(int(math.log10(base) - math.log10(sys.float_info.min)), 620))
    decades = draw(st.integers(1, top) | st.just(top))
    a = draw(st.sampled_from([math.inf, -math.inf]) | _near(-1.0 / math.sqrt(-E), 1e-16, 0.5))
    argv = ["nodes", f"--a={a!r}", f"--probe-E={E!r}", f"--base-cutoff={base!r}",
            "--decades", str(decades), "--per-decade", str(draw(st.integers(1, 16)))]
    dt = draw(_DT)
    return argv + ([] if dt is None else [f"--dt={dt!r}"])


@given(_level_runs() | _probe_runs())
# 36 / (decay R) at the window's shallow end overflowed, and its log raised
# OverflowError on the way to the grid's length
@example(["spectrum", "--a=inf", "--R=4.990845289747489e-152", "--rho-max=1e+154",
          "--regularization", "hardwall"])
# the search floor -5 / R^2 was finite, but the march's -2 E_floor was not
@example(["spectrum", "--a=inf", "--R=2.3368543004410535e-154", "--rho-max=1e+154",
          "--regularization", "hardwall"])
@settings(max_examples=60, deadline=None)
def test_level_and_probe_runs_compute_or_exit_with_a_reason(argv):
    # spectrum and both nodes modes at valid but extreme R, rho_max, a, dt,
    # tol and probe energies, with every RuntimeWarning an error and a bound
    # on the wall time of each run
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert time.perf_counter() - start < 20.0, argv
    assert code in (0, 2, 3), argv
    if code:
        prefix = "efimov-lab: error: " if code == 2 else "efimov-lab: forbidden: "
        assert err.getvalue().startswith(prefix), (argv, err.getvalue())


@pytest.mark.parametrize("argv, code, fragment", [
    (["nodes"], 2, "error: level mode requires --a, --R and --rho-max"),
    (["nodes", "--a", "inf", "--R", "1"], 2,
     "error: level mode requires --a, --R and --rho-max"),
    (["nodes", "--a", "inf", "--R", "1", "--rho-max", "1e4",
      "--regularization", "none"], 3, "forbidden: node analysis of a bound level"),
    (["meanfield", "--statistics", "bose", "--t0", "-1", "--n-min", "5",
      "--n-max", "1"], 2, "error: need 0 < --n-min < --n-max"),
])
def test_refused_requests_exit_with_their_reason(argv, code, fragment, capsys):
    assert main(argv) == code
    assert f"efimov-lab: {fragment}" in capsys.readouterr().err


def test_branch0_brackets_every_finite_x(capsys):
    # the lower end of the first bracket is -(|x| + 3)^2, so no doubling
    # budget caps x; nu^2 -> -x^2 on the dimer side
    assert main(["branches", "--x", "-1e30", "--count", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,-1e+60,-1e+60,0,0"
    # x = rho / (sqrt(mu) a) reaches -1.4e11 at rho = 1e8: the branch is
    # solved and the search floor, not the bracket, refuses the channel
    assert main(["spectrum", "--a=-1e-3", "--R", "1", "--rho-max", "1e8"]) == 2
    assert "lie below the search floor" in capsys.readouterr().err


def test_probe_sweep_of_305_decades_computes(capsys):
    # one grid from 1e-307 out to rho_out = 36 holds about 364k points
    assert main(["nodes", "--a", "inf", "--probe-E", "-0.5", "--decades", "305",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    counts = [row["node_count"] for row in doc["sweep"]]
    assert len(counts) == 305 * 8 + 1
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert abs(doc["summary"]["slope_per_decade"] - SLOPE_REF) < 1.0
    assert abs(counts[-1] - counts[0] - 305 * SLOPE_REF) < 1.0


def test_probe_sidecar_reports_the_staircase(schema_validator, tmp_path):
    out = tmp_path / "probe.csv"
    assert main(["nodes", "--a", "inf", "--probe-E", "-0.5", "--decades", "4",
                 "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("k,cutoff,node_count\n")
    side = json.loads((tmp_path / "probe.csv.manifest.json").read_text())
    schema_validator.validate(side)
    s = side["summary"]
    # the count steps at each zero: 1 -> 4 over the README sweep
    assert len(s["zeros"]) == 3
    assert all(1e-6 <= z <= 1e-2 for z in s["zeros"])
    assert s["zero_ratio"] == pytest.approx(RATIO_NODE_REF, rel=1e-3)
    assert s["reference_ratio_formula"] == "exp(pi / b)"


@pytest.mark.parametrize("argv", [
    ["potential", "--a", "inf", "--rho-min", "1", "--rho-max", "10", "--tol", "1e-10"],
    ["branches", "--x", "0", "--tol", "1e-12"],
    ["spectrum", "--a", "inf", "--R", "1", "--rho-max", "1e4", "--branch", "1"],
    ["nodes", "--a", "inf", "--R", "1", "--rho-max", "1e4", "--branch", "1"],
    ["nodes", "--analytic"],
    ["nodes", "--a", "inf", "--R", "1", "--rho-max", "1e8", "--periods", "6"],
])
def test_removed_flags_are_unrecognized(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_branches_frozen_roots(cli, schema_validator):
    doc = json.loads(cli(["branches", "--x", "0", "--count", "4",
                          "--format", "json"]).stdout)
    schema_validator.validate(doc)
    assert doc["x"] == 0.0
    got = [br["nu_squared"] for br in doc["branches"]]
    for value, want in zip(got, BRANCH_ROOTS_AT_X0):
        assert value == pytest.approx(want, rel=1e-9)
    for br in doc["branches"]:
        assert br["lambda"] == br["nu_squared"] - 4.0
        assert br["near_pole"] is False
        assert br["residual"] <= 1e-10
    lines = cli(["branches", "--x", "0", "--count", "4"]).stdout.splitlines()
    assert lines[0] == "branch,nu_squared,lambda,residual,near_pole"
    assert len(lines) == 5


def test_output_file_and_manifest_sidecar(cli, schema_validator, tmp_path):
    out = tmp_path / "pot.csv"
    args = ["potential", "--a", "inf", "--rho-min", "0.1", "--rho-max", "10",
            "--points", "12", "--output", str(out)]
    cli(args)
    body = out.read_text(encoding="utf-8")
    stdout_body = cli(args[:-2]).stdout
    assert body == stdout_body
    side = json.loads((tmp_path / "pot.csv.manifest.json").read_text())
    schema_validator.validate(side)
    _manifest_ok(side["manifest"], "potential")
    assert side["manifest"]["parameters"]["points"] == 12

    jout = tmp_path / "pot.json"
    cli(args[:-2] + ["--format", "json", "--output", str(jout)])
    doc = json.loads(jout.read_text(encoding="utf-8"))
    schema_validator.validate(doc)
    _manifest_ok(doc["manifest"], "potential")


def _cell(value):
    """The CSV cell a JSON record value stands for."""
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return "%.12g" % value


@pytest.mark.parametrize("argv, key", [
    (["constants"], None),
    (["spectrum", "--a", "inf", "--R", "1", "--rho-max", "1e6"], "levels"),
    (["nodes", "--a", "inf", "--R", "1", "--rho-max", "1e8"], "nodes"),
    (["nodes", "--a", "inf", "--probe-E", "-0.5", "--decades", "2"], "sweep"),
    (["branches", "--x", "-3", "--count", "3"], "branches"),
])
def test_json_records_are_the_csv_rows(argv, key, capsys):
    assert main(argv) == 0
    header, *rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    if key is None:
        records = [{k: v for k, v in doc.items() if k != "manifest"}]
    else:
        records = doc[key]
    assert rows and len(records) == len(rows)
    for record, row in zip(records, rows):
        assert list(record) == header
        assert [_cell(v) for v in record.values()] == row


def test_tolerance_below_double_spacing_ends_at_adjacent_doubles():
    # near ln kappa ~ 15 the doubles are 1.8e-15 apart, wider than the
    # 4 eps bisection floor, so the midpoint used to round onto an end forever
    proc = subprocess.run(
        [sys.executable, "-m", "efimov_lab", "spectrum", "--a", "inf", "--R", "1e-6",
         "--rho-max", "1e2", "--tol", "1e-15"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "E_n,kappa_n,node_count,ratio_to_next,flag"
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert counts == list(range(5))
