"""Acceptance gate: twelve numbered criteria, one verdict line each.

Run `pytest tests/test_acceptance.py -v` to see the per-criterion
pass/fail lines.  Expected values are checked against closed forms,
independent raw-formula oracles, or brute-force scans; nothing here
reuses the library's own solution path as its reference.
"""

import cmath
import functools
import math
import time

import numpy as np
import pytest

from efimov_lab import (
    Cap,
    Classification,
    HardWall,
    LogGrid,
    MatterModel,
    Stabilizer,
    Statistics,
    classify_stability,
    collapse_probe,
    effective_potential,
    efimov_constants,
    find_spectrum,
    make_config,
    node_analysis,
    solve_branch0,
    tabulate_branch,
)
from conftest import run_cli

B = efimov_constants().b
RATIO_E = math.exp(2.0 * math.pi / B)
RATIO_NODE = math.exp(math.pi / B)
SLOPE_REF = B * math.log(10.0) / math.pi

HW_GROUND_EXACT = 0.004273955628    # first zero of K_ib at z = 0.0653754971532035
CAP_GROUND_EXACT = 0.08915686561    # matched cap solution, kappa0 R = 0.298591469425


@functools.lru_cache(maxsize=None)
def _unitarity_spectrum(scheme_name):
    cfg = make_config(float("inf"))
    grid = LogGrid.make(1.0, 1e8, 200)
    branch = tabulate_branch(cfg, grid)
    scheme = HardWall(1.0) if scheme_name == "hardwall" else Cap(1.0)
    pot = effective_potential(branch, scheme)
    return find_spectrum(pot, 1e8)


def _interior_ratios(spec):
    e = np.array([s.E for s in spec.interior_states()])
    return e[:-1] / e[1:]


def _lhs_raw(s):
    nu = cmath.sqrt(complex(s, 0.0))
    half = nu * (math.pi / 2.0)
    return ((-nu * cmath.cos(half)
             + (8.0 / math.sqrt(3.0)) * cmath.sin(nu * math.pi / 6.0))
            / cmath.sin(half)).real


def _branch0_oracle(x):
    """Scan plus bisection on the raw complex-arithmetic formula."""
    lo = -max(36.0, 1.5 * x * x + 10.0)
    hi = 4.0 - 1e-9
    grid = np.linspace(lo, hi, 8001)
    vals = [_lhs_raw(s) - x for s in grid]
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            return float(grid[i])
        if vals[i] * vals[i + 1] < 0.0:
            a, b, fa = float(grid[i]), float(grid[i + 1]), vals[i]
            break
    else:
        raise AssertionError(f"oracle found no bracket for x = {x}")
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = _lhs_raw(m) - x
        if fa * fm <= 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def test_criterion_01_resonant_strength_b():
    t0 = time.perf_counter()
    c = efimov_constants()
    elapsed = time.perf_counter() - t0
    assert abs(c.b - 1.006) <= 1e-3
    assert elapsed < 1.0, f"constants took {elapsed:.3f} s"


def test_criterion_02_induced_coupling_C():
    c = efimov_constants()
    assert abs(c.C - 1.262) <= 5e-3
    assert abs(c.C - (c.b * c.b + 0.25)) <= 1e-12


def test_criterion_03_small_rho_plateau():
    cfg = make_config(-1.0)
    x = cfg.x_of_rho(1e-4 * abs(cfg.scattering_length_a))
    s = solve_branch0(x).value
    assert abs(s - (-B * B)) < 1e-3


def test_criterion_04_dimer_tail():
    a, mu = -1.0, 0.5
    rho = 200.0 * math.sqrt(mu) * abs(a)
    s = solve_branch0(-200.0).value
    v_eff = (s - 0.25) / (2.0 * rho * rho)
    want = -1.0 / (mu * a * a)
    assert 2.0 * v_eff == pytest.approx(want, rel=0.01)


def test_criterion_05_geometric_tower():
    t0 = time.perf_counter()
    spec = _unitarity_spectrum("hardwall")
    elapsed = time.perf_counter() - t0
    interior = spec.interior_states()
    assert len(interior) >= 4
    ratios = _interior_ratios(spec)
    assert np.all(np.abs(ratios / RATIO_E - 1.0) <= 0.02), ratios
    assert elapsed < 30.0, f"spectrum took {elapsed:.2f} s"


def test_criterion_06_ground_state_window():
    hw = abs(_unitarity_spectrum("hardwall").states[0].E) * 2.0
    cap = abs(_unitarity_spectrum("cap").states[0].E) * 2.0
    assert 0.1 <= hw <= 10.0, (
        f"|E0| in units of 1/(2 R^2): hardwall {hw:.10g} "
        f"(exact {HW_GROUND_EXACT} from the first zero of K_ib at "
        f"z = 0.0653754971532035), cap {cap:.10g} "
        f"(exact {CAP_GROUND_EXACT}, kappa0 R = 0.298591469425). "
        f"With b = {B:.6f} the most bound level of either scheme sits two "
        f"orders of magnitude below the [0.1, 10] window; the window is "
        f"not reachable for this channel.")


def test_criterion_07_level_count_staircase():
    ratios = (1e2, 1e3, 1e4, 1e5)
    counts = []
    for r in ratios:
        cfg = make_config(-r)
        rho_max = 10.0 * r
        grid = LogGrid.make(1.0, rho_max, 400)
        pot = effective_potential(tabulate_branch(cfg, grid), HardWall(1.0))
        counts.append(find_spectrum(pot, rho_max, max_levels=1).total_nodes_at_edge)
    lg = np.log10(ratios)
    slope, intercept = np.polyfit(lg, counts, 1)
    pred = slope * lg + intercept
    ss_res = float(np.sum((counts - pred) ** 2))
    ss_tot = float(np.sum((counts - np.mean(counts)) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    assert slope > 0.0, counts
    assert r2 > 0.99, (counts, r2)


def test_criterion_08_node_geometry_and_probe():
    sol = _unitarity_spectrum("hardwall").interior_states()[-1]
    rep = node_analysis(sol)
    assert np.all(np.abs(rep.interior_ratios / RATIO_NODE - 1.0) <= 0.01)

    cfg = make_config(float("inf"))
    grid = LogGrid.make(1e-9, 400.0, 200)
    pot = effective_potential(tabulate_branch(cfg, grid), None)
    p1 = collapse_probe(pot, -0.5, 1e-2, decades=6, per_decade=16)
    p2 = collapse_probe(pot, -0.05, 1e-2, decades=6, per_decade=16)
    assert abs(p1.slope_per_decade / SLOPE_REF - 1.0) <= 0.05
    assert abs(p2.slope_per_decade / SLOPE_REF - 1.0) <= 0.05
    assert abs(p1.slope_per_decade / p2.slope_per_decade - 1.0) <= 0.01


def test_criterion_09_regularization_universality():
    rw = _interior_ratios(_unitarity_spectrum("hardwall"))
    rc = _interior_ratios(_unitarity_spectrum("cap"))
    m = min(len(rw), len(rc))
    assert m >= 3
    assert np.all(np.abs(rw[:m] / rc[:m] - 1.0) <= 0.03)


def test_criterion_10_meanfield_truth_table():
    BOSE, FERMI = Statistics.BOSE, Statistics.FERMI
    C, S, T = (Classification.COLLAPSE_UNBOUNDED_BELOW,
               Classification.SATURATING,
               Classification.TRIVIAL_MINIMUM_AT_ZERO)
    rows = [
        (BOSE, -1.0, Stabilizer.none(), None, C),
        (BOSE, 1.0, Stabilizer.none(), None, T),
        (BOSE, -1.0, Stabilizer.three_body(1.0), None, S),
        (BOSE, -1.0, Stabilizer.density_dependent(1.0, 0.5), 0.5, S),
        (FERMI, -4.0, Stabilizer.none(), None, C),
        (FERMI, -2.0, Stabilizer.density_dependent(1.0, 1.0), None, T),
        (FERMI, -4.0, Stabilizer.density_dependent(1.0, 1.0), None, S),
        (FERMI, -6.0, Stabilizer.three_body(1.0), None, S),
        (FERMI, -1.0, Stabilizer.three_body(1.0), 1.0, T),
    ]
    grid = np.geomspace(1e-2, 1e4, 10_000_001)
    log_grid = np.log(grid)
    for statistics, t0, stab, c3, expected in rows:
        m = MatterModel(statistics, t0, stab, c3=c3)
        report = classify_stability(m)
        assert report.classification is expected, (statistics, t0, stab.kind)
        if expected is not Classification.SATURATING:
            continue
        e = np.zeros_like(grid)
        for coeff, power in m.energy_terms():
            e += coeff * grid ** (power - 1.0)
        i = int(np.argmin(e))
        assert 0 < i < len(grid) - 1
        t_mid = log_grid[i]
        h = log_grid[i + 1] - log_grid[i - 1]
        denom = e[i - 1] - 2.0 * e[i] + e[i + 1]
        t_star = t_mid - 0.5 * h / 2.0 * (e[i + 1] - e[i - 1]) / denom
        n_scan = math.exp(t_star)
        assert report.n_sat == pytest.approx(n_scan, rel=1e-6), (
            statistics, t0, stab.kind, report.n_sat, n_scan)


def test_criterion_11_branch0_root_oracle():
    rng = np.random.RandomState(11)
    xs = rng.uniform(-50.0, 50.0, 100)
    worst = 0.0
    for x in xs:
        got = solve_branch0(float(x)).value
        want = _branch0_oracle(float(x))
        worst = max(worst, abs(got - want))
    assert worst <= 1e-9, f"worst |delta nu^2| = {worst:.3e}"


def test_criterion_12_cli_determinism():
    pot_args = ["potential", "--a", "-2.5", "--rho-min", "0.01",
                "--rho-max", "1e3", "--points", "80"]
    spec_args = ["spectrum", "--a", "inf", "--R", "1", "--rho-max", "1e5"]
    for args in (pot_args, spec_args):
        one = run_cli(args).stdout
        four = run_cli(args).stdout
        again = run_cli(args).stdout
        assert one == four == again, f"outputs diverged for {args[0]}"
        assert one.endswith("\n") and "\r" not in one
