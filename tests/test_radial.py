"""Radial solver against an independent low-order integrator and
closed-form references.

Node-count oracle: a plain central-difference march of
g'' = [nu^2(rho) + kappa^2 rho^2] g on a finer grid, sharing no code
with the production kernel.  Ground-state references for the constant
supercritical channel are frozen from high-precision matching of the
modified Bessel function K_{ib} boundary conditions:

    hard wall at R:        |E0| * 2 R^2 = 0.004273955628
    constant cap below R:  |E0| * 2 R^2 = 0.08915686561
"""

import math

import numpy as np
import pytest

from efimov_lab import (
    Cap,
    ConfigError,
    HardWall,
    InsufficientNodesError,
    LogGrid,
    SolverError,
    UnregularizedPotentialError,
    collapse_probe,
    constant_branch,
    effective_potential,
    efimov_constants,
    find_spectrum,
    integrate_radial,
    make_config,
    node_analysis,
    tabulate_branch,
)
from efimov_lab import radial
from efimov_lab.radial import DEFAULT_TAIL_FACTOR

B = efimov_constants().b
RATIO_E = math.exp(2.0 * math.pi / B)     # 515.035...
RATIO_NODE = math.exp(math.pi / B)        # 22.694...
E0_HARDWALL_2R2 = 0.004273955628
E0_CAP_2R2 = 0.08915686561


def _unitarity_potential(rho_max, scheme, R=1.0, points=200):
    cfg = make_config(float("inf"))
    grid = LogGrid.make(R, rho_max, points)
    branch = tabulate_branch(cfg, grid)
    return effective_potential(branch, scheme)


def test_hardwall_levels_match_exact_bessel_zeros():
    # at unitarity the hard-wall levels are the zeros of K_ib(kappa R);
    # for small argument K_ib(z) ~ sin(b ln(z/2) - arg Gamma(1 + ib)),
    # which places the m-th zero close enough to bracket it alone
    mpmath = pytest.importorskip("mpmath")
    spec = find_spectrum(_unitarity_potential(1e8, HardWall(1.0)), 1e8)
    assert len(spec) >= 5
    b = mpmath.mpf(efimov_constants().b)
    phase = mpmath.arg(mpmath.gamma(1 + 1j * b))
    for m, state in enumerate(spec.states, start=1):
        guess = 2 * mpmath.exp((phase - m * mpmath.pi) / b)
        z = mpmath.findroot(lambda z: mpmath.besselk(1j * b, z).real,
                            (0.8 * guess, 1.25 * guess), solver="anderson")
        exact = float(-z * z / 2)
        assert abs(state.E - exact) <= 1e-8 * abs(exact), (m, state.E, exact)


def nodes_oracle(nu2_at, R, E, tail_factor=36.0, steps_per_unit=4096):
    """Second-order node count of the outward hard-wall solution."""
    kappa = math.sqrt(-2.0 * E)
    T = math.log(tail_factor / (kappa * R))
    n = int(math.ceil(T * steps_per_unit)) + 1
    h = T / (n - 1)
    t = np.linspace(0.0, T, n)
    rho = R * np.exp(t)
    w = np.asarray(nu2_at(rho), dtype=float) + (kappa * rho) ** 2
    gm, gi = 0.0, h
    nodes = 0
    sign = 1.0
    for i in range(1, n - 1):
        gp = 2.0 * gi - gm + h * h * w[i] * gi
        if gp != 0.0:
            if sign * gp < 0.0:
                nodes += 1
            sign = math.copysign(1.0, gp)
        scale = abs(gp)
        if scale > 1e250:
            gi /= scale
            gp /= scale
        gm, gi = gi, gp
    return nodes


def test_node_count_matches_low_order_oracle():
    pot = _unitarity_potential(1e6, HardWall(1.0))
    b2 = -B * B
    for E in (-1e-3, -2e-5, -3e-7):
        sol = integrate_radial(pot, E, 1e6)
        want = nodes_oracle(lambda r: np.full(len(r), b2), 1.0, E)
        assert sol.node_count == want, f"E={E}: {sol.node_count} != {want}"


def test_hardwall_ground_state_matches_bessel_reference():
    pot = _unitarity_potential(1e8, HardWall(1.0))
    spec = find_spectrum(pot, 1e8, max_levels=1)
    assert abs(spec.states[0].E) * 2.0 == pytest.approx(E0_HARDWALL_2R2, rel=1e-4)


def test_cap_ground_state_matches_bessel_reference():
    pot = _unitarity_potential(1e8, Cap(1.0))
    spec = find_spectrum(pot, 1e8, max_levels=1)
    assert abs(spec.states[0].E) * 2.0 == pytest.approx(E0_CAP_2R2, rel=1e-4)


def test_geometric_tower_at_unitarity():
    pot = _unitarity_potential(1e8, HardWall(1.0))
    spec = find_spectrum(pot, 1e8)
    interior = spec.interior_states()
    assert len(interior) >= 4
    e = np.array([s.E for s in interior])
    ratios = e[:-1] / e[1:]
    assert np.all(np.abs(ratios / RATIO_E - 1.0) < 0.02)
    for k, s in enumerate(spec.states):
        assert s.node_count == k


def test_hardwall_vs_cap_ratio_universality():
    wall = find_spectrum(_unitarity_potential(1e8, HardWall(1.0)), 1e8)
    cap = find_spectrum(_unitarity_potential(1e8, Cap(1.0)), 1e8)

    def interior_ratios(spec):
        e = np.array([s.E for s in spec.interior_states()])
        return e[:-1] / e[1:]

    rw = interior_ratios(wall)
    rc = interior_ratios(cap)
    m = min(len(rw), len(rc))
    assert m >= 3
    assert np.all(np.abs(rw[:m] / rc[:m] - 1.0) < 0.03)


def test_grid_convergence_of_ground_state():
    pot = _unitarity_potential(1e5, HardWall(1.0))
    e_coarse = find_spectrum(pot, 1e5, max_levels=1, dt=1.0 / 256).states[0].E
    e_fine = find_spectrum(pot, 1e5, max_levels=1, dt=1.0 / 512).states[0].E
    assert abs(e_coarse / e_fine - 1.0) < 1e-6


def test_hard_wall_radius_covariance():
    s = 3.7
    spec_1 = find_spectrum(_unitarity_potential(1e5, HardWall(1.0)), 1e5,
                           max_levels=3)
    spec_s = find_spectrum(_unitarity_potential(1e5 * s, HardWall(s), R=s), 1e5 * s,
                           max_levels=3)
    e1 = spec_1.energies
    es = spec_s.energies
    assert np.allclose(es * s * s, e1, rtol=1e-9)


def test_node_positions_energy_independent_at_small_rho():
    pot = _unitarity_potential(1e6, HardWall(1.0))
    deep = integrate_radial(pot, -1e-8, 1e6)
    shallow = integrate_radial(pot, -1e-9, 1e6)
    window_hi = 0.2 / deep.kappa

    def windowed(sol):
        rep = node_analysis(sol, kappa_rho_max=0.2, wall_factor=2.0,
                            min_interior=2)
        pos = rep.positions
        return pos[(pos >= 2.0) & (pos <= window_hi)]

    p_deep = windowed(deep)
    p_shallow = windowed(shallow)
    m = min(len(p_deep), len(p_shallow))
    assert m >= 2
    assert np.all(np.abs(p_shallow[:m] / p_deep[:m] - 1.0) < 0.005)


def test_node_report_geometry():
    pot = _unitarity_potential(1e8, HardWall(1.0))
    spec = find_spectrum(pot, 1e8)
    sol = spec.interior_states()[-1]
    rep = node_analysis(sol)
    assert len(rep.interior_positions) >= 3
    assert np.all(np.abs(rep.interior_ratios / RATIO_NODE - 1.0) < 0.01)
    assert rep.geometric_ratio == pytest.approx(RATIO_NODE, rel=0.01)
    assert rep.ratio_spread < 0.01
    assert set(rep.interior_positions).issubset(set(rep.positions))


def test_ground_state_has_too_few_nodes_for_analysis():
    pot = _unitarity_potential(1e6, HardWall(1.0))
    spec = find_spectrum(pot, 1e6, max_levels=1)
    with pytest.raises(InsufficientNodesError):
        node_analysis(spec.states[0])


def test_box_limited_levels_are_flagged():
    pot = _unitarity_potential(1e6, HardWall(1.0))
    spec = find_spectrum(pot, 1e6)
    assert len(spec.states) >= 3
    assert not spec.states[0].box_limited
    assert spec.states[-1].box_limited
    box_scale = 0.5 / 1e12
    for s in spec.states:
        assert s.box_limited == (abs(s.E) < 100.0 * box_scale)


def test_unregularized_requests_are_refused():
    pot = _unitarity_potential(1e4, None)
    with pytest.raises(UnregularizedPotentialError):
        integrate_radial(pot, -1e-3, 1e4)
    with pytest.raises(UnregularizedPotentialError):
        find_spectrum(pot, 1e4)


def test_search_floor_guard():
    grid = LogGrid.make(1.0, 1e4, 50)
    deep = effective_potential(constant_branch(-400.0, grid), HardWall(1.0))
    with pytest.raises(SolverError, match="below the search floor"):
        find_spectrum(deep, 1e4)


def test_energy_too_deep_for_grid():
    pot = _unitarity_potential(1e4, HardWall(1.0))
    with pytest.raises(SolverError):
        integrate_radial(pot, -1e7, 1e4)


def test_repulsive_channel_has_no_levels():
    grid = LogGrid.make(1.0, 1e6, 50)
    pot = effective_potential(constant_branch(4.0, grid), HardWall(1.0))
    spec = find_spectrum(pot, 1e6)
    assert len(spec) == 0
    assert spec.total_nodes_at_edge == 0


def test_probe_slope_matches_channel_strength():
    pot = _unitarity_potential(1e3, None)
    probe = collapse_probe(pot, -0.5, 1e-2, decades=4, per_decade=8)
    want = B * math.log(10.0) / math.pi
    assert probe.reference_slope == pytest.approx(want, rel=1e-9)
    assert probe.slope_per_decade == pytest.approx(want, rel=0.05)


def test_probe_slope_energy_independent():
    pot = _unitarity_potential(1e3, None)
    s1 = collapse_probe(pot, -0.5, 1e-2, decades=6, per_decade=16).slope_per_decade
    s2 = collapse_probe(pot, -0.05, 1e-2, decades=6, per_decade=16).slope_per_decade
    assert abs(s1 / s2 - 1.0) < 0.01


def test_probe_subcritical_channel_saturates():
    grid = LogGrid.make(1e-8, 1e3, 60)
    pot = effective_potential(constant_branch(0.01, grid), None)
    probe = collapse_probe(pot, -0.5, 1e-2, decades=4, per_decade=4)
    assert abs(probe.slope_per_decade) < 0.05
    assert math.isnan(probe.reference_slope)


def test_probe_rejects_regularized_potential():
    pot = _unitarity_potential(1e3, HardWall(1.0))
    with pytest.raises(ConfigError):
        collapse_probe(pot, -0.5, 1e-2, decades=2)


def test_probe_argument_validation():
    pot = _unitarity_potential(1e3, None)
    with pytest.raises(ConfigError):
        collapse_probe(pot, 0.5, 1e-2, decades=2)
    with pytest.raises(ConfigError):
        collapse_probe(pot, -0.5, 1e-2, decades=0)
    with pytest.raises(ConfigError):
        collapse_probe(pot, -1e8, 1e-2, decades=2)  # outer end below cutoff
    with pytest.raises(ConfigError, match="decades"):
        collapse_probe(pot, -0.5, 1e-2, decades=400)  # smallest cutoff underflows


def test_spectrum_argument_validation():
    pot = _unitarity_potential(1e4, HardWall(1.0))
    with pytest.raises(ConfigError):
        find_spectrum(pot, 1e4, max_levels=0)
    with pytest.raises(ConfigError):
        find_spectrum(pot, 1e4, tol_E=0.5)


def test_level_search_reuses_known_node_counts(monkeypatch):
    # reference: the same bisection integrating every midpoint afresh
    rho_max, tol_E = 1e8, 1e-8
    pot = _unitarity_potential(rho_max, HardWall(1.0))
    ws = radial._Workspace(pot, 1.0, rho_max, radial.DEFAULT_DT)
    ln_lo = math.log(radial._KAPPA_SEARCH_EDGE / rho_max)
    ln_hi = math.log(math.sqrt(radial._FLOOR_SCALE))
    want = []
    for k in range(5):
        lo, hi = ln_lo, ln_hi
        while hi - lo > 0.25 * tol_E:
            mid = 0.5 * (lo + hi)
            if ws.node_count(math.exp(mid)) >= k + 1:
                lo = mid
            else:
                hi = mid
        want.append(-0.5 * math.exp(hi) ** 2)
        ln_hi = hi

    calls = []
    march = radial.integrate_numerov
    monkeypatch.setattr(radial, "integrate_numerov",
                        lambda *args: calls.append(1) or march(*args))
    spec = find_spectrum(pot, rho_max, tol_E=tol_E)
    assert spec.energies.tolist() == want
    # integrating every midpoint, the floor and edge probes and each
    # level's final solution took 172 calls
    assert len(calls) == 162


def test_solution_arrays_read_only():
    pot = _unitarity_potential(1e4, HardWall(1.0))
    sol = integrate_radial(pot, -1e-3, 1e4)
    with pytest.raises(ValueError):
        sol.f[0] = 1.0


def _dimer_potential(a, rho_lo, rho_hi, points, scheme=None):
    cfg = make_config(a)
    branch = tabulate_branch(cfg, LogGrid.make(rho_lo, rho_hi, points))
    return effective_potential(branch, scheme)


def test_spectrum_does_not_read_the_branch_table():
    # nu^2 is re-solved at the workspace radii, so the table size is invisible
    runs = [find_spectrum(_dimer_potential(-1e4, 1.0, 1e6, points, HardWall(1.0)), 1e6)
            for points in (2, 512)]
    coarse, fine = ([(s.E, s.node_count) for s in spec.states] for spec in runs)
    assert len(coarse) >= 2
    assert coarse == fine


def test_probe_does_not_read_the_branch_table():
    E, base, decades = -1e-4, 1e-2, 2
    rho_out = DEFAULT_TAIL_FACTOR / math.sqrt(-2.0 * E) * (1.0 + 1e-12)
    smallest = base * 10.0 ** (-decades)
    coarse, fine = (collapse_probe(_dimer_potential(-1e3, smallest, rho_out, points),
                                   E, base, decades, per_decade=2).counts.tolist()
                    for points in (2, 400))
    assert coarse == fine
