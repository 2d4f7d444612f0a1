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
from hypothesis import given, settings, strategies as st

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
from efimov_lab._kernel import integrate_numerov
from efimov_lab.radial import DEFAULT_DT, DEFAULT_TAIL_FACTOR, MAX_GRID_POINTS

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
        pos = radial._node_positions(sol)
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
    with pytest.raises(ConfigError, match="decades"):
        collapse_probe(pot, -0.5, 1e-2, decades=1, per_decade=MAX_GRID_POINTS)
    with pytest.raises(ConfigError, match="^dt = "):
        collapse_probe(pot, -0.5, 1e-2, decades=300, dt=1e-5)  # one grid too fine


def test_probe_refuses_energy_above_dimer_threshold():
    # at a = -1e3 the atom-dimer threshold is -1e-6: no solution decays above it
    pot = _dimer_potential(-1e3, 1e-4, 1e5, 2)
    with pytest.raises(ConfigError, match="probe energy"):
        collapse_probe(pot, -0.5e-6, 1e-2, decades=2)


@pytest.mark.parametrize("decades, per_decade", [(1, 1), (6, 16), (40, 3)])
def test_probe_is_one_workspace_and_one_kernel_call(monkeypatch, decades, per_decade):
    calls, workspaces = [], []
    march, init = radial.integrate_numerov, radial._Workspace.__init__
    monkeypatch.setattr(radial, "integrate_numerov",
                        lambda *args: calls.append(1) or march(*args))
    monkeypatch.setattr(radial._Workspace, "__init__",
                        lambda self, *args: workspaces.append(1) or init(self, *args))
    probe = collapse_probe(_unitarity_potential(1e3, None), -0.5, 1e-2,
                           decades=decades, per_decade=per_decade)
    assert len(probe.counts) == decades * per_decade + 1
    assert (len(calls), len(workspaces)) == (1, 1)


def test_probe_zeros_are_the_staircase():
    probe = collapse_probe(_unitarity_potential(1e3, None), -0.5, 1e-2,
                           decades=6, per_decade=16)
    zeros = probe.zeros
    assert np.all(np.diff(zeros) > 0.0)
    assert zeros[0] >= probe.cutoffs[-1] and zeros[-1] <= probe.cutoffs[0]
    # the count steps by one at each zero inside the sweep
    above = np.sum(zeros[None, :] > probe.cutoffs[:, None], axis=1)
    assert probe.counts.tolist() == (probe.counts[0] + above).tolist()
    assert probe.reference_ratio == pytest.approx(RATIO_NODE, rel=1e-12)
    assert probe.zero_ratio == pytest.approx(RATIO_NODE, rel=1e-3)


def test_probe_reference_slope_is_the_pointwise_root():
    # the workspace's nu^2 at its first radius is the size-1 root at the
    # smallest cutoff, bit for bit
    pot = _dimer_potential(-1e4, 1e-6, 1e6, 2)
    probe = collapse_probe(pot, -1e-6, 1e-2, decades=4, per_decade=2)
    nu2 = pot.nu_squared_at(1e-2 * 10.0 ** -4)
    assert probe.reference_slope == math.sqrt(-nu2) * math.log(10.0) / math.pi


def _outward_counts(pot, E, cutoffs, rho_out, dt):
    """Reference: for each cutoff, a grid of its own from a wall there out
    to rho_out, marched outward; its node count is the count at that cutoff."""
    kappa2 = -2.0 * E
    counts = []
    for rc in cutoffs:
        T = math.log(rho_out / rc)
        n = int(math.ceil(T / dt)) + 1
        rho = rc * np.exp(np.linspace(0.0, T, n))
        w = pot.nu_squared_at(rho) + kappa2 * rho * rho
        counts.append(integrate_numerov(w, T / (n - 1), 0.0, 1.0)[1])
    return np.array(counts)


@given(a=st.one_of(st.just(math.inf), st.floats(min_value=-1e5, max_value=-1e2)),
       depth=st.floats(min_value=1.2, max_value=100.0),
       base_frac=st.floats(min_value=1e-3, max_value=0.3),
       decades=st.integers(min_value=1, max_value=6),
       per_decade=st.integers(min_value=1, max_value=8))
@settings(max_examples=20, deadline=None)
def test_inward_counts_match_outward_counts(a, depth, base_frac, decades, per_decade):
    # E lies `depth` times below the threshold -1/a^2, or below -1 at unitarity;
    # the base cutoff is a fraction of the outer end rho_out
    E = -depth / (a * a) if math.isfinite(a) else -depth
    rho_out = DEFAULT_TAIL_FACTOR / math.sqrt(-2.0 * E)
    base = base_frac * rho_out
    pot = _dimer_potential(a, base * 10.0 ** -decades, rho_out, 2)
    probe = collapse_probe(pot, E, base, decades, per_decade)
    assert np.all(np.diff(probe.counts) >= 0)   # counts never fall as rc shrinks

    want = _outward_counts(pot, E, probe.cutoffs, rho_out, DEFAULT_DT)
    differ = np.flatnonzero(probe.counts != want)
    # where a zero lies within a grid step of a cutoff the two grids may
    # disagree; a finer outward count settles those cutoffs
    fine = _outward_counts(pot, E, probe.cutoffs[differ], rho_out, DEFAULT_DT / 16)
    assert probe.counts[differ].tolist() == fine.tolist(), (differ, want[differ])


def test_spectrum_argument_validation():
    pot = _unitarity_potential(1e4, HardWall(1.0))
    with pytest.raises(ConfigError):
        find_spectrum(pot, 1e4, max_levels=0)
    with pytest.raises(ConfigError):
        find_spectrum(pot, 1e4, tol_E=0.5)


def _plain_bisection(pot, rho_max, tol_E=1e-8, max_levels=8):
    """Reference levels: the same bisection, integrating every midpoint afresh."""
    R = pot.R
    ws = radial._Workspace(pot, R, rho_max, radial.DEFAULT_DT)
    kappa_edge = radial._KAPPA_SEARCH_EDGE / rho_max
    ln_lo = math.log(kappa_edge)
    ln_hi = math.log(math.sqrt(radial._FLOOR_SCALE) / R)

    def count(kappa):
        return ws.integrate(-0.5 * kappa * kappa)[2]

    levels = []
    for k in range(min(max_levels, count(kappa_edge))):
        lo, hi = ln_lo, ln_hi
        while hi - lo > 0.25 * tol_E:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:   # adjacent doubles
                break
            if count(math.exp(mid)) >= k + 1:
                lo = mid
            else:
                hi = mid
        levels.append(-0.5 * math.exp(hi) ** 2)
        ln_hi = hi
    return levels


def test_level_search_reuses_known_node_counts(monkeypatch):
    rho_max = 1e8
    pot = _unitarity_potential(rho_max, HardWall(1.0))
    want = _plain_bisection(pot, rho_max)
    assert len(want) == 5

    calls = []
    march = radial.integrate_numerov
    monkeypatch.setattr(radial, "integrate_numerov",
                        lambda *args: calls.append(1) or march(*args))
    spec = find_spectrum(pot, rho_max)
    assert spec.energies.tolist() == want
    # integrating every midpoint, the floor and edge probes and each
    # level's final solution took 172 calls; reusing known counts alone, 162;
    # with the guide value, 47; with a first probe one period above each level, 38
    assert len(calls) == 38


def test_dimer_side_search_cost(monkeypatch):
    # the levels next to the atom-dimer threshold are not a tower, so most
    # predicted probes there miss; they cost at most two calls over the 104
    # of the search without them
    cfg = make_config(-1e4)
    pot = effective_potential(tabulate_branch(cfg, LogGrid.make(1.0, 1e8, 2)), HardWall(1.0))
    calls = []
    march = radial.integrate_numerov
    monkeypatch.setattr(radial, "integrate_numerov",
                        lambda *args: calls.append(1) or march(*args))
    assert len(find_spectrum(pot, 1e8)) == 8
    assert len(calls) <= 106


@pytest.mark.parametrize("scheme", [HardWall, Cap])
@pytest.mark.parametrize("a, R, rho_max", [
    (math.inf, 1.0, 1e6), (-1e2, 1.0, 1e6), (-1e4, 1.0, 1e6),
    # the unitarity-tower benchmark shapes, deep towers where every level
    # after the first starts from its predicted probe
    (math.inf, 0.5, 5e7), (math.inf, 2.0, 2e8),
], ids=["inf", "-100.0", "-10000.0", "inf-R0.5", "inf-R2"])
def test_guided_search_matches_plain_bisection(a, R, rho_max, scheme):
    branch = tabulate_branch(make_config(a), LogGrid.make(R, rho_max, 64))
    pot = effective_potential(branch, scheme(R))
    want = _plain_bisection(pot, rho_max)
    assert len(want) >= 2
    assert find_spectrum(pot, rho_max).energies.tolist() == want


def test_contradicting_counts_fall_back_to_every_midpoint(monkeypatch):
    rho_max = 1e6
    pot = _unitarity_potential(rho_max, HardWall(1.0))
    want = _plain_bisection(pot, rho_max)
    integrate = radial._Workspace.integrate
    seen = []

    def recording(self, E):
        w, g, count = integrate(self, E)
        seen.append((E, count))
        return w, g, count

    monkeypatch.setattr(radial._Workspace, "integrate", recording)
    assert find_spectrum(pot, rho_max).energies.tolist() == want
    honest_calls = len(seen)
    # the second probe holding one node lies deeper than the first; a false
    # count of two there leaves level 0 as it was but contradicts the first
    # probe for level 1, which must then integrate every midpoint
    bad_E = [E for E, n in seen if n == 1][1]
    seen.clear()

    def lying(self, E):
        w, g, count = recording(self, E)
        return w, g, 2 if E == bad_E else count

    monkeypatch.setattr(radial._Workspace, "integrate", lying)
    assert find_spectrum(pot, rho_max).energies.tolist() == want
    assert bad_E in [E for E, _ in seen]
    assert len(seen) > honest_calls + 15


def test_solution_arrays_read_only():
    pot = _unitarity_potential(1e4, HardWall(1.0))
    sol = integrate_radial(pot, -1e-3, 1e4)
    with pytest.raises(ValueError):
        sol.f[0] = 1.0


def test_array_holding_results_compare_by_identity():
    # field-wise == would compare arrays and hash would hash them; both
    # raised, so these objects compare and hash as themselves
    def solution():
        return radial.RadialSolution(E=-0.5, kappa=1.0, node_count=0, rho=np.ones(3),
                                     f=np.ones(3), R=1.0)

    makers = [
        lambda: LogGrid.make(0.1, 10.0, 5),
        lambda: tabulate_branch(make_config(-2.5), LogGrid.make(0.1, 10.0, 5)),
        solution,
        lambda: radial.BoundStateSpectrum(states=(solution(),), rho_max=10.0,
                                          total_nodes_at_edge=1),
        lambda: radial.NodeReport(positions=np.ones(3), ratios=np.ones(2),
                                  interior_positions=np.ones(3), interior_ratios=np.ones(2),
                                  geometric_ratio=1.0, ratio_spread=0.0, kappa=1.0),
        lambda: radial.ProbeResult(cutoffs=np.ones(2), counts=np.zeros(2, dtype=int),
                                   slope_per_decade=0.0, reference_slope=0.0, E=-0.5,
                                   rho_out=36.0, zeros=np.empty(0), zero_ratio=math.nan,
                                   reference_ratio=math.nan),
    ]
    for make in makers:
        a, b = make(), make()
        assert a == a and a != b, type(a).__name__
        assert hash(a) == hash(a) and len({a, b, a}) == 2, type(a).__name__


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
