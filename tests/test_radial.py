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
from hypothesis import example, given, settings, strategies as st

from efimov_lab import (
    AdiabaticBranch,
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
from efimov_lab import hyperangular, radial
from efimov_lab._kernel import integrate_numerov
from efimov_lab.radial import DEFAULT_DT, DEFAULT_TAIL_FACTOR, DEFAULT_TOL_E, MAX_GRID_POINTS

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
        assert abs(state.E - exact) <= 1e-10 * abs(exact), (m, state.E, exact)
        # the error estimate of the h-grid level bounds the extrapolated one's
        assert abs(state.E - exact) <= state.E_error, (m, state.E_error)


def _exact_cap_level(kappa):
    """The exact capped level at unitarity (R = 1) next to kappa.

    The capped well is f = sin(q rho) below R, with
    q^2 = (b^2 + 1/4) / R^2 - kappa^2, and sqrt(rho) K_ib(kappa rho) above;
    each level is a zero of the Wronskian of the two at R.
    """
    mpmath = pytest.importorskip("mpmath")
    b = mpmath.mpf(efimov_constants().b)

    def wronskian(kappa):
        q = mpmath.sqrt(b * b + 0.25 - kappa * kappa)
        k = mpmath.besselk(1j * b, kappa).real
        dk = -(mpmath.besselk(1j * b - 1, kappa) + mpmath.besselk(1j * b + 1, kappa)).real / 2
        return q * mpmath.cos(q) * k - mpmath.sin(q) * (k / 2 + kappa * dk)

    kappa = mpmath.mpf(kappa)
    z = mpmath.findroot(wronskian, (kappa * (1 - 1e-6), kappa * (1 + 1e-6)), solver="anderson")
    return float(-z * z / 2)


def test_cap_levels_match_exact_matching():
    pytest.importorskip("mpmath")
    spec = find_spectrum(_unitarity_potential(1e8, Cap(1.0)), 1e8)
    levels = spec.interior_states()
    assert len(levels) >= 5
    for state in levels:
        exact = _exact_cap_level(state.kappa)
        assert abs(state.E - exact) <= 1e-10 * abs(exact), (state.node_count, state.E, exact)


def test_cap_levels_converge_as_h6():
    # Richardson removes the h^4 term of each level.  A start that is exact
    # through h^4 but lacks the march's own local error leaves an h^5 term
    # under a cap (4.5e-11 at dt = 1/64); with it the worst level error is
    # 1.1e-11, 9.5e-13 and 1.7e-13 at dt = 1/32, 1/48 and 1/64.  h^6 divides
    # it by 64 from 1/32 to 1/64, h^5 by 32
    pytest.importorskip("mpmath")
    pot = _unitarity_potential(1e8, Cap(1.0))
    worst = {}
    for dt in (1.0 / 32.0, 1.0 / 64.0):
        levels = find_spectrum(pot, 1e8, tol_E=1e-14, dt=dt).interior_states()
        assert len(levels) >= 5
        worst[dt] = max(abs(s.E / _exact_cap_level(s.kappa) - 1.0) for s in levels)
    assert worst[1.0 / 32.0] <= 2e-11, worst
    assert worst[1.0 / 32.0] >= 40.0 * worst[1.0 / 64.0], worst


def magnus_end_value(nu2_at, R, T, steps_per_unit=256):
    """g(T) as a function of (kappa, g(0), g'(0)) for g'' = [nu^2(rho) + kappa^2 rho^2] g.

    A fourth-order Magnus integrator of y' = A y, y = (g, dg/dt) and
    A = [[0, 1], [w, 0]] on t = ln(rho/R), sharing no code with the Numerov
    kernel (Iserles & Norsett, Proc. R. Soc. A 455, 983 (1999)).  Each step
    samples w at its two Gauss-Legendre points, w1 and w2, and takes
    Omega = h (A1 + A2) / 2 + (sqrt(3) / 12) h^2 [A2, A1], which is the
    traceless [[al, h], [ga, -al]] with al = (sqrt(3) / 12) h^2 (w1 - w2)
    and ga = h (w1 + w2) / 2.  Its exponential is cosh(m) + sinh(m) / m Omega
    with m^2 = al^2 + h ga, or cos and sin of |m| where m^2 < 0.
    """
    n = math.ceil(T * steps_per_unit)
    h = T / n
    mid = h * (np.arange(n) + 0.5)
    off = h * math.sqrt(3.0) / 6.0
    rho = R * np.exp(np.concatenate([mid - off, mid + off]))
    nu2 = np.asarray(nu2_at(rho), dtype=float)

    def end_value(kappa, g, dg):
        w = nu2 + (kappa * rho) ** 2
        al = (math.sqrt(3.0) / 12.0) * h * h * (w[:n] - w[n:])
        ga = 0.5 * h * (w[:n] + w[n:])
        m2 = al * al + h * ga
        m = np.sqrt(np.abs(m2))
        grows = m2 >= 0.0
        ch = np.where(grows, np.cosh(m), np.cos(m))
        sh = np.where(m > 0.0, np.where(grows, np.sinh(m), np.sin(m)) / np.where(m > 0.0, m, 1.0),
                      1.0)
        for e00, e01, e10, e11 in zip((ch + sh * al).tolist(), (sh * h).tolist(),
                                      (sh * ga).tolist(), (ch - sh * al).tolist()):
            g, dg = e00 * g + e01 * dg, e10 * g + e11 * dg
        return g

    return end_value


@pytest.mark.parametrize("scheme", [HardWall, Cap])
@pytest.mark.parametrize("a, rho_max", [(-1e2, 1e6), (-1e3, 1e6), (-1e4, 1e8), (50.0, 1e6)])
def test_finite_a_levels_match_magnus_shooting(a, rho_max, scheme):
    # each level below the threshold (-1/a^2 on the dimer side, mu = 1/2,
    # and 0 for a > 0) is the kappa where the Magnus solution vanishes at the
    # tail cutoff, where the decay constant sqrt(kappa^2 + 2 threshold) times
    # rho reaches DEFAULT_TAIL_FACTOR, found by secant steps from the computed
    # level.  The start is the closed-form solution below R: g = 0, g' = 1 at
    # a hard wall; f = sin(q rho) or sinh(|q| rho) under a cap.  Measured
    # agreement: at most 3.8e-11 over the 19 levels (4.1e-11 at h = 1/64 with a
    # fourth-order start, 1.6e-10 from one search at h = 1/128)
    R = 1.0
    pot = effective_potential(tabulate_branch(make_config(a), LogGrid.make(R, rho_max, 2)),
                              scheme(R))
    threshold = -1.0 / (a * a) if a < 0.0 else 0.0
    levels = [s for s in find_spectrum(pot, rho_max).states if not s.box_limited]
    assert len(levels) >= 1
    assert all(s.E < threshold for s in levels)
    nu2_R = float(pot.nu_squared_at(np.array([R]))[0])

    def start(kappa):
        if scheme is HardWall:
            return 0.0, 1.0
        q2 = -kappa * kappa - (nu2_R - 0.25) / (R * R)
        sin, cos, q = ((math.sin, math.cos, math.sqrt(q2)) if q2 >= 0.0
                       else (math.sinh, math.cosh, math.sqrt(-q2)))
        return sin(q * R), q * R * cos(q * R) - 0.5 * sin(q * R)

    for state in levels:
        decay = math.sqrt(state.kappa ** 2 + 2.0 * threshold)
        T = min(math.log(DEFAULT_TAIL_FACTOR / (decay * R)), math.log(rho_max / R))
        end = magnus_end_value(pot.nu_squared_at, R, T)
        x0, x1 = state.kappa, state.kappa * (1.0 + 1e-8)
        f0 = end(x0, *start(x0))
        for _ in range(10):
            f1 = end(x1, *start(x1))
            x0, f0, x1 = x1, f1, x1 - f1 * (x1 - x0) / (f1 - f0)
            if abs(x1 - x0) <= 1e-15 * x1:
                break
        exact = -0.5 * x1 * x1
        assert abs(state.E - exact) <= 1e-10 * abs(exact), (state.node_count, state.E, exact)


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


def _zero_energy_solution(periods):
    """f = sqrt(rho) sin(b ln rho) over `periods` half-periods, sampled at DEFAULT_DT.

    It solves the unitarity channel at E = 0, with nodes at exactly
    rho = exp(m pi / b).
    """
    T = periods * math.pi / B
    t = np.linspace(0.0, T, int(math.ceil(T / DEFAULT_DT)) + 1)
    rho = np.exp(t)
    # kappa = 0 leaves node_analysis's window open to the end of the grid
    return radial.RadialSolution(E=0.0, kappa=0.0, node_count=periods, rho=rho,
                                 f=np.sqrt(rho) * np.sin(B * t), R=1.0)


@pytest.mark.parametrize("periods", [6, 225])
def test_node_analysis_of_the_zero_energy_solution(periods):
    # at 225 half-periods the grid ends near rho = 1e305
    rep = node_analysis(_zero_energy_solution(periods))
    assert len(rep.positions) == len(rep.interior_positions) == periods - 1
    assert rep.geometric_ratio == pytest.approx(RATIO_NODE, rel=1e-6)
    assert rep.ratio_spread < 1e-6
    assert rep.kappa == 0.0


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


def test_probe_just_below_the_dimer_threshold():
    # at a = -1e4 the threshold is -1e-8, three doubles above this E.  At the
    # outer end rho_out ~ 2.5e5, nu^2 + kappa^2 rho^2 cancels to 0.0 and the
    # probe was refused; from its value at the threshold w there is 6.4e-13
    E = -1.0000000000000005e-08
    pot = _dimer_potential(-1e4, 1e-3, 0.1, 2)
    assert pot.threshold == -1e-08
    probe = collapse_probe(pot, E, 0.1, decades=2)
    assert probe.counts.tolist() == [4, 5, 6]
    # one double deeper the count is the same
    deeper = collapse_probe(pot, math.nextafter(E, -math.inf), 0.1, decades=2)
    assert deeper.counts.tolist() == [4, 5, 6]
    with pytest.raises(ConfigError, match="probe energy"):
        collapse_probe(pot, pot.threshold, 0.1, decades=2)


@pytest.mark.parametrize("a, E", [(-1e4, -1.0000000000000005e-08), (-1e4, -3e-8), (-1e2, -1e-3),
                                  (math.inf, -1e-4), (1e3, -0.5)])
def test_probe_w_is_the_threshold_form(monkeypatch, a, E):
    # the probe marches the w that every integration assembles, its value at
    # the threshold plus 2 (E_thr - E) rho^2, reversed, bit for bit
    pot = _dimer_potential(a, 1e-3, 0.1, 2)
    seen = []
    march = radial.integrate_numerov
    monkeypatch.setattr(radial, "integrate_numerov",
                        lambda w, *args: seen.append(np.array(w)) or march(w, *args))
    probe = collapse_probe(pot, E, 0.1, decades=2)
    ws = radial._Workspace(pot, 1e-3, probe.rho_out, DEFAULT_DT)
    want = (ws.w_thr + (2.0 * (pot.threshold - E)) * ws.rho2)[::-1]
    assert len(seen) == 1 and seen[0].tobytes() == want.tobytes()


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


@pytest.mark.parametrize("a, E", [(math.inf, -1e-4), (math.inf, -3e-5),
                                  (-1e4, -3e-8), (-1e4, -1.5e-8),
                                  (-3e3, -3.0 / 3e3 ** 2), (-3e3, -1.5 / 3e3 ** 2)])
def test_probe_count_is_the_hard_wall_levels_below_E(a, E):
    # by Sturm oscillation the probe's count at a cutoff rc is the number of
    # levels below E with a hard wall at rc; the spectrum finds those levels by
    # its own search, with which the probe's one inward march shares nothing.
    # 6 decades of cutoff at 1 per decade, 7 cutoffs for each of 6 (a, E)
    probe = collapse_probe(_dimer_potential(a, 1e-6, 1.0, 2), E, 1.0, decades=6)
    rho_max = 100.0 / math.sqrt(-2.0 * E)
    below = []
    for rc in probe.cutoffs:
        spec = find_spectrum(_dimer_potential(a, rc, rho_max, 2, HardWall(rc)), rho_max,
                             max_levels=12)
        # the spectrum holds every level below E
        assert len(spec) < 12 or spec.states[-1].E > E, (rc, len(spec))
        below.append(sum(state.E < E for state in spec.states))
    assert probe.counts.tolist() == below
    assert below[-1] - below[0] >= 4


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


def _plain_bisection(ws, pot, rho_max, tol_E=radial.DEFAULT_TOL_E, max_levels=8):
    """Reference levels on the grid of `ws`: the same bisection, integrating
    every midpoint afresh.

    The window runs from the search floor up to the shallow search edge or,
    on branch 0 of the dimer side, up to the atom-dimer threshold
    kappa_d = sqrt(1 / (mu a^2)) if that is deeper; its node count there
    is the number of levels.  Each level is the deeper edge of its final
    bracket.
    """
    R = pot.R
    kappa_lo = radial._KAPPA_SEARCH_EDGE / rho_max
    cfg = pot.config
    if (cfg is not None and pot.branch_index == 0
            and -math.inf < cfg.scattering_length_a < 0.0):
        inv = 1.0 / cfg.scattering_length_a
        kappa_lo = max(kappa_lo, math.sqrt(inv * inv / cfg.reduced_mass_mu))
    ln_lo = math.log(kappa_lo)
    ln_hi = math.log(math.sqrt(radial._FLOOR_SCALE) / R)

    def count(kappa):
        return ws.integrate(-0.5 * kappa * kappa)[2]

    levels = []
    for k in range(min(max_levels, count(kappa_lo))):
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


def _reference_levels(pot, rho_max):
    """(h-grid levels, 2h-grid levels, extrapolated levels) by plain bisection.

    The 2h grid is every other point of the h grid, and each extrapolated
    level is (16 P_h - P_2h) / 15 of the two plain-bisection levels.
    """
    ws = radial._Workspace(pot, pot.R, rho_max, DEFAULT_DT)
    fine = _plain_bisection(ws, pot, rho_max)
    coarse = _plain_bisection(ws.coarse(), pot, rho_max)
    assert len(fine) == len(coarse)
    return fine, coarse, [(16.0 * p_h - p_2h) / 15.0 for p_h, p_2h in zip(fine, coarse)]


def _searched_levels(monkeypatch) -> dict:
    """Collect, per grid step, (ln kappa of the level, of its solution) of every search."""
    found = {}
    level = radial._level

    def recording(ws, *args, **kwargs):
        x, x_sol = level(ws, *args, **kwargs)
        found.setdefault(ws.h, []).append((x, x_sol))
        return x, x_sol

    monkeypatch.setattr(radial, "_level", recording)
    return found


def _integrations(monkeypatch) -> list:
    """Collect (grid step, ln kappa, node count) of every integration, in call order."""
    seen = []
    integrate = radial._Workspace.integrate

    def recording(self, E, *args, **kwargs):
        w, g, count = integrate(self, E, *args, **kwargs)
        seen.append((self.h, 0.5 * math.log(-2.0 * E), count))
        return w, g, count

    monkeypatch.setattr(radial._Workspace, "integrate", recording)
    return seen


def _per_grid(found) -> tuple[list, list]:
    """The levels `_searched_levels` collected, h grid first."""
    fine, coarse = sorted(found)
    assert coarse == 2.0 * fine
    return found[fine], found[coarse]


def _reach(ln_tol, x):
    """How far a level's solution may lie from it in ln kappa: ln_tol, or a few ulps."""
    return max(ln_tol, 4.0 * math.ulp(x))


def _assert_levels_in_count_brackets(found, seen, spec, ln_tol):
    """Each level lies inside the integrated count bracket on its own grid, and
    its solution is an h-grid solution with k nodes within `_reach` above it."""
    fine, coarse = _per_grid(found)
    assert len(fine) == len(coarse) == len(spec)
    for levels, step in ((fine, min(found)), (coarse, max(found))):
        points = [(x, c) for h, x, c in seen if h == step]
        for k, (x, _) in enumerate(levels):
            # the integrations' ln kappa is recovered from E, to an ulp or two
            slack = 4.0 * math.ulp(x)
            deep = max(xp for xp, c in points if c > k)
            shallow = min(xp for xp, c in points if c <= k)
            assert deep - slack <= x <= shallow + slack, (step, k, deep, x, shallow)
    for k, (state, (x, x_sol)) in enumerate(zip(spec.states, fine)):
        assert state.node_count == k
        assert 0.0 <= x_sol - x <= _reach(ln_tol, x), (k, x, x_sol)


def test_coarse_grid_is_every_other_point(monkeypatch):
    # the 2h grid takes no second nu^2 re-solve and no copy, and ends at rho_max
    pot = _dimer_potential(-1e4, 1.0, 1e8, 2, HardWall(1.0))
    resolves = []
    nu2_at = AdiabaticBranch.nu_squared_at
    monkeypatch.setattr(AdiabaticBranch, "nu_squared_at",
                        lambda self, rho: resolves.append(len(rho)) or nu2_at(self, rho))
    ws = radial._Workspace(pot, 1.0, 1e8, DEFAULT_DT)
    coarse = ws.coarse()
    assert resolves == [ws.n_full] and ws.n_full % 2 == 1
    assert ws.h <= DEFAULT_DT and coarse.h == 2.0 * ws.h
    assert coarse.n_full == (ws.n_full + 1) // 2 == len(coarse.rho)
    for name in ("rho", "rho2", "nu2"):
        whole, every_other = getattr(ws, name), getattr(coarse, name)
        assert np.shares_memory(whole, every_other)
        assert every_other.tolist() == whole[::2].tolist()
    assert coarse.rho[-1] == ws.rho[-1] == pytest.approx(1e8, rel=1e-12)


def test_level_search_reuses_known_node_counts(monkeypatch):
    rho_max = 1e8
    pot = _unitarity_potential(rho_max, HardWall(1.0))
    want = _reference_levels(pot, rho_max)
    assert len(want[2]) == 5

    steps, kept = [], []
    march = radial.integrate_numerov
    monkeypatch.setattr(radial, "integrate_numerov",
                        lambda w, *args: steps.append(len(w)) or kept.append(args[3:] != (False,))
                        or march(w, *args))
    spec = find_spectrum(pot, rho_max)
    # plain bisection's deeper cell edges lie up to tol_E / 2 above each step
    assert np.allclose(spec.energies, want[2], rtol=DEFAULT_TOL_E, atol=0.0)
    # integrating every midpoint, the floor and edge probes and each
    # level's final solution took 172 calls; reusing known counts alone, 162;
    # with the guide value, 47; with a first probe one period above each level, 38;
    # all at dt = 1/512 and tol_E = 1e-8.  At dt = 1/128 and tol_E = 1e-10 the
    # hundredfold tighter tolerance cost three more: 41 calls, 58,662 steps.
    # Searching each level at h = 1/64 and again on the 2h grid, from two seeds
    # around the h level, took 63 calls and 39,576 steps.  Searching the 2h grid
    # first, at half the steps, and seeding the h grid from it takes 35 calls on
    # the 2h grid and 4 per level on the h grid: 62 calls and 34,054 steps.
    # Snapping each regula-falsi point to an end of its final bisection cell
    # ends every search on an integrated hi, whose probe is the level's
    # solution: no integration at E_h after the searches, 57 calls, 30,241 steps.
    # Starting the march with its own h^6 error lets the step double to 1/32,
    # with the h-grid seeds 1e-6 either side of the 2h level: 53 calls, 14,502 steps.
    # Converging each level on the zero of its guide value, and not on a
    # bisection cell, takes 2 seeds and 1 probe per level on the h grid:
    # 43 calls, 11,505 steps; a secant step after each predicted probe, with the
    # last level's slope of q, saves two on the 2h grid: 41 calls, 10,948 steps
    assert (len(steps), sum(steps)) == (41, 10948)
    # only the probe that becomes each level's solution keeps its samples
    assert sum(kept) == len(spec) == 5


def test_dimer_side_hooks_are_called(monkeypatch):
    # the tests and the benchmark wrap these by name, so a spectrum and a
    # probe on the dimer side must still go through each of them (the
    # fallback through `_Workspace.solution` is pinned by
    # test_count_only_probes_fall_back_to_one_solution_per_level)
    calls = {}
    for owner, name in ((hyperangular, "_lhs"), (hyperangular, "_lhs_negative"),
                        (AdiabaticBranch, "nu_squared_at"), (radial, "_probe"),
                        (radial, "_level"), (radial._Workspace, "__init__"),
                        (radial._Workspace, "integrate"), (radial, "integrate_numerov")):
        def counted(*args, _name=name, _orig=getattr(owner, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    assert len(find_spectrum(_dimer_potential(-1e4, 1.0, 2.0, 2, HardWall(1.0)), 1e8)) == 3
    collapse_probe(_dimer_potential(-1e4, 1e-3, 0.1, 2), -3e-8, 0.1, decades=2)
    assert set(calls) == {"_lhs", "_lhs_negative", "nu_squared_at", "_probe", "_level",
                          "__init__", "integrate", "integrate_numerov"}, calls
    # one workspace each for the spectrum and the probe
    assert calls["__init__"] == 2


def test_dimer_side_search_cost(monkeypatch):
    # the three trimers below the atom-dimer threshold took 37 calls and
    # 45,123 steps at dt = 1/128, the threshold integration among them;
    # searching the continuum above it as well found 8 levels in 98 calls.
    # At h = 1/64 with the 2h grid the three took 50 calls and 26,914 steps
    # with the h grid searched first; searching the 2h grid first moves 20 of
    # the 50 onto its half-length grid, 21,027 steps.  The last h-grid probe,
    # at hi, is each level's solution, which saves one call per level and the
    # snapped regula-falsi points two more: 45 calls and 18,649 steps.  At
    # h = 1/32 with the sixth-order start: 44 calls and 9,190 steps; converged
    # on the guide value's zero: 39 calls and 8,006 steps, and with a secant
    # step after each predicted probe, 35 calls and 7,310 steps
    cfg = make_config(-1e4)
    pot = effective_potential(tabulate_branch(cfg, LogGrid.make(1.0, 1e8, 2)), HardWall(1.0))
    steps = []
    march = radial.integrate_numerov
    monkeypatch.setattr(radial, "integrate_numerov",
                        lambda w, *args: steps.append(len(w)) or march(w, *args))
    assert len(find_spectrum(pot, 1e8)) == 3
    assert (len(steps), sum(steps)) == (35, 7310)


def test_h_grid_search_starts_from_the_2h_level(monkeypatch):
    # each level is searched on the 2h grid first; the h-grid search then starts
    # from two seeds _SEED_HALF_WIDTH either side of the 2h level, which
    # straddle the h level, so one more probe converges it
    pot = _unitarity_potential(1e8, HardWall(1.0))
    events = []     # (grid step, ln kappa, is a level) in call order
    probe, level = radial._probe, radial._level
    monkeypatch.setattr(radial, "_probe",
                        lambda ws, x, **kwargs: events.append((ws.h, x, False))
                        or probe(ws, x, **kwargs))

    def recording(ws, *args, **kwargs):
        x, x_sol = level(ws, *args, **kwargs)
        events.append((ws.h, x, True))
        return x, x_sol

    monkeypatch.setattr(radial, "_level", recording)
    assert len(find_spectrum(pot, 1e8)) == 5
    h = min(step for step, _, _ in events)
    ends = [i for i, (step, _, is_level) in enumerate(events) if is_level and step == h]
    assert len(ends) == 5
    start = 0
    for end in ends:
        level_events = events[start:end]
        split = [i for i, (_, _, is_level) in enumerate(level_events) if is_level]
        assert len(split) == 1
        coarse_probes, (step2, x2, _), fine_probes = (
            level_events[:split[0]], level_events[split[0]], level_events[split[0] + 1:])
        assert step2 == 2.0 * h
        assert coarse_probes and all(step == 2.0 * h for step, _, _ in coarse_probes)
        assert len(fine_probes) == 3 and all(step == h for step, _, _ in fine_probes)
        (_, below, _), (_, above, _) = fine_probes[:2]
        assert below == x2 - radial._SEED_HALF_WIDTH, (below, x2)
        assert above == x2 + radial._SEED_HALF_WIDTH, (above, x2)
        assert below < events[end][1] < above
        start = end + 1


@pytest.mark.parametrize("a, scheme, tol_E", [
    (math.inf, HardWall, DEFAULT_TOL_E), (math.inf, Cap, DEFAULT_TOL_E),
    (-1e4, HardWall, DEFAULT_TOL_E), (math.inf, HardWall, 1e-5), (-1e3, Cap, 1e-14),
])
def test_level_solution_is_an_h_grid_solution_next_to_E_h(a, scheme, tol_E, monkeypatch):
    # a level's f, rho and node count come from the search's probe on the k-node
    # end of its h-grid bracket, within ln_tol of E_h, and equal a fresh
    # integration there bit for bit; no level is integrated after its search
    pot = _dimer_potential(a, 1.0, 1e8, 2, scheme(1.0))
    found = _searched_levels(monkeypatch)
    solution = radial._Workspace.solution
    fresh = []
    monkeypatch.setattr(radial._Workspace, "solution",
                        lambda self, E: fresh.append(E) or solution(self, E))
    spec = find_spectrum(pot, 1e8, tol_E=tol_E)
    assert fresh == []
    fine, _ = _per_grid(found)
    assert len(fine) == len(spec) >= 2
    ws = radial._Workspace(pot, 1.0, 1e8, DEFAULT_DT)
    for k, (state, (x, x_sol)) in enumerate(zip(spec.states, fine)):
        assert 0.0 <= x_sol - x <= _reach(_ln_tol(tol_E), x)
        want = solution(ws, -0.5 * math.exp(x_sol) ** 2)
        assert state.node_count == want.node_count == k
        assert state.rho.tobytes() == want.rho.tobytes()
        assert state.f.tobytes() == want.f.tobytes()


@pytest.mark.parametrize("a, scheme, tol_E", [
    (math.inf, HardWall, DEFAULT_TOL_E), (-1e4, Cap, DEFAULT_TOL_E), (math.inf, Cap, 1e-5),
])
def test_count_only_probes_fall_back_to_one_solution_per_level(a, scheme, tol_E, monkeypatch):
    # with every probe count-only, each level is integrated once more at its
    # solution's energy, and the spectrum comes out the same bit for bit
    pot = _dimer_potential(a, 1.0, 1e8, 2, scheme(1.0))
    want = find_spectrum(pot, 1e8, tol_E=tol_E)
    probe, solution = radial._probe, radial._Workspace.solution
    monkeypatch.setattr(radial, "_probe", lambda ws, x, **kwargs: probe(ws, x))
    fresh = []
    monkeypatch.setattr(radial._Workspace, "solution",
                        lambda self, E: fresh.append(E) or solution(self, E))
    got = find_spectrum(pot, 1e8, tol_E=tol_E)
    assert len(fresh) == len(got) == len(want) >= 2
    assert got.total_nodes_at_edge == want.total_nodes_at_edge
    for g, w in zip(got.states, want.states):
        assert (g.E, g.E_error, g.kappa, g.node_count, g.box_limited) == (
            w.E, w.E_error, w.kappa, w.node_count, w.box_limited)
        assert g.rho.tobytes() == w.rho.tobytes() and g.f.tobytes() == w.f.tobytes()


@given(a=st.floats(min_value=-1e5, max_value=-1e2),
       scheme=st.sampled_from([HardWall, Cap]))
@settings(max_examples=16, deadline=None)
def test_dimer_side_levels_lie_below_the_threshold(a, scheme):
    # above -1 / (2 mu a^2) lies the atom-dimer continuum, not a trimer
    pot = _dimer_potential(a, 1.0, 1e8, 2, scheme(1.0))
    spec = find_spectrum(pot, 1e8)
    threshold = -1.0 / (a * a)
    assert spec.threshold == pytest.approx(threshold, rel=1e-15)
    assert len(spec) >= 2
    assert all(s.E < threshold for s in spec.states), (spec.energies, threshold)
    assert [s.node_count for s in spec.states] == list(range(len(spec)))


def test_trimer_count_per_decade_follows_the_channel():
    # each decade of |a| / R adds b ln(10) / pi = 0.7375 trimers below the
    # threshold, to within the one-level staircase
    counts = [len(find_spectrum(_dimer_potential(-r, 1.0, 1e8, 2, HardWall(1.0)), 1e8))
              for r in (1e2, 1e3, 1e4, 1e5)]
    assert counts == [2, 3, 3, 4]
    slope = B * math.log(10.0) / math.pi
    for k, n in enumerate(counts):
        assert abs(n - counts[0] - slope * k) <= 1.0, counts


def test_tail_cutoff_is_converged_next_to_the_threshold(monkeypatch):
    # level 2 at a = -1e3 lies 2.4% below the threshold -1e-6; a cutoff at
    # kappa rho = 36 moved it by 3.2e-6, one at the decay constant leaves a
    # doubled tail factor nothing to move.  The doubled factor halves the
    # step bound to 0.024, so both run at dt = 1/64
    pot = _dimer_potential(-1e3, 1.0, 1e8, 2, HardWall(1.0))
    level = find_spectrum(pot, 1e8, tol_E=1e-13, dt=1.0 / 64.0).states[2].E
    monkeypatch.setattr(radial, "DEFAULT_TAIL_FACTOR", 2.0 * DEFAULT_TAIL_FACTOR)
    longer = find_spectrum(pot, 1e8, tol_E=1e-13, dt=1.0 / 64.0).states[2].E
    assert abs(longer / level - 1.0) <= 1e-10, (level, longer)


def test_threshold_below_the_search_floor_is_refused(monkeypatch):
    # at a = -0.3 the threshold -11.1 lies below the floor -5 / R^2; it is
    # refused before the workspace re-solves nu^2
    pot = _dimer_potential(-0.3, 1.0, 1e4, 2, HardWall(1.0))
    resolves = []
    nu2_at = AdiabaticBranch.nu_squared_at
    monkeypatch.setattr(AdiabaticBranch, "nu_squared_at",
                        lambda self, rho: resolves.append(len(rho)) or nu2_at(self, rho))
    with pytest.raises(ConfigError, match=r"E_thr = -11\.1111 .* floor E = -5 for R = 1"):
        find_spectrum(pot, 1e4)
    assert resolves == []


@pytest.mark.parametrize("a, scheme, levels", [(-2.0, HardWall, 0), (-2.0, Cap, 1),
                                               (-5.0, HardWall, 1)])
@pytest.mark.parametrize("dt", [DEFAULT_DT, 1.0 / 64.0])
def test_threshold_count_carries_no_rounding_nodes(a, scheme, levels, dt):
    # at E = E_thr, nu^2 + kappa^2 rho^2 cancels to what the channel holds above
    # the threshold; summed as is, its rounding error was 8e3 at rho = 1e10 and
    # the march counted 6, 29 and 77 nodes at rho_max = 1e10, 2e10 and 1e11
    # (a = -2, hard wall), against none just below the threshold, so that
    # `spectrum --a=-2 --R 2 --rho-max 2e10` exited 2 on a level that was not
    # there, under a cap and at --dt 0.015625 too
    pot = _dimer_potential(a, 2.0, 1e8, 2, scheme(2.0))
    for rho_max in (1e8, 1e10, 2e10, 1e11):
        ws = radial._Workspace(pot, 2.0, rho_max, dt)
        E_thr = pot.threshold
        counts = [ws.integrate(E)[2] for E in (E_thr, E_thr * (1.0 + 1e-9), E_thr * 1.01)]
        assert counts == [levels] * 3, (rho_max, counts)
        assert len(find_spectrum(pot, rho_max, dt=dt)) == levels


def test_no_trimer_below_the_threshold_gives_no_level():
    # at a = -1, R = 1 the channel binds nothing below the threshold -1
    spec = find_spectrum(_dimer_potential(-1.0, 1.0, 1e8, 2, HardWall(1.0)), 1e8)
    assert len(spec) == 0
    assert spec.threshold == -1.0
    assert spec.total_nodes_at_edge > 0


def _ln_tol(tol_E):
    """The search tolerance in ln kappa for a relative energy tolerance tol_E."""
    return max(0.25 * tol_E, 4.0 * np.finfo(float).eps)


@pytest.mark.parametrize("scheme", [HardWall, Cap])
@pytest.mark.parametrize("a, R, rho_max", [
    (math.inf, 1.0, 1e6), (-1e2, 1.0, 1e6), (-1e4, 1.0, 1e6),
    # the unitarity-tower benchmark shapes, deep towers where every level
    # after the first starts from its predicted probe
    (math.inf, 0.5, 5e7), (math.inf, 2.0, 2e8),
], ids=["inf", "-100.0", "-10000.0", "inf-R0.5", "inf-R2"])
def test_guided_search_matches_plain_bisection(a, R, rho_max, scheme, monkeypatch):
    # plain bisection, integrating every midpoint, ends each level on the deeper
    # edge of a cell ln_tol wide; the guided search ends on the zero of the
    # guide value inside the step, so on each grid it lies in that cell, and
    # inside the count bracket of its own integrations
    branch = tabulate_branch(make_config(a), LogGrid.make(R, rho_max, 64))
    pot = effective_potential(branch, scheme(R))
    fine, coarse, want = _reference_levels(pot, rho_max)
    assert len(want) >= 2
    found = _searched_levels(monkeypatch)
    seen = _integrations(monkeypatch)
    spec = find_spectrum(pot, rho_max)
    ln_tol = _ln_tol(DEFAULT_TOL_E)
    _assert_levels_in_count_brackets(found, seen, spec, ln_tol)
    for levels, reference in zip(_per_grid(found), (fine, coarse)):
        for (x, _), E_ref in zip(levels, reference):
            x_ref = 0.5 * math.log(-2.0 * E_ref)
            assert x_ref - ln_tol - 4.0 * math.ulp(x) <= x <= x_ref, (x, x_ref)
    assert np.allclose(spec.energies, want, rtol=DEFAULT_TOL_E, atol=0.0)


def test_contradicting_counts_fall_back_to_every_midpoint(monkeypatch):
    rho_max = 1e6
    pot = _unitarity_potential(rho_max, HardWall(1.0))
    found = _searched_levels(monkeypatch)
    seen = _integrations(monkeypatch)
    honest = find_spectrum(pot, rho_max)
    honest_calls = len(seen)
    # the first h-grid probe holding one node lies at level 0, deeper than
    # level 1; a false count of two there leaves level 0 as it was but
    # contradicts the seeds of level 1, which must then integrate every midpoint
    h = min(found)
    bad_x = [x for step, x, n in seen if step == h and n == 1][0]
    seen.clear()
    found.clear()
    integrate = radial._Workspace.integrate

    def lying(self, E, *args, **kwargs):
        w, g, count = integrate(self, E, *args, **kwargs)
        return w, g, 2 if self.h == h and 0.5 * math.log(-2.0 * E) == bad_x else count

    monkeypatch.setattr(radial._Workspace, "integrate", lying)
    seen = _integrations(monkeypatch)
    spec = find_spectrum(pot, rho_max)
    assert [s.node_count for s in spec.states] == list(range(len(honest)))
    # every midpoint of the window ends on a cell ln_tol wide around the step
    assert np.allclose(spec.energies, honest.energies, rtol=DEFAULT_TOL_E, atol=0.0)
    assert bad_x in [x for step, x, _ in seen if step == h]
    assert len(seen) > honest_calls + 15


def test_level_missing_from_the_2h_grid_ends_the_spectrum(monkeypatch):
    # the 2h grid reports at most K nodes anywhere, so its search for the last
    # level K finds no point holding more than K, and neither does its one
    # march at the threshold: the spectrum ends at K levels, the others as they were
    pot = _dimer_potential(-1e4, 1.0, 1e8, 2, HardWall(1.0))
    honest = find_spectrum(pot, 1e8)
    K = len(honest) - 1
    assert K >= 2 and math.sqrt(-2.0 * honest.threshold) > 0.03 / 1e8
    integrate = radial._Workspace.integrate
    fine_h = []

    def capped(self, E, *args, **kwargs):
        w, g, count = integrate(self, E, *args, **kwargs)
        return w, g, count if self.h == fine_h[0] else min(count, K)

    seen = _integrations(monkeypatch)
    find_spectrum(pot, 1e8)
    fine_h.append(min(h for h, _, _ in seen))
    monkeypatch.setattr(radial._Workspace, "integrate", capped)
    seen = _integrations(monkeypatch)
    spec = find_spectrum(pot, 1e8)
    assert [(s.E, s.E_error, s.node_count) for s in spec.states] == [
        (s.E, s.E_error, s.node_count) for s in honest.states[:K]]
    x_thr = 0.5 * math.log(-2.0 * honest.threshold)
    on_2h = [(x, c) for h, x, c in seen if h != fine_h[0]]
    assert on_2h[-1] == (x_thr, K)
    assert all(c <= K for _, c in on_2h)


@given(a=st.one_of(st.just(math.inf), st.floats(min_value=-1e5, max_value=-1e2),
                   st.floats(min_value=50.0, max_value=1e4)),
       scheme=st.sampled_from([HardWall, Cap]),
       R=st.floats(min_value=0.5, max_value=2.0),
       decades=st.floats(min_value=6.0, max_value=8.5),
       tol_E=st.sampled_from([1e-6, 1e-10, 1e-14]))
@settings(max_examples=12, deadline=None)
# the 2h search of level 2 halves down to the threshold through points that all
# hold 2 nodes; only the 2h march at the threshold itself holds 3
@example(a=-147.0, scheme=Cap, R=1.3125, decades=6.0, tol_E=1e-06)
def test_levels_lie_in_count_brackets_with_k_node_solutions(a, scheme, R, decades, tol_E):
    # at every tolerance, below the spacing of doubles too, each level lies in
    # the integrated count bracket of each grid and its solution carries k
    # nodes within ln_tol (or a few ulps) of the h level
    rho_max = R * 10.0 ** decades
    pot = _dimer_potential(a, R, rho_max, 2, scheme(R))
    with pytest.MonkeyPatch.context() as mp:
        found = _searched_levels(mp)
        seen = _integrations(mp)
        spec = find_spectrum(pot, rho_max, tol_E=tol_E)
        if len(spec):
            _assert_levels_in_count_brackets(found, seen, spec, _ln_tol(tol_E))
    assert all(s.E < spec.threshold for s in spec.states)


@pytest.mark.parametrize("scheme", [HardWall, Cap])
@pytest.mark.parametrize("a", [math.inf, -1e4])
def test_dt_just_inside_the_stability_bound_still_computes(a, scheme):
    # at dt = 0.048 the 2h grid's Numerov coefficient 1 - (2h)^2 w / 12 is
    # still positive at w = DEFAULT_TAIL_FACTOR^2 + 4; every level and node
    # count of the default step comes out, within 3.3e-10 (cap) of its energy
    pot = _dimer_potential(a, 1.0, 1e8, 2, scheme(1.0))
    default = find_spectrum(pot, 1e8)
    coarse = find_spectrum(pot, 1e8, dt=0.048)
    assert len(default) >= 3
    assert [s.node_count for s in coarse.states] == list(range(len(default)))
    assert np.allclose(coarse.energies, default.energies, rtol=1e-7, atol=0.0)
    with pytest.raises(ConfigError, match=r"^dt must be in \(0, 0\.04804\), got 0\.0481"):
        find_spectrum(pot, 1e8, dt=0.0481)


def test_single_integration_carries_no_error_estimate():
    sol = integrate_radial(_unitarity_potential(1e4, HardWall(1.0)), -1e-3, 1e4)
    assert math.isnan(sol.E_error)


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
