"""Eigenvalue layer checked against a raw complex-arithmetic oracle.

The library evaluates the transcendental function

    F(nu^2) = [-nu cos(nu pi/2) + (8/sqrt 3) sin(nu pi/6)] / sin(nu pi/2)

through rewritten forms (exp/expm1 on the nu^2 < 0 side, argument
reduction and a Taylor patch on the nu^2 > 0 side).  The oracle below
evaluates the formula literally with complex square roots, which is
accurate wherever sin(nu pi/2) is not small, and the root oracle
bisects on it with no shared code.  Expected constants are frozen from
40-digit evaluations of the same formulas.
"""

import cmath
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from efimov_lab import (
    AdiabaticBranch,
    Cap,
    ConfigError,
    GridError,
    HardWall,
    LogGrid,
    PoleError,
    SolverError,
    branch_interval,
    constant_branch,
    effective_potential,
    efimov_constants,
    eigen_lhs,
    make_config,
    solve_branch0,
    solve_branches,
    tabulate_branch,
)
from efimov_lab import hyperangular, radial
from efimov_lab.hyperangular import LHS_AT_ZERO, _flag_near_pole, _lhs, _solve

_EIGHT = 8.0 / math.sqrt(3.0)

# frozen references (40-digit precision, rounded to double)
B_REF = 1.0062378251027815
C_REF = 1.2625145606675758
LHS_ZERO_REF = 0.9029809454714206
LHS_SIXTEEN_REF = -1.40642013128708
ROOTS_AT_X0 = (-1.012514560667576, 19.938856034048226,
               46.49004553340669, 86.94975630411273)


def lhs_oracle(s: float) -> float:
    nu = cmath.sqrt(complex(s, 0.0))
    half = nu * (math.pi / 2.0)
    val = (-nu * cmath.cos(half) + _EIGHT * cmath.sin(nu * math.pi / 6.0)) \
        / cmath.sin(half)
    return val.real


def branch0_oracle(x: float, scan_points: int = 8001) -> float:
    """Root of F(s) = x for s < 4 by dense scan plus bisection."""
    lo = -max(36.0, 1.5 * x * x + 10.0)
    hi = 4.0 - 1e-9
    grid = np.linspace(lo, hi, scan_points)
    vals = np.array([lhs_oracle(s) - x for s in grid])
    sign_flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    assert len(sign_flips) >= 1, f"oracle found no bracket for x = {x}"
    a, b = float(grid[sign_flips[0]]), float(grid[sign_flips[0] + 1])
    fa = lhs_oracle(a) - x
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = lhs_oracle(m) - x
        if fa * fm <= 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _away_from_poles(s: float) -> bool:
    # the raw-formula oracle loses accuracy wherever sin(nu pi/2) is
    # tiny, including the removable point nu = 4 that the library
    # handles by series; keep the comparison where the oracle is sound
    if abs(s) < 1e-6:
        return False
    if s < 3.5:
        return True
    nu = math.sqrt(s)
    return abs(nu - 2 * round(nu / 2.0)) > 0.05


def test_lhs_matches_oracle_on_grid():
    ss = np.concatenate([np.linspace(-450.0, -0.5, 301),
                         np.linspace(-0.49, 3.9, 201),
                         np.linspace(4.2, 140.0, 401)])
    worst = 0.0
    for s in ss:
        if not _away_from_poles(float(s)):
            continue
        got = eigen_lhs(float(s))
        want = lhs_oracle(float(s))
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst < 5e-9, f"worst relative deviation {worst:.3e}"


@given(st.floats(min_value=-400.0, max_value=120.0))
@settings(max_examples=300, deadline=None)
def test_lhs_matches_oracle_property(s):
    if not _away_from_poles(s):
        return
    got = eigen_lhs(s)
    want = lhs_oracle(s)
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_lhs_frozen_values():
    assert eigen_lhs(0.0) == pytest.approx(LHS_ZERO_REF, abs=1e-12)
    assert LHS_AT_ZERO == pytest.approx(LHS_ZERO_REF, abs=1e-15)
    assert eigen_lhs(16.0) == pytest.approx(LHS_SIXTEEN_REF, abs=1e-10)


def test_lhs_deep_negative_asymptote():
    # F(-b^2) -> -b as b grows; exercised far beyond exp underflow
    for b in (50.0, 300.0, 5000.0):
        assert eigen_lhs(-b * b) == pytest.approx(-b, rel=1e-12)


def test_removable_point_is_smooth():
    # the Taylor patch and the direct evaluation must agree across the
    # patch boundary at |nu - 4| = 1e-4 (in s: |s - 16| ~ 8e-4)
    for ds in (2e-4, 8.1e-4, 7.9e-4, -2e-4, -8.1e-4):
        s = 16.0 + ds
        assert eigen_lhs(s) == pytest.approx(lhs_oracle(s), rel=1e-9)
    inside = eigen_lhs(16.0 + 7.99e-4)
    outside = eigen_lhs(16.0 + 8.01e-4)
    assert abs(inside - outside) < 1e-5


def test_nu_zero_is_not_a_pole():
    # like nu = 4, nu = 0 zeroes numerator and denominator together
    for s in (5e-324, 1e-30, 1e-20):
        assert eigen_lhs(s) == pytest.approx(LHS_AT_ZERO, rel=1e-12)
    assert solve_branch0(LHS_AT_ZERO).value == 0.0


@pytest.mark.parametrize("s", [4.0, 36.0, 64.0, 100.0])
def test_true_poles_raise(s):
    with pytest.raises(PoleError):
        eigen_lhs(s)


def test_pole_vicinity_raises_but_sixteen_does_not():
    with pytest.raises(PoleError):
        eigen_lhs(36.0 + 1e-26)
    assert math.isfinite(eigen_lhs(16.0))


def test_constants_frozen_and_consistent():
    c = efimov_constants(tol=1e-12)
    assert c.b == pytest.approx(B_REF, abs=1e-12)
    assert c.C == pytest.approx(C_REF, abs=1e-12)
    assert abs(c.C - (c.b * c.b + 0.25)) < 1e-12
    assert c.residual <= 1e-12
    # defining equation: F(-b^2) = 0
    assert lhs_oracle(-c.b * c.b) == pytest.approx(0.0, abs=1e-12)


def test_branch0_frozen_at_x0():
    root = solve_branch0(0.0)
    assert root.value == pytest.approx(ROOTS_AT_X0[0], abs=1e-10)
    assert root.branch_index == 0
    assert root.lam == pytest.approx(root.value - 4.0)
    assert not root.near_pole
    # consistency with the strength constant: nu^2(x=0) = -(C - 1/4)
    c = efimov_constants()
    assert root.value == pytest.approx(-(c.C - 0.25), abs=1e-10)


@pytest.mark.parametrize("x", [-30.0, -3.0, -0.2, 0.5, 7.0, 120.0])
def test_branch0_matches_root_oracle(x):
    got = solve_branch0(x).value
    want = branch0_oracle(x)
    assert abs(got - want) <= 1e-9


def test_branch0_dimer_asymptote():
    x = -200.0
    s = solve_branch0(x).value
    assert abs(s + x * x) < 1e-6 * x * x


def test_branch0_three_atom_threshold():
    s = solve_branch0(1e6).value
    assert 0.0 < 4.0 - s < 1e-4


@given(st.floats(min_value=-100.0, max_value=100.0),
       st.floats(min_value=-100.0, max_value=100.0))
@settings(max_examples=80, deadline=None)
def test_branch0_monotone_in_x(x1, x2):
    lo, hi = sorted((x1, x2))
    if hi - lo < 1e-6:
        return  # below root resolution, ordering is not meaningful
    assert solve_branch0(lo).value < solve_branch0(hi).value


def test_branch0_residual_within_tol():
    for x in (-17.0, 0.0, 9.5):
        root = solve_branch0(x)
        assert root.residual <= 1e-11


def test_branches_frozen_at_x0():
    roots = solve_branches(0.0, 4)
    got = [r.value for r in roots]
    assert got == pytest.approx(list(ROOTS_AT_X0), abs=1e-9)
    assert [r.branch_index for r in roots] == [0, 1, 2, 3]


@pytest.mark.parametrize("x", [-7.3, 0.0, 12.5])
def test_branches_live_in_their_intervals(x):
    roots = solve_branches(x, 5)
    assert len(roots) == 5
    for r in roots[1:]:
        nu_lo, nu_hi = branch_interval(r.branch_index)
        nu = math.sqrt(r.value)
        assert nu_lo < nu < nu_hi
        assert r.residual <= 1e-10
    assert roots[0].value < 4.0


def test_branch_interval_layout():
    assert branch_interval(0) == (0.0, 2.0)
    assert branch_interval(1) == (2.0, 6.0)
    assert branch_interval(2) == (6.0, 8.0)
    assert branch_interval(5) == (12.0, 14.0)
    with pytest.raises(ValueError):
        branch_interval(-1)


def test_near_pole_flag_logic():
    assert _flag_near_pole(36.0 + 1e-9)          # nu just above 6
    assert _flag_near_pole((2.0 + 1e-9) ** 2)    # nu just above 2
    assert not _flag_near_pole(16.0 + 1e-9)      # removable point
    assert not _flag_near_pole(-1.0)
    assert not _flag_near_pole(25.0)


def test_solve_branches_count_validation():
    with pytest.raises(ConfigError):
        solve_branches(0.0, 0)


def test_bracket_expansion_failure_is_reported():
    with pytest.raises(ConfigError):
        solve_branch0(float("nan"))


def test_tabulate_matches_pointwise_solutions():
    cfg = make_config(-2.0)
    grid = LogGrid.make(0.05, 40.0, 50)
    branch = tabulate_branch(cfg, grid)
    for rho, s in zip(grid.values, branch.nu_squared):
        expected = solve_branch0(cfg.x_of_rho(float(rho))).value
        assert s == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("a", [3.3, -2.0])
def test_tabulate_equals_pointwise_solve_exactly(a):
    # a = 3.3 drives the root steeply toward the nu^2 = 4 pole
    cfg = make_config(a)
    grid = LogGrid.make(0.01, 1e4, 230)
    branch = tabulate_branch(cfg, grid)
    want = [solve_branch0(cfg.x_of_rho(float(rho))).value for rho in grid.values]
    assert branch.nu_squared.tolist() == want


def _log_radii(points):
    """`points` radii from 1 to 1e8, uniform in ln rho."""
    T = math.log(1e8)
    return np.exp((T / (points - 1)) * np.arange(points))


# the workspace grid at R = 1, rho_max = 1e8 and a step of 1/128
GRID_1_128 = 2359


def test_potential_is_finite_wherever_representable():
    # 2 rho^2 is not a normal double below rho ~ 1e-154 or above ~ 1e154; there
    # (nu^2 - 1/4) / (2 rho^2) is taken one factor of rho at a time
    mpmath = pytest.importorskip("mpmath")
    pot = tabulate_branch(make_config(math.inf), LogGrid.make(1e-3, 1e3, 2))
    rho = np.array([6e-155, 1e-152, 1.0, 1e152, 1e160, 1e200])
    nu2 = pot.nu_squared_at(1.0)
    want = [float((mpmath.mpf(nu2) - 0.25) / (2 * mpmath.mpf(r) ** 2)) for r in rho]
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got = pot.v_eff(rho)
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)
    with pytest.raises(ConfigError, match=r"^v_eff = \(nu\^2 - 1/4\) / \(2 rho\^2\) overflows "
                                          r"at rho = 5e-155"):
        pot.v_eff(np.array([1.0, 5e-155]))


def test_workspace_resolve_equals_pointwise_solve_exactly():
    # the radial workspace re-solves nu^2 at each of its radii in one array
    # call; checked on the 1/128 grid and on the radii of a workspace at
    # dt = 1/64, which holds more than 1,000 of them
    cfg = make_config(-1e4)
    branch = tabulate_branch(cfg, LogGrid.make(1.0, 1e8, 512))
    ws = radial._Workspace(effective_potential(branch, HardWall(1.0)), 1.0, 1e8, 1.0 / 64.0)
    rho_1_128 = _log_radii(GRID_1_128)
    for rho, got in ((rho_1_128, branch.nu_squared_at(rho_1_128)), (ws.rho, ws.nu2)):
        n = len(rho)
        assert n > 1000
        picks = np.r_[0:n:10, n - 1]
        want = [solve_branch0(cfg.x_of_rho(float(rho[i]))).value for i in picks]
        assert got[picks].tolist() == want


def _sign_changes(x, branch_index, points):
    """Grid nu and the indices where the raw F(nu^2) - x changes sign
    strictly inside the interval of a branch k >= 1."""
    nu_lo, nu_hi = branch_interval(branch_index)
    nu = np.linspace(nu_lo, nu_hi, points + 2)[1:-1]
    # the raw formula is 0/0 at the removable point nu = 4
    nu = nu[np.abs(nu - 4.0) > 1e-3]
    half = nu * (math.pi / 2.0)
    raw = (-nu * np.cos(half) + _EIGHT * np.sin(nu * math.pi / 6.0)) / np.sin(half)
    above = raw > x
    return nu, np.flatnonzero(above[1:] != above[:-1])


def _check_one_root_per_interval(x, points):
    roots = solve_branches(x, 8)
    for k in range(1, 8):
        nu, flips = _sign_changes(x, k, points)
        assert len(flips) == 1, f"branch {k} at x = {x}: {len(flips)} sign changes"
        i = flips[0]
        assert nu[i] <= math.sqrt(roots[k].value) <= nu[i + 1]


@pytest.mark.parametrize("x", [-1e3, -30.0, -1.4064, 0.0, 0.9, 30.0, 1e3])
def test_branches_one_sign_change_per_interval_dense(x):
    _check_one_root_per_interval(x, 20001)


@given(st.floats(min_value=-1e3, max_value=1e3))
@settings(max_examples=40, deadline=None)
def test_branches_one_sign_change_per_interval_property(x):
    _check_one_root_per_interval(x, 4001)


def _two_ulps_around(s):
    """s and the two doubles on either side of it."""
    below = np.nextafter(s, -np.inf)
    above = np.nextafter(s, np.inf)
    return [float(v) for v in (np.nextafter(below, -np.inf), below, s,
                               above, np.nextafter(above, np.inf))]


@given(st.floats(min_value=-1e3, max_value=1e3))
@settings(max_examples=40, deadline=None)
def test_every_root_has_a_sign_change_within_two_ulps(x):
    # the root search ends on adjacent doubles around the sign change and
    # returns one of them
    for r in solve_branches(x, 8):
        vals = [eigen_lhs(s) - x for s in _two_ulps_around(r.value)]
        assert min(vals) <= 0.0 <= max(vals), f"branch {r.branch_index} at x = {x!r}"


def _ulps(a, b):
    """How many doubles apart a and b are; 0 when equal."""
    ia, ib = (int(np.array(v, dtype=float).view(np.int64)) for v in (a, b))
    ia, ib = (i if i >= 0 else -(1 << 63) - i for i in (ia, ib))
    return abs(ia - ib)


def _plain_bisection_branch0(x):
    """Reference branch-0 root below s = 0: double the lower end from -1,
    down to the most negative double at most, halve [lo, 0] down to
    adjacent doubles, keep the end with the smaller |F - x|, then the best
    of it and its neighbours."""
    def f(s):
        return eigen_lhs(s) - x
    lo, hi = -1.0, 0.0
    while f(lo) > 0.0:
        lo = max(2.0 * lo, -sys.float_info.max)
    flo, fhi = f(lo), f(hi)
    while flo != 0.0 and fhi != 0.0:
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:
            break
        fm = f(mid)
        if fm <= 0.0:
            lo, flo = mid, fm
        if fm >= 0.0:
            hi, fhi = mid, fm
    root = lo if abs(flo) <= abs(fhi) else hi
    near = (root, math.nextafter(root, -math.inf), math.nextafter(root, math.inf))
    return min((s for s in near if math.isfinite(s)), key=lambda s: abs(f(s)))


def _log_uniform(lo, hi):
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


# out to x = 1e11 the ends of branches 0-2 step toward their poles
_X_WIDE = st.one_of(_log_uniform(1e-6, 1e12).map(lambda v: -v),
                    _log_uniform(1e-6, 1e11), st.just(0.0))


@given(st.lists(st.tuples(_X_WIDE, st.integers(0, 2)), min_size=1, max_size=12),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("ignore:root nu")
def test_illinois_roots_against_plain_bisection(cases, rng):
    xs = np.array([x for x, _ in cases])
    ks = np.array([k for _, k in cases])
    order = list(range(len(cases)))
    rng.shuffle(order)
    batch, batch_res = _solve(xs[order], ks[order])
    for j, i in enumerate(order):
        x, k = cases[i]
        one, one_res = _solve(xs[i:i + 1], ks[i:i + 1])
        # no root depends on the rest of its batch
        assert batch[j].tobytes() == one[0].tobytes(), (x, k)
        s = float(one[0])
        vals = [eigen_lhs(v) - x for v in _two_ulps_around(s)]
        assert min(vals) <= 0.0 <= max(vals), f"branch {k} at x = {x!r}"
        # the residual is the root search's own closing value
        assert batch_res[j] == one_res[0] == abs(eigen_lhs(s) - x) / max(1.0, abs(x)), (x, k)
        if k == 0 and x < 0.0:
            assert _ulps(s, _plain_bisection_branch0(x)) <= 8, x


def test_branch0_first_bracket_holds():
    # the lower end -(|x| + 3)^2 rests on lhs(-b^2) <= -b + 0.3, b >= 3
    b = np.concatenate([np.linspace(3.0, 50.0, 2001), np.logspace(1.7, 154.0, 2001)])
    assert np.all(_lhs(-b * b) <= -b + 0.3)


# the most negative x whose branch-0 bound -(|x| + 3)^2 is still a double
X_EDGE = -1.3407807929942596e154

# branch-0 roots at x < 0 walk from Newton's landing: both ends of the range,
# x around -0.6, where hypot(x, b_u) alone lies furthest from the root, and
# around -2.5, where the start max(hypot(x, b_u), b_u - x / L1) does; two x
# whose walk to the sign change took 6 and 7 steps after four Newton steps, and
# two that take 6 and 7 after three (no x of 200,001 log-spaced in
# -[5e-324, 1.3e154] takes more than 7); and one whose two ends have the same
# |f|, where the lower is kept
X_DIMER = [-5e-324, -1e-300, -1e-6, -0.5, -0.6449113198681055, -2.4931591360210485, -3.0,
           -40.0, -1e12, X_EDGE, -1.4451533715040548, -0.388269351103592,
           -4.008624456619772, -3.764857434030006, -0.03951061212048244]


def test_branch0_start_is_the_tangent_at_unitarity():
    # L1 = -d lhs(-b^2) / db at b_u, where lhs = 0, from the closed-form slope of
    # `_lhs_negative`, against mpmath's derivative of the scaled form
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40

    def scaled(b):
        e, e3 = mpmath.exp(-mpmath.pi * b), mpmath.exp(-mpmath.pi * b / 3)
        return (-b * (1 + e) + 8 / mpmath.sqrt(3) * e3 * (1 - e3)) / (1 - e)

    b_u = mpmath.mpf(hyperangular._B_UNITARITY)
    assert abs(scaled(b_u)) < 1e-15
    assert hyperangular._L1 == pytest.approx(float(-mpmath.diff(scaled, b_u)), rel=1e-14)
    assert hyperangular._L1 == 1.4816928375603087


def _scaled_form(b):
    """lhs(-b^2) and its slope in b as the scaled form is written: em = 1 - e^{-pi b},
    the divide guarded at em = 0."""
    k = 8.0 / math.sqrt(3.0)
    pb = np.pi * b
    em = -np.expm1(-pb)
    em3 = -np.expm1(-pb / 3.0)
    e3 = np.exp(-pb / 3.0)
    num = -b * (2.0 - em) + k * e3 * em3
    lhs = np.divide(num, em, out=np.full(np.shape(num), LHS_AT_ZERO), where=em != 0.0)
    e = 1.0 - em
    dnum = pb * e - (1.0 + e) + (np.pi / 3.0) * k * e3 * (2.0 * e3 - 1.0)
    return lhs, (dnum - np.pi * e * lhs) / em


@pytest.mark.parametrize("b", [np.geomspace(hyperangular._B_UNITARITY, 1e150, 200_001),
                               np.linspace(0.25, 4.0, 100_001)], ids=["b_u-1e150", "0.25-4"])
def test_lhs_negative_is_the_scaled_form_bit_for_bit(b):
    # `_lhs_negative` carries expm1(-pi b) and expm1(-pi b / 3) with their signs
    # folded in; value and slope must be the written form's to the last bit,
    # the +0.0 at b_u, where the value vanishes, included
    want, want_slope = _scaled_form(b)
    lhs, slope = hyperangular._lhs_negative(b, slope=True)
    assert lhs.tobytes() == want.tobytes()
    assert slope.tobytes() == want_slope.tobytes()
    assert hyperangular._lhs_negative(b).tobytes() == want.tobytes()
    if b[0] == hyperangular._B_UNITARITY:
        assert lhs[0] == 0.0 and not np.signbit(lhs[0])


@pytest.mark.parametrize("s", [-5e-324, -1e-300, -1e-200])
def test_lhs_at_the_least_negative_doubles_needs_no_guard(s):
    # b = sqrt(-s) >= 2.2e-162 for every negative double s, so 1 - e^{-pi b}
    # never rounds to 0 and `_lhs_negative` divides by it unguarded
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = _lhs(np.array([s]))
    assert np.isfinite(value).all()
    assert value.tobytes() == _scaled_form(np.sqrt(-np.array([s])))[0].tobytes()
    assert value[0] == pytest.approx(LHS_AT_ZERO, rel=1e-14)


def test_x_edge_is_the_last_finite_bound():
    with np.errstate(over="ignore"):
        assert np.isfinite(-(np.abs(np.float64(X_EDGE)) + 3.0) ** 2)
        assert np.isinf(-(np.abs(np.nextafter(X_EDGE, -np.inf)) + 3.0) ** 2)


def _check_dimer_root(x, batch_x):
    """x's walk from Newton's landing ends within `_WALK_STEPS` on the end of a
    sign change with the smaller |f|, and x's root is the one it has in a batch
    with `batch_x`, within 8 ulps of plain bisection."""
    xs = np.array([x, *batch_x])
    k = np.zeros(xs.size, dtype=int)

    def f(s, idx):
        return _lhs(s) - xs[idx]

    roots, closing, is_open = hyperangular._dimer_roots(f, xs, np.arange(xs.size))
    assert not is_open.any(), x
    batch, batch_res = _solve(xs, k)
    assert batch.tobytes() == roots.tobytes(), x
    assert batch_res.tobytes() == (closing / np.maximum(1.0, np.abs(xs))).tobytes(), x
    one, _ = _solve(xs[:1], k[:1])
    assert batch[0].tobytes() == one[0].tobytes(), x
    s = float(one[0])
    fs = eigen_lhs(s) - x
    assert closing[0] == abs(fs), x
    # f changes sign between s and a neighbour whose |f| is larger, or the same
    # with the neighbour above s
    near = [v for v in (math.nextafter(s, -math.inf), math.nextafter(s, math.inf))
            if math.isfinite(v)]
    assert any(min(fs, fv) <= 0.0 <= max(fs, fv)
               and (abs(fv) > abs(fs) or abs(fv) == abs(fs) and v > s)
               for v, fv in ((v, eigen_lhs(v) - x) for v in near)), x
    assert _ulps(s, _plain_bisection_branch0(x)) <= 8, x


@pytest.mark.parametrize("x", X_DIMER)
def test_branch0_newton_bracket_fixed_cases(x):
    _check_dimer_root(x, [v for v in X_DIMER if v != x])


@given(_log_uniform(5e-324, 1.3e154).map(lambda v: -v))
@settings(max_examples=80, deadline=None)
def test_branch0_newton_bracket_property(x):
    _check_dimer_root(x, X_DIMER)


def test_x0_root_keeps_its_bits():
    # x = 0 keeps the bracket [-9, 0]: every unitarity spectrum reads this root,
    # and branches_x0.csv prints its residual as 0
    want = "-0x1.0334277cca821p+0"
    for x in (0.0, -0.0):
        root = solve_branch0(x)
        assert root.value.hex() == want and root.residual == 0.0, x
    assert hyperangular._unitarity_root(0).hex() == want


def _count_newton_steps(monkeypatch, sizes):
    """Append the batch size of every Newton step to `sizes`."""
    lhs_negative = hyperangular._lhs_negative

    def counted(b, slope=False):
        if slope:
            sizes.append(b.size)
        return lhs_negative(b, slope)

    monkeypatch.setattr(hyperangular, "_lhs_negative", counted)


def test_overflow_is_refused_before_any_newton_step(monkeypatch):
    newton = []
    _count_newton_steps(monkeypatch, newton)
    with pytest.raises(ConfigError, match="too large in magnitude"):
        _solve(np.array([-1.0, -1e200]), np.zeros(2, dtype=int))
    assert newton == []
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "efimov_lab",
                           "branches", "--x", "-1e200", "--count", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == ("efimov-lab: error: x = -9.9999999999999997e+199 is too large "
                           "in magnitude: its branch-0 root nu^2 ~ -x^2 overflows a double\n")


def test_walk_left_open_ends_in_the_generic_bracket(monkeypatch):
    # Newton's landing pushed 1e-9 off, thousands of doubles from the root:
    # the walk gives up after _WALK_STEPS and [-(|x| + 3)^2, 0] takes over
    # with the same contract, while the other elements keep their walked roots
    xs = np.array([-1e-6, -3.0, -40.0, -1e12, -0.0424424064429568])
    k = np.zeros(xs.size, dtype=int)
    walked, walked_res = _solve(xs, k)
    branch0_b = hyperangular._branch0_b
    monkeypatch.setattr(hyperangular, "_branch0_b",
                        lambda x: branch0_b(x) * np.where(x == -3.0, 1.0 + 1e-9, 1.0))
    narrowed = []
    bracketed = hyperangular.bracketed_roots
    monkeypatch.setattr(hyperangular, "bracketed_roots",
                        lambda f, *ends: narrowed.append(ends[0].size) or bracketed(f, *ends))
    got, got_res = _solve(xs, k)
    assert narrowed == [xs.size]
    keep = xs != -3.0
    assert got[keep].tobytes() == walked[keep].tobytes()
    assert got_res[keep].tobytes() == walked_res[keep].tobytes()
    s = float(got[1])
    vals = [eigen_lhs(v) - xs[1] for v in _two_ulps_around(s)]
    assert min(vals) <= 0.0 <= max(vals)
    assert got_res[1] == abs(eigen_lhs(s) - xs[1]) / 3.0
    assert _ulps(s, _plain_bisection_branch0(-3.0)) <= 8
    alone, alone_res = _solve(xs[1:2], k[1:2])
    assert alone.tobytes() == got[1:2].tobytes() and alone_res.tobytes() == got_res[1:2].tobytes()


@pytest.mark.parametrize("x", [-40.0, -0.0424424064429568])
def test_mixed_batch_matches_each_element_alone(x, monkeypatch):
    # solve_branches at x < 0 walks branch 0 and brackets branches 1-3 in one
    # batch; no root or residual depends on the others.  At the second x the
    # bracket [-(|x| + 3)^2, 0] would end on another sign change than the walk.
    # The walked element takes no bracket, so f is never evaluated at its end
    evaluated = []
    lhs = hyperangular._lhs
    monkeypatch.setattr(hyperangular, "_lhs", lambda s: evaluated.extend(s.tolist()) or lhs(s))
    batch, batch_res = _solve(np.full(4, x), np.arange(4))
    assert -(abs(x) + 3.0) ** 2 not in evaluated
    for k in range(4):
        one, one_res = _solve(np.array([x]), np.array([k]))
        assert batch[k].tobytes() == one[0].tobytes(), k
        assert batch_res[k].tobytes() == one_res[0].tobytes(), k
    assert [r.value for r in solve_branches(x, 4)] == batch.tolist()


def test_nan_on_the_walk_raises_naming_its_element(monkeypatch):
    # the eigenvalue function made NaN at Newton's landing for x = -0.5 alone,
    # then at the two doubles next to it, one of which the walk takes first
    b = float(hyperangular._branch0_b(np.array([-0.5]))[0])
    landing = -(b * b)
    lhs = hyperangular._lhs
    neighbours = [math.nextafter(landing, -math.inf), math.nextafter(landing, math.inf)]
    for bad in ([landing], neighbours):
        monkeypatch.setattr(hyperangular, "_lhs",
                            lambda s, bad=bad: np.where(np.isin(s, bad), np.nan, lhs(s)))
        with pytest.raises(SolverError, match=r"^the function of element 2 is NaN at -1\."
                           ) as info:
            _solve(np.array([-1.0, 2.0, -0.5, -40.0]), np.array([0, 0, 0, 1]))
        assert info.value.index == 2
        # x = -rho at a = -1 and mu = 1
        branch = tabulate_branch(make_config(-1.0, mu=1.0), LogGrid.make(1.0, 2.0, 2))
        with pytest.raises(SolverError, match=r"^branch 0 root failed at rho = 0.5: the "
                                              r"function of element 1 is NaN"):
            branch.nu_squared_at(np.array([1.0, 0.5, 5.0]))


def test_nan_landing_raises_naming_its_element(monkeypatch):
    # a NaN in s, not in f: Newton's landing made NaN for x = -0.5 alone.  The
    # eigenvalue function is NaN there too, where it once read LHS_AT_ZERO and
    # let the walk step on from NaN
    assert np.isnan(hyperangular._lhs(np.array([np.nan, 0.0, -1.0, 1.0]))).tolist() == [
        True, False, False, False]
    branch0_b = hyperangular._branch0_b
    monkeypatch.setattr(hyperangular, "_branch0_b",
                        lambda x: np.where(x == -0.5, np.nan, branch0_b(x)))
    with pytest.raises(SolverError, match=r"^the function of element 2 is NaN at nan") as info:
        _solve(np.array([-1.0, 2.0, -0.5, -40.0]), np.array([0, 0, 0, 1]))
    assert info.value.index == 2


@pytest.mark.parametrize("a", [-1e4, 3.3])
def test_workspace_resolve_evaluation_budget(a, monkeypatch):
    # evaluations of the eigenvalue function, each Newton step counted as one.
    # At a = -1e4 every root takes 4 Newton steps and walks from their landing
    # to its sign change: 5.86 per point on the 2,359-point grid of a 1/128
    # step (13.8k) and 5.87 on the 591 points of the default workspace (3.5k).
    # Narrowing a bracket 2 ulps either side of the landing took 10.0 and 11.0
    # (23.7k and 6.5k).  At a = 3.3 the lower end is 4 - 48 / (pi x) and
    # finished elements leave the batch at once: 11.4 per point on both grids
    # (26.9k and 6.8k), where keeping them while fewer than 1,024 others
    # remained took 14.3 and 18.1.  Plain bisection from a doubled bracket
    # takes about 66.  Each bound allows one more pass over the batch than
    # measured
    per_point, per_point_ws = {-1e4: (7, 7), 3.3: (13, 13)}[a]
    cfg = make_config(a)
    branch = tabulate_branch(cfg, LogGrid.make(1.0, 1e8, 2))
    evaluated = []
    lhs = hyperangular._lhs
    monkeypatch.setattr(hyperangular, "_lhs",
                        lambda s: evaluated.append(s.size) or lhs(s))
    _count_newton_steps(monkeypatch, evaluated)
    branch.nu_squared_at(_log_radii(GRID_1_128))
    assert sum(evaluated) <= per_point * GRID_1_128
    evaluated.clear()
    ws = radial._Workspace(effective_potential(branch, HardWall(1.0)), 1.0, 1e8,
                           radial.DEFAULT_DT)
    assert sum(evaluated) <= per_point_ws * ws.n_full


def test_table_at_the_pole_floor_names_the_radius():
    # for a > 0 the branch-0 root closes on nu^2 = 4 as x grows, and past
    # x ~ 1e12 double precision can no longer separate the two
    cfg = make_config(1e-12)
    grid = LogGrid.make(0.01, 100.0, 41)
    first_bad = None
    for rho in grid.values:
        try:
            solve_branch0(cfg.x_of_rho(float(rho)))
        except SolverError:
            first_bad = float(rho)
            break
    assert first_bad is not None and first_bad > grid.values[0]
    named = re.escape(f"rho = {first_bad:.12g}:")
    with pytest.raises(SolverError, match=named):
        tabulate_branch(cfg, grid)
    good = tabulate_branch(cfg, LogGrid.make(0.01, grid.values[1], 4))
    with pytest.raises(SolverError, match=named):
        good.nu_squared_at(grid.values)


def test_tabulate_unitarity_is_constant():
    cfg = make_config(float("inf"))
    grid = LogGrid.make(1.0, 1e8, 64)
    branch = tabulate_branch(cfg, grid)
    assert np.all(branch.nu_squared == branch.nu_squared[0])
    assert branch.nu_squared[0] == pytest.approx(-(B_REF ** 2), abs=1e-10)
    assert branch.nu_squared_at(123.456) == pytest.approx(-(B_REF ** 2), abs=1e-10)


def test_unitarity_root_is_solved_once_per_branch(monkeypatch):
    # at unitarity x = 0 at every radius, so tabulate_branch takes nu^2 from a
    # memo of one x = 0 solve per branch
    cfg = make_config(float("inf"))
    tabulate_branch(cfg, LogGrid.make(1.0, 1e8, 64))
    calls = []

    def counted(x, k):
        calls.append(x.size)
        return _solve(x, k)

    monkeypatch.setattr(hyperangular, "_solve", counted)
    branch = tabulate_branch(make_config(float("inf"), mu=2.0), LogGrid.make(0.5, 3.0, 7))
    assert calls == []
    monkeypatch.undo()
    for k in range(4):
        fresh = _solve(np.zeros(1), np.array([k]))[0][0]
        assert hyperangular._unitarity_root(k) == fresh
        assert tabulate_branch(cfg, LogGrid.make(1.0, 2.0, 3), k).nu_squared.tolist() == [fresh] * 3
    assert branch.nu_squared[0] == hyperangular._unitarity_root(0)


def test_branch_evaluation_between_grid_points():
    cfg = make_config(-5.0)
    grid = LogGrid.make(0.1, 100.0, 40)
    branch = tabulate_branch(cfg, grid)
    rho = 2.34567  # not a grid point
    expected = solve_branch0(cfg.x_of_rho(rho)).value
    assert branch.nu_squared_at(rho) == pytest.approx(expected, abs=1e-10)


def test_constant_branch_interpolates_without_config():
    grid = LogGrid.make(1.0, 100.0, 11)
    branch = constant_branch(-4.2, grid)
    assert branch.nu_squared_at(7.7) == pytest.approx(-4.2)
    arr = branch.nu_squared_at(np.array([2.0, 50.0]))
    assert np.allclose(arr, -4.2)


def test_branch_without_config_must_be_constant():
    grid = LogGrid.make(1.0, 100.0, 3)
    with pytest.raises(ConfigError, match="one constant"):
        AdiabaticBranch(grid=grid, nu_squared=np.array([-1.0, -0.5, 0.0]),
                        branch_index=0)


def test_effective_potential_formula_and_table():
    cfg = make_config(float("inf"))
    grid = LogGrid.make(1.0, 1e3, 30)
    branch = tabulate_branch(cfg, grid)
    pot = effective_potential(branch, None)
    tbl = pot.table()
    assert list(tbl) == ["rho", "x", "nu_squared", "lambda", "v_eff"]
    v_expected = (tbl["nu_squared"] - 0.25) / (2.0 * tbl["rho"] ** 2)
    assert np.allclose(tbl["v_eff"], v_expected, rtol=1e-14)
    assert np.allclose(tbl["lambda"], tbl["nu_squared"] - 4.0, rtol=0, atol=0)
    assert np.allclose(2.0 * tbl["v_eff"] * tbl["rho"] ** 2, -C_REF, rtol=1e-9)


def test_threshold_is_the_atom_dimer_threshold_on_branch_0_only():
    # nu^2 -> -x^2 = -rho^2 / (mu a^2) on branch 0 for a < 0, so the continuum
    # starts at E = -1 / (2 mu a^2); every other channel's starts at 0
    grid = LogGrid.make(1.0, 10.0, 2)
    assert tabulate_branch(make_config(-1e4), grid).threshold == pytest.approx(-1e-8, rel=1e-15)
    assert tabulate_branch(make_config(-10.0, mu=2.0), grid).threshold == pytest.approx(
        -1.0 / 400.0, rel=1e-15)
    dimer = effective_potential(tabulate_branch(make_config(-3.0), grid), HardWall(1.0))
    assert dimer.threshold == pytest.approx(-1.0 / 9.0, rel=1e-15)
    for branch in (tabulate_branch(make_config(-3.0), grid, 1),
                   tabulate_branch(make_config(3.0), grid),
                   tabulate_branch(make_config(-math.inf), grid),
                   tabulate_branch(make_config(math.inf), grid),
                   constant_branch(-1.0, grid)):
        assert branch.threshold == 0.0 and math.copysign(1.0, branch.threshold) == 1.0


def test_hardwall_and_cap_masks():
    cfg = make_config(float("inf"))
    grid = LogGrid.make(0.25, 100.0, 40)
    branch = tabulate_branch(cfg, grid)
    wall = effective_potential(branch, HardWall(1.0))
    capped = effective_potential(branch, Cap(1.0))
    inside, outside = 0.5, 2.0
    assert wall.v_eff(inside) == math.inf
    assert math.isfinite(wall.v_eff(outside))
    assert capped.v_eff(inside) == pytest.approx(capped.v_eff(1.0))
    assert capped.v_eff(outside) == pytest.approx(wall.v_eff(outside))
    assert isinstance(wall, AdiabaticBranch)


def test_effective_potential_is_the_branch_sharing_its_table():
    branch = tabulate_branch(make_config(-2.5), LogGrid.make(0.1, 100.0, 50))
    for scheme in (None, HardWall(1.0), Cap(1.0)):
        pot = effective_potential(branch, scheme)
        assert isinstance(pot, AdiabaticBranch)
        assert pot.nu_squared is branch.nu_squared
        assert pot.scheme is scheme
        assert pot.R == (None if scheme is None else scheme.R)
    assert branch.scheme is None


@pytest.mark.parametrize("scheme, sizes", [(None, []), (HardWall(1.0), []),
                                            (Cap(1.0), [1])],
                         ids=["bare", "hardwall", "cap"])
def test_table_reads_the_tabulated_nu_squared(scheme, sizes, monkeypatch):
    # the table solves no root the branch already holds; a cap with
    # points below R solves one more, at R
    pot = effective_potential(
        tabulate_branch(make_config(-2.5), LogGrid.make(0.1, 100.0, 2000)), scheme)
    calls = []

    def counted(x, k):
        calls.append(x.size)
        return _solve(x, k)

    monkeypatch.setattr(hyperangular, "_solve", counted)
    pot.table()
    assert calls == sizes


@pytest.mark.parametrize("a", [-2.5, 3.3, math.inf])
@pytest.mark.parametrize("scheme", [None, HardWall(1.0), Cap(1.0), Cap(0.05)],
                         ids=["bare", "hardwall", "cap", "cap-below-grid"])
def test_table_v_eff_is_v_eff_bit_for_bit(a, scheme):
    pot = effective_potential(
        tabulate_branch(make_config(a), LogGrid.make(0.1, 100.0, 300)), scheme)
    tbl = pot.table()
    assert np.array_equal(tbl["v_eff"], pot.v_eff(tbl["rho"]))
    if scheme is not None:
        inside = tbl["v_eff"][tbl["rho"] < scheme.R]
        assert np.all(inside == (math.inf if isinstance(scheme, HardWall)
                                 else pot.v_eff(scheme.R)))


def test_scheme_validation():
    with pytest.raises(ConfigError):
        HardWall(0.0)
    with pytest.raises(ConfigError):
        Cap(-1.0)
    cfg = make_config(float("inf"))
    grid = LogGrid.make(1.0, 10.0, 5)
    branch = tabulate_branch(cfg, grid)
    with pytest.raises((ConfigError, GridError)):
        effective_potential(branch, HardWall(50.0))


def test_tabulate_through_steep_positive_a_region():
    # continuation on a > 0 drives the root toward the nu^2 = 4 pole;
    # bracket expansion must stay clear of the pole guard while doing so
    cfg = make_config(3.3)
    grid = LogGrid.make(0.01, 100.0, 60)
    branch = tabulate_branch(cfg, grid)
    assert np.all(branch.nu_squared < 4.0)
    assert np.all(np.diff(branch.nu_squared) > 0.0)
    tail = solve_branch0(cfg.x_of_rho(grid.values[-1]))
    assert branch.nu_squared[-1] == pytest.approx(tail.value, abs=5e-15)


def test_branch0_threshold_asymptote_at_huge_x():
    # 4 - nu^2 -> 48 / (pi x); the plain residual is unattainable there
    # (the slope grows like x^2) but the root stays machine-accurate
    for x in (1e6, 1e9, 1e11):
        r = solve_branch0(x)
        assert r.value < 4.0
        assert (4.0 - r.value) * math.pi * x / 48.0 == pytest.approx(
            1.0, rel=1e-5)
    assert solve_branch0(1e9).near_pole


def test_branch0_unresolvable_against_pole():
    from efimov_lab import SolverError
    with pytest.raises(SolverError):
        solve_branch0(1e13)


@pytest.mark.parametrize("k, pole", [(0, 2.0), (1, 2.0), (1, 6.0), (2, 6.0), (2, 8.0)])
@pytest.mark.filterwarnings("ignore:root nu")
def test_one_pole_floor_on_every_branch(k, pole):
    # every bracket end stops 1e-11 in nu^2 short of the pole it approaches
    side = 1.0 if pole == branch_interval(k)[0] else -1.0

    def x_with_root_at(gap):
        return float(_lhs(np.array([pole * pole + side * gap]))[0])

    # branch k alone: the lower branches meet their own floors at such x
    x = x_with_root_at(1.2e-11)
    values, _ = _solve(np.array([x]), np.array([k]))
    assert _flag_near_pole(values[0])
    vals = [eigen_lhs(s) - x for s in _two_ulps_around(values[0])]
    assert min(vals) <= 0.0 <= max(vals)
    x = x_with_root_at(0.8e-11)
    named = re.escape(f"branch {k} root at x = {x:.17g} lies within 1e-11 "
                      f"of the pole at nu^2 = {pole * pole:g}")
    with pytest.raises(SolverError, match=named):
        _solve(np.array([x]), np.array([k]))
