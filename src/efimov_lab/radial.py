"""Hyperradial bound states in the potential of one branch.

Every solver here takes an `AdiabaticBranch`, which is the potential
(nu^2(rho) - 1/4) / (2 rho^2) and carries its own regularization
scheme: a hard wall or a cap below R for the spectrum, none for the
cutoff probe.

The radial equation -f'' + [(nu^2(rho) - 1/4) / rho^2] f = 2 E f is
integrated on the uniform grid t = ln(rho/R) after the substitution
f = sqrt(rho) g, which turns it into g'' = [nu^2(rho) + kappa^2 rho^2] g
with kappa = sqrt(-2E).  The node count of the outward solution steps
by one at each level, and a search on ln(kappa) then yields the bound
spectrum; for a supercritical branch the levels form a geometric tower
whose ratio is set by the imaginary order b.

Node counts keep the search honest, and a continuous guide value makes
it fast: g at the last grid point with its WKB growth divided out, which
changes sign where the count steps.  Each level is the zero of that guide
value inside the count bracket of the integrations so far, found by
Illinois regula falsi and accepted once two successive estimates agree
within tol_E / 8 in ln kappa.  Each level after the first is probed where
the discrete scale invariance of a supercritical channel puts it, one
period pi / b in ln kappa above the level before, and then one secant
step from there with the slope of the guide value at the level before.

The kernel converges as h^4, so each level is searched twice, on the
grid of step h <= dt and on its every other point, and the level
reported is the Richardson extrapolation (16 E_h - E_2h) / 15, with
|E_h - E_2h| / 15 as its error estimate.  The kernel's start carries the
march's own local error, so what Richardson leaves is an h^6 term under
a hard wall and a cap alike.  Each level is searched on the 2h grid
first, and the h search starts from two integrations just around the 2h
level, which straddle the h level; one more, tol_E / 16 in ln kappa past
the regula-falsi zero of the two on the side that holds k nodes, mostly
converges it and is the level's solution, so no level is
integrated again once found.  At the default step DEFAULT_DT = 1/32 and
tolerance DEFAULT_TOL_E a unitarity level costs about 5 integrations on
the 2h grid (9 for the first, 3 to 4 for the others) and 3 on the h
grid, its solution included, against about 40 for plain bisection on
one grid, and lies within 1.2e-11 of the exact one.

Levels are searched only below the branch's threshold E_thr, the edge
of its continuum: on the dimer side (a < 0) that is the atom-dimer
threshold -1/(2 mu a^2), above which a state is atom-dimer continuum and
not a trimer; elsewhere it is 0.  w is assembled from its value at the
threshold, nu^2 + kappa_d^2 rho^2 with E_thr = -kappa_d^2 / 2, which on
the dimer side keeps the march free of the rounding error of two large
terms that cancel.  Below E_thr the solution decays as
exp(-sqrt(-2 (E - E_thr)) rho), and integration is cut off where that
decay constant times rho reaches DEFAULT_TAIL_FACTOR, beyond which the
solution has grown by e^DEFAULT_TAIL_FACTOR and deeper tails carry no
node information.  States with |E - E_thr| within
DEFAULT_BOX_FLAG_FACTOR times the box scale 1/(2 rho_max^2) are flagged
as box-limited.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from ._kernel import integrate_numerov
from .core import (
    DEFAULT_DT,
    DEFAULT_TOL_E,
    MAX_GRID_POINTS,
    ConfigError,
    InsufficientNodesError,
    SolverError,
    UnregularizedPotentialError,
)
from .hyperangular import AdiabaticBranch, Cap

DEFAULT_TAIL_FACTOR = 36.0
DEFAULT_BOX_FLAG_FACTOR = 100.0

_KAPPA_SEARCH_EDGE = 0.03   # kappa * rho_max at the shallow search edge
_FLOOR_SCALE = 10.0         # |E_floor| in units of 1/(2 R^2)
_SEED_HALF_WIDTH = 1e-6     # ln kappa from the 2h level to each h-grid seed
_X2_RESIDUAL_EDGE = 1024.0  # (kappa_d rho)^2 beyond which nu^2 + kappa_d^2 rho^2 is 0


@dataclass(frozen=True, eq=False)
class RadialSolution:
    """One integrated radial solution at fixed energy.

    `f` holds samples of f(rho) = sqrt(rho) g on the log grid `rho`;
    the normalization is arbitrary, and past a kernel rescale each
    segment keeps its own scale.  `node_count` includes nodes of the
    analytic cap-region solution when a cap scheme is used.

    A level of `find_spectrum` splits in two.  `E` and `kappa` are the
    Richardson-extrapolated level (16 E_h - E_2h) / 15 from the searches
    on the grids of step h and 2h, which belongs to no integrated solution.
    `f`, `rho` and `node_count` are an h-grid solution with exactly k
    nodes, on the deeper side of E_h and within the search tolerance of it
    in ln kappa (tol_E / 4, or a few ulps where the doubles are sparser):
    the search's own probe there.  `E_error` = |E_h - E_2h| / 15 estimates
    the error of E_h, and so bounds that of `E` from above; it is NaN where
    no pair of searches ran, as for `integrate_radial`.
    """

    E: float
    kappa: float
    node_count: int
    rho: np.ndarray
    f: np.ndarray
    R: float
    box_limited: bool = False
    E_error: float = math.nan

    def __post_init__(self):
        self.rho.setflags(write=False)
        self.f.setflags(write=False)


@dataclass(frozen=True, eq=False)
class BoundStateSpectrum:
    """Bound levels of a regularized potential, most bound first.

    Every level lies below `threshold`, the edge of the channel's
    continuum (the atom-dimer threshold on the dimer side, else 0).
    `total_nodes_at_edge` counts the nodes at the shallow search edge
    kappa rho_max = _KAPPA_SEARCH_EDGE, which on the dimer side lies
    above the threshold and also counts the discretized continuum.
    """

    states: tuple[RadialSolution, ...]
    rho_max: float
    total_nodes_at_edge: int
    threshold: float = 0.0

    @property
    def energies(self) -> np.ndarray:
        return np.array([s.E for s in self.states])

    def energy_ratios(self) -> np.ndarray:
        """E_k / E_{k+1} for consecutive levels, > 1 for a tower."""
        e = self.energies
        if len(e) < 2:
            return np.empty(0)
        return e[:-1] / e[1:]

    def interior_states(self) -> list[RadialSolution]:
        """States whose binding clears the box-artifact flag."""
        return [s for s in self.states if not s.box_limited]

    def __len__(self) -> int:
        return len(self.states)


class _Workspace:
    """Shared grids for repeated integrations of one potential.

    nu^2 is evaluated once per grid point; each energy then only
    assembles w = nu^2 + kappa^2 rho^2 over the truncated range, as its
    value at the threshold plus 2 (E_thr - E) rho^2.  The
    number of steps is even, so that every other point forms the grid of
    step 2h that `coarse` returns.  At DEFAULT_DT = 1/32 the grid from
    R = 1 to rho_max = 1e8 holds 591 points (1,181 at 1/64).

    Up to the tail cutoff w reaches DEFAULT_TAIL_FACTOR^2 + nu^2, with
    nu^2 < 4 on branch 0, and the Numerov coefficient 1 - (2h)^2 w / 12 of
    the coarse grid must stay positive there: past that the march flips
    sign every step and counts spurious nodes.  So dt must lie below
    sqrt(3 / (DEFAULT_TAIL_FACTOR^2 + 4)), about 0.048.
    """

    def __init__(self, potential: AdiabaticBranch, inner_radius: float,
                 rho_max: float, dt: float):
        if not (math.isfinite(rho_max) and rho_max > inner_radius):
            raise ConfigError(
                f"rho_max must be finite and exceed the inner radius {inner_radius}, "
                f"got {rho_max!r}")
        max_dt = math.sqrt(3.0 / (DEFAULT_TAIL_FACTOR ** 2 + 4.0))
        if not (0.0 < dt < max_dt):
            raise ConfigError(
                f"dt must be in (0, {max_dt:.4g}), got {dt!r}: on the grid of step 2 dt "
                f"the Numerov march turns unstable near the tail cutoff")
        self.R = inner_radius
        self.rho_max = rho_max
        # rho_max / R overflows only for an R near the float floor, as in a
        # cutoff sweep over 300 decades; there the logs are taken apart
        ratio = rho_max / inner_radius
        wide = ratio == math.inf
        self.T = math.log(rho_max) - math.log(inner_radius) if wide else math.log(ratio)
        if self.T / dt > 2 * ((MAX_GRID_POINTS - 1) // 2):
            raise ConfigError(
                f"dt = {dt!r} needs {self.T / dt:.3g} grid steps over t = ln(rho/R) "
                f"in [0, {self.T:.6g}]; at most {MAX_GRID_POINTS} points are allowed")
        self.n_full = 2 * int(math.ceil(self.T / (2.0 * dt))) + 1
        self.h = self.T / (self.n_full - 1)
        t = self.h * np.arange(self.n_full)
        if wide:
            self.rho = np.exp(t + math.log(inner_radius))
            self.rho[0] = inner_radius
        else:
            self.rho = inner_radius * np.exp(t)
        last = float(self.rho[-1])
        if last * last == math.inf:
            raise ConfigError(
                f"rho_max = {rho_max!r} is too large: rho^2 overflows at the outer end")
        self.rho2 = self.rho * self.rho
        self.nu2 = np.asarray(potential.nu_squared_at(self.rho), dtype=float)
        self.scheme = potential.scheme
        self.threshold = potential.threshold
        # w at the threshold, nu^2 + kappa_d^2 rho^2 with kappa_d^2 = -2 E_thr; on
        # the dimer side nu^2 -> -kappa_d^2 rho^2, and the sum falls as
        # exp(-pi kappa_d rho / 3), below 1e-12 from kappa_d rho = 32 on, where it
        # is taken as 0 rather than as the rounding error of the sum, which is
        # 8e3 at kappa_d rho = 1e10
        x2 = (-2.0 * self.threshold) * self.rho2
        self.w_thr = np.where(x2 <= _X2_RESIDUAL_EDGE, self.nu2 + x2, 0.0)

    def coarse(self) -> _Workspace:
        """The same workspace on every other point, of step 2h: views, not copies."""
        ws = copy.copy(self)
        ws.rho, ws.rho2, ws.nu2, ws.w_thr = (
            self.rho[::2], self.rho2[::2], self.nu2[::2], self.w_thr[::2])
        ws.n_full = (self.n_full + 1) // 2
        ws.h = 2.0 * self.h
        return ws

    def _cap_start(self, kappa: float) -> tuple[float, float, int]:
        """Initial (g, dg/dt, node count) at t = 0 from the capped region.

        Below R the potential is the constant (nu^2(R) - 1/4)/(2 R^2),
        so f is sin(q rho) or sinh(|q| rho) and only its logarithmic
        derivative at R is needed.
        """
        R = self.R
        q2 = -kappa * kappa - (self.nu2[0] - 0.25) / (R * R)
        if q2 > 0.0:
            q = math.sqrt(q2)
            sn = math.sin(q * R)
            if sn == 0.0:
                L = math.copysign(1e300, math.cos(q * R))
            else:
                L = q * math.cos(q * R) / sn
            cap_nodes = int(math.floor(q * R / math.pi - 1e-15))
            cap_nodes = max(cap_nodes, 0)
        elif q2 < 0.0:
            p = math.sqrt(-q2)
            L = p / math.tanh(p * R)
            cap_nodes = 0
        else:
            L = 1.0 / R
            cap_nodes = 0
        return 1.0, R * L - 0.5, cap_nodes

    def integrate(self, E: float, samples: bool = True) -> tuple[np.ndarray, np.ndarray, int]:
        """(w, g, node count) at E < 0 over the grid up to the tail cutoff.

        Below the threshold the tail decays as exp(-sqrt(-2 (E - E_thr)) rho),
        and the grid ends where that decay constant times rho reaches
        DEFAULT_TAIL_FACTOR; at or above the threshold it is used whole.
        Without `samples`, g holds only its last sample (`integrate_numerov`).
        """
        if not (math.isfinite(E) and E < 0.0):
            raise ConfigError(f"bound-state integration needs E < 0, got {E!r}")
        kappa = math.sqrt(-2.0 * E)
        n = self.n_full
        if E < self.threshold:
            decay = math.sqrt(-2.0 * (E - self.threshold))   # kappa when E_thr = 0
            ratio = DEFAULT_TAIL_FACTOR / (decay * self.R)
            # the ratio overflows only for an R and a rho_max both near their
            # float limits; its log is then taken in parts
            t_tail = math.log(ratio) if ratio < math.inf else (
                math.log(DEFAULT_TAIL_FACTOR) - math.log(decay) - math.log(self.R))
            if t_tail <= self.h:
                raise SolverError(
                    f"energy {E:.6g} too deep: its decay constant times R, "
                    f"{decay * self.R:.3g}, leaves no integration range below "
                    f"the tail cutoff")
            n = max(min(n, int(math.floor(t_tail / self.h)) + 1), 2)
        # 2 (E_thr - E) is exact next to the threshold, where kappa^2 - kappa_d^2
        # would carry the rounding of both squares
        w = self.w_thr[:n] + (2.0 * (self.threshold - E)) * self.rho2[:n]

        if isinstance(self.scheme, Cap):
            g0, dg0, cap_nodes = self._cap_start(kappa)
        else:
            g0, dg0, cap_nodes = 0.0, 1.0, 0

        g, nodes = integrate_numerov(w, self.h, g0, dg0, samples)
        return w, g, nodes + cap_nodes

    def solution(self, E: float) -> RadialSolution:
        """The integrated solution at E as f = sqrt(rho) g."""
        _, g, count = self.integrate(E)
        return self.sampled(E, g, count)

    def sampled(self, E: float, g: np.ndarray, count: int) -> RadialSolution:
        """The solution at E from the g and node count that `integrate` gave there."""
        rho = self.rho[:len(g)]
        return RadialSolution(E=E, kappa=math.sqrt(-2.0 * E), node_count=count,
                              rho=rho, f=g * np.sqrt(rho), R=self.R)


def integrate_radial(potential: AdiabaticBranch, E: float, rho_max: float,
                     *, dt: float = DEFAULT_DT) -> RadialSolution:
    """Integrate outward from the regularization radius at fixed E < 0."""
    if potential.scheme is None:
        raise UnregularizedPotentialError(
            "integration from rho = 0 is ill-defined for the bare "
            "inverse-square attraction; use HardWall or Cap, or the "
            "cutoff-based collapse_probe")
    ws = _Workspace(potential, potential.R, rho_max, dt)
    return ws.solution(E)


def _guide(h: float, w: np.ndarray, g: np.ndarray) -> float:
    """Signed guide value q = g_end exp(-S) of one integration.

    g_end is g at the last grid point, and S = h sum sqrt(max(w, 0)) over the
    integrated grid is the WKB growth exponent of the tail, so q varies
    smoothly with E where the kappa rho growth does not.  At fixed grid
    length the node count steps where g_end, and so q, crosses zero.
    """
    return float(g[-1]) * math.exp(-h * float(np.sqrt(np.maximum(w, 0.0)).sum()))


def _probe(ws: _Workspace, x: float,
           samples: bool = False) -> tuple[float, int, float, np.ndarray | None]:
    """(x, node count, guide value q, g) of one integration at E = -exp(x)^2 / 2.

    g is None unless `samples` asks for it.
    """
    w, g, count = ws.integrate(-0.5 * math.exp(x) ** 2, samples)
    return x, count, _guide(ws.h, w, g), g if samples else None


def _bracket(known: list[tuple[float, int, float, np.ndarray | None]],
             k: int) -> tuple[float, float, float, float]:
    """(x_lo, q_lo, x_hi, q_hi) of the count bracket of level k in `known`.

    x_lo is the deepest point known to hold > k nodes and x_hi the
    shallowest known to hold <= k, each with its guide value; an end that
    no point gives is -inf or inf, with q NaN.
    """
    x_lo, q_lo, x_hi, q_hi = -math.inf, math.nan, math.inf, math.nan
    for x, c, q, _ in known:
        if c > k:
            if x > x_lo:
                x_lo, q_lo = x, q
        elif x < x_hi:
            x_hi, q_hi = x, q
    return x_lo, q_lo, x_hi, q_hi


def _level(ws: _Workspace, k: int, lo: float, hi: float, ln_tol: float,
           known: list[tuple[float, int, float, np.ndarray | None]],
           deeper: bool) -> tuple[float, float]:
    """(ln kappa of level k on the grid of `ws`, the <= k-node end of its count bracket).

    The level is the zero of the guide value q where the node count steps
    from k+1 to k, searched in the window [lo, hi], and every integration
    is appended to `known` as `_probe` gives it, with its samples only for
    a regula-falsi probe with `deeper`.  The search keeps the
    integrated count bracket: the deepest known point holding > k nodes
    and the shallowest holding <= k, or a window end where none is known.
    Where the guide values of its ends differ in sign it integrates at
    their Illinois regula-falsi point (Dowell & Jarratt, BIT 11, 168
    (1971)), or at the bracket's midpoint when two such probes have not
    halved it, and elsewhere at the midpoint.  It accepts a regula-falsi
    point that agrees within ln_tol / 2 with the one before it.  With
    `deeper` each regula-falsi probe moves ln_tol / 4, and at least two
    ulps, toward the side holding k nodes, and a point is accepted only
    within ln_tol (and four ulps) of the bracket's k-node end, so that end
    is the level's solution.  The search also ends once the bracket is
    narrower than ln_tol or its ends are adjacent doubles, at the
    regula-falsi point of the bracket.  Where the points in `known`
    contradict a count that falls as kappa grows, they are set aside and
    every midpoint is integrated.
    """
    x_lo, q_lo, x_hi, q_hi = _bracket(known, k)
    guided = x_lo < x_hi and x_lo < hi and x_hi > lo
    if not guided:
        x_lo, x_hi = -math.inf, math.inf
    if x_lo < lo:
        x_lo, q_lo = lo, math.nan
    if x_hi > hi:
        x_hi, q_hi = hi, math.nan
    w_lo, w_hi = q_lo, q_hi     # the values the regula-falsi point is drawn from
    moved = None    # end replaced by the last regula-falsi probe; an end that two
                    # of them in a row leave standing has its weight halved
    gaps = []       # bracket width before each guided probe
    last = math.nan
    while True:
        gap = x_hi - x_lo
        mid = 0.5 * (x_lo + x_hi)
        if gap <= ln_tol or not x_lo < mid < x_hi:
            break
        x, falsi = mid, False
        if guided and q_lo * q_hi < 0.0:
            if len(gaps) < 2 or gap <= 0.5 * gaps[-2]:
                # a point that rounds onto an end moves one double inside
                f = min(max(x_hi - gap * (w_hi / (w_hi - w_lo)), math.nextafter(x_lo, x_hi)),
                        math.nextafter(x_hi, x_lo))
                reach = max(ln_tol, 4.0 * math.ulp(f)) if deeper else math.inf
                if abs(f - last) <= 0.5 * ln_tol and x_hi - f <= reach:
                    return f, x_hi
                last = f
                if deeper:
                    f = min(f + max(0.25 * ln_tol, 2.0 * math.ulp(f)), math.nextafter(x_hi, x_lo))
                x, falsi = f, True
            gaps.append(gap)
        known.append(_probe(ws, x, samples=deeper and falsi))
        _, count, q, _ = known[-1]
        if count > k:
            if falsi and moved == "lo":
                w_hi *= 0.5
            x_lo, q_lo, w_lo = x, q, q
            moved = "lo" if falsi else moved
        else:
            if falsi and moved == "hi":
                w_lo *= 0.5
            x_hi, q_hi, w_hi = x, q, q
            moved = "hi" if falsi else moved
    if q_lo * q_hi < 0.0:
        return min(max(x_hi - gap * (q_hi / (q_hi - q_lo)), x_lo), x_hi), x_hi
    return mid if x_lo < mid < x_hi else x_hi, x_hi


def find_spectrum(potential: AdiabaticBranch, rho_max: float,
                  max_levels: int = 8, tol_E: float = DEFAULT_TOL_E,
                  *, dt: float = DEFAULT_DT) -> BoundStateSpectrum:
    """Bound spectrum by a node-count-guarded search on ln(kappa).

    The node count of the outward solution at energy E equals the number
    of levels below E and decreases monotonically with kappa, so each
    level is bracketed by where the count steps from k+1 to k.  Each level
    is searched twice: on the workspace grid of step h <= dt, and on its
    every other point, step 2h.  The levels converge as h^4, so the
    returned energy is the Richardson extrapolation (16 E_h - E_2h) / 15
    (L. F. Richardson, Phil. Trans. R. Soc. A 210, 307 (1911)), where E_h
    and E_2h are the levels found on the two grids; its `E_error` is
    |E_h - E_2h| / 15.  The returned solution samples and node count are
    the h grid's, with exactly k nodes, within the search tolerance above
    E_h in ln kappa; they come from the h search's own last probe, and a
    level is integrated again only where no probe sits there that kept its
    samples.  Only the h search's regula-falsi probes keep them, and its
    seeds where the tolerance is so loose that the search ends on them;
    every other integration reads no more than its node count and end value.

    The search (`_level`) keeps the count bracket of every integration
    made on its grid: the deepest point holding more than k nodes and the
    shallowest holding at most k.  Where their guide values q =
    g_end exp(-S) (see `_guide`) differ in sign, it integrates at the
    Illinois regula-falsi point of q, which crosses zero where the count
    steps, and elsewhere, or where two such probes have not halved the
    bracket, at its midpoint.  A level is the regula-falsi point that
    agrees within tol_E / 8 in ln kappa with the one before it; on the h
    grid it must also lie within tol_E / 4 of the bracket's k-node end,
    and each regula-falsi probe there moves tol_E / 16 (at least two ulps)
    toward the deeper side, so that the probe which converges a level is
    mostly its k-node solution.  A bracket narrower than tol_E / 4, or with
    adjacent doubles for ends where that is finer than the doubles in ln
    kappa, ends the search at its regula-falsi point.  So every level
    lies inside an integrated count bracket on its grid.  If the known
    counts ever contradict monotonicity, that level sets them aside and
    integrates every midpoint.

    Each level is searched on the 2h grid first, from the previous 2h
    level, with its own known points; the floor, edge and threshold are
    integrated on the h grid only.  Before level k >= 1 is searched there,
    one integration is made where the tower predicts it: pi / sqrt(-nu^2)
    in ln kappa above 2h level k-1, with nu^2 taken at the 2h grid point
    nearest rho = 1 / kappa of that level.  A second follows, one secant
    step from the first with the slope of q across the count bracket of
    level k-1, sign flipped: q crosses zero at consecutive levels with
    slopes of opposite sign and nearly equal size, so the two mostly
    straddle level k.  Their counts and q join the known points like any
    other integration.  Either probe is skipped where it falls outside the
    bracket that the known counts leave for level k; the first also where
    that nu^2 is not negative (no tower, as beyond a for a > 0) and where
    the nearest grid point is the inner radius.

    The h search then runs over the same window, from the previous h
    level.  It starts from two integrations _SEED_HALF_WIDTH either side
    of the 2h level, which lies within 6.1e-7 of the h level in ln kappa
    at the default step (over 272 levels of 96 spectra), so one more
    probe mostly converges the h level.

    The window runs from the search floor up to kappa rho_max =
    _KAPPA_SEARCH_EDGE or, where the threshold (`potential.threshold`)
    lies deeper than that edge, up to the threshold, whose node count is
    then the number of levels.  The window's shallow end is integrated on
    the h grid only, unless a level's 2h search integrates no point holding
    more than k nodes, as where level k lies next to the threshold.  Then
    the 2h grid is integrated there once.  If it holds more than k nodes,
    it closes the level's 2h count bracket; if not, the 2h grid has no
    level k in the window, and the spectrum ends at k levels: the h level
    lies within the two grids' discretization shift of the window's end
    and cannot be told from continuum.  A threshold below the floor is
    refused before the workspace re-solves nu^2, and so is an R whose floor
    -5 / R^2 overflows.
    """
    if potential.scheme is None:
        raise UnregularizedPotentialError(
            "the bare inverse-square attraction has no ground state: the "
            "spectrum is unbounded from below and level search cannot "
            "terminate; regularize with HardWall or Cap")
    if max_levels < 1:
        raise ConfigError(f"max_levels must be >= 1, got {max_levels}")
    if not (0.0 < tol_E < 0.1):
        raise ConfigError(f"tol_E must be in (0, 0.1), got {tol_E!r}")

    R = potential.R
    kappa_floor = math.sqrt(_FLOOR_SCALE) / R
    E_floor = -0.5 * kappa_floor * kappa_floor
    # the march forms -2 E_floor = kappa_floor^2, which overflows for R below
    # 2.36e-154 where E_floor alone does not
    if kappa_floor * kappa_floor == math.inf:
        raise ConfigError(
            f"R = {R!r} is too small: the search floor E = -{0.5 * _FLOOR_SCALE:g} / R^2 "
            f"overflows")
    E_thr = potential.threshold
    if E_thr <= E_floor:
        raise ConfigError(
            f"the atom-dimer threshold E_thr = {E_thr:.6g} and every trimer below it "
            f"lie below the search floor E = {E_floor:.6g} for R = {R:.6g}; "
            f"a trimer needs R well below |a|")
    ws = _Workspace(potential, R, rho_max, dt)
    coarse = ws.coarse()
    w_floor, g_floor, n_floor = ws.integrate(E_floor, samples=False)
    if n_floor > 0:
        raise SolverError(
            f"{n_floor} level(s) lie below the search floor "
            f"E = {E_floor:.6g}; the channel is too deep for R = {R:.6g}")

    kappa_edge = _KAPPA_SEARCH_EDGE / rho_max
    if kappa_edge >= kappa_floor:
        raise ConfigError("rho_max too small: search window is empty")
    E_lo = -0.5 * kappa_edge * kappa_edge   # the energy at the window's shallow end
    w_edge, g_edge, total = ws.integrate(E_lo, samples=False)

    ln_lo = math.log(kappa_edge)
    states: list[RadialSolution] = []
    ln_hi = math.log(kappa_floor)
    # every (ln kappa, node count, guide value, g) integrated so far; g is kept
    # only by the h-grid probes that may become a level's solution, and is None
    # elsewhere
    known = [(ln_hi, 0, _guide(ws.h, w_floor, g_floor), None),
             (ln_lo, total, _guide(ws.h, w_edge, g_edge), None)]
    # a threshold above the edge ends the window, and its count is the number
    # of levels: anything shallower is continuum
    levels = total
    kappa_d = math.sqrt(-2.0 * E_thr)
    if kappa_d > kappa_edge:
        E_lo = E_thr
        w_thr, g_thr, levels = ws.integrate(E_thr, samples=False)
        ln_lo = math.log(kappa_d)
        known.append((ln_lo, levels, _guide(ws.h, w_thr, g_thr), None))
    ln_hi2 = ln_hi
    known2: list[tuple[float, int, float, np.ndarray | None]] = []   # the same on the 2h grid
    # the search tolerance in ln kappa: half the relative energy tolerance (E ~ kappa^2)
    ln_tol = max(0.25 * tol_E, 4.0 * np.finfo(float).eps)
    slope2 = math.nan   # dq / d ln kappa at the last 2h level, across its count bracket
    # the h-grid seeds keep their samples only where their bracket is already
    # within ln_tol: there the search ends on them, and one is the solution
    seeded = 2.0 * _SEED_HALF_WIDTH <= ln_tol
    for k in range(min(max_levels, levels)):
        if k:
            # in a channel nu^2 = -b^2 the levels are pi / b apart in ln kappa;
            # b is read at the 2h grid point nearest rho = 1 / kappa of the last level
            i = min(round(-(ln_hi2 + math.log(R)) / coarse.h), coarse.n_full - 1)
            if i > 0 and coarse.nu2[i] < 0.0:
                x_pred = ln_hi2 - math.pi / math.sqrt(-coarse.nu2[i])
                # then one secant step from there: q crosses zero at consecutive
                # levels with slopes of opposite sign and nearly equal size
                for _ in range(2):
                    x_lo, _, x_hi, _ = _bracket(known2, k)
                    if not max(x_lo, ln_lo) < x_pred < min(x_hi, ln_hi2):
                        break
                    known2.append(_probe(coarse, x_pred))
                    x_pred += known2[-1][2] / slope2 if slope2 else math.nan
        x2, _ = _level(coarse, k, ln_lo, ln_hi2, ln_tol, known2, deeper=False)
        x_lo, q_lo, x_hi, q_hi = _bracket(known2, k)
        if x_lo == -math.inf and coarse.integrate(E_lo, samples=False)[2] <= k:
            # no 2h integration holds more than k nodes, and neither does the 2h
            # grid at the window's shallow end: the 2h grid has no level k in the
            # window, and the h level lies within the two grids' shift of its end
            break
        slope2 = (q_hi - q_lo) / (x_hi - x_lo)
        # the same level on the h grid, seeded around the 2h level
        for x in (x2 - _SEED_HALF_WIDTH, x2 + _SEED_HALF_WIDTH):
            if ln_lo < x < ln_hi:
                known.append(_probe(ws, x, samples=seeded))
        x, x_sol = _level(ws, k, ln_lo, ln_hi, ln_tol, known, deeper=True)
        E_h, E_2h = -0.5 * math.exp(x) ** 2, -0.5 * math.exp(x2) ** 2
        # the search mostly ends with its k-node end integrated, and that probe
        # is the level's solution
        E_sol = -0.5 * math.exp(x_sol) ** 2
        at_sol = [(g, c) for x_k, c, _, g in known if x_k == x_sol and g is not None]
        sol = ws.sampled(E_sol, *at_sol[0]) if at_sol else ws.solution(E_sol)
        if sol.node_count != k:
            raise SolverError(
                f"level {k}: the search ended on a solution with "
                f"{sol.node_count} nodes; grid too coarse for tol_E = {tol_E}")
        E = (16.0 * E_h - E_2h) / 15.0
        flagged = abs(E - E_thr) < DEFAULT_BOX_FLAG_FACTOR * 0.5 / (rho_max * rho_max)
        states.append(replace(sol, E=E, kappa=math.sqrt(-2.0 * E),
                              E_error=abs(E_h - E_2h) / 15.0, box_limited=flagged))
        ln_hi, ln_hi2 = x, x2
        # a later level's solution is almost always one of its own probes, so
        # no sample outlives its level
        known = [(x, c, q, None) for x, c, q, _ in known]

    return BoundStateSpectrum(states=tuple(states), rho_max=rho_max,
                              total_nodes_at_edge=total, threshold=E_thr)


@dataclass(frozen=True, eq=False)
class NodeReport:
    """Node positions of a radial solution and their geometric spacing.

    `interior` entries exclude nodes near either end of the validity
    window: within `wall_factor` radii of the inner boundary or where
    kappa * rho exceeds `kappa_rho_max` (the outer turning region, where
    the binding energy distorts the self-similar spacing by roughly
    (kappa rho)^2 / 4).
    """

    positions: np.ndarray
    ratios: np.ndarray
    interior_positions: np.ndarray
    interior_ratios: np.ndarray
    geometric_ratio: float
    ratio_spread: float
    kappa: float

    def __post_init__(self):
        for a in (self.positions, self.ratios,
                  self.interior_positions, self.interior_ratios):
            a.setflags(write=False)


def _zeros(t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """t of each zero of g, ascending, by linear interpolation in t.

    A zero lies at each sign change between consecutive nonzero samples,
    as the kernel counts nodes, so there is one per counted node.
    """
    nonzero = np.flatnonzero(g)
    positive = g[nonzero] > 0.0
    k = np.flatnonzero(positive[1:] != positive[:-1])
    i, j = nonzero[k], nonzero[k + 1]
    a, b = g[i], g[j]
    return t[i] + (t[j] - t[i]) * (a / (a - b))


def _node_positions(solution: RadialSolution) -> np.ndarray:
    """Nodes of f, placed by linear interpolation of g = f / sqrt(rho) in t = ln rho.

    g'' = w g makes each zero of g an inflection point, where the chord
    misses it by O(h^3); on f it would miss by O(h^2).
    """
    g = solution.f / np.sqrt(solution.rho)
    # math.exp, not np.exp, which can differ in the last bit from the
    # positions the node CSV has always printed
    return np.array([math.exp(t) for t in _zeros(np.log(solution.rho), g)])


def node_analysis(solution: RadialSolution, *, kappa_rho_max: float = 0.2,
                  wall_factor: float = 2.0) -> NodeReport:
    """Locate the nodes of f and fit their geometric spacing.

    Raises :class:`InsufficientNodesError` when fewer than three nodes
    survive the interior window; deeper levels or a larger domain give
    more usable nodes.
    """
    if not (math.isfinite(kappa_rho_max) and kappa_rho_max > 0.0):
        raise ConfigError(f"kappa_rho_max must be finite and > 0, got {kappa_rho_max!r}")
    if not (math.isfinite(wall_factor) and wall_factor >= 0.0):
        raise ConfigError(f"wall_factor must be finite and >= 0, got {wall_factor!r}")
    positions = _node_positions(solution)
    ratios = positions[1:] / positions[:-1] if len(positions) > 1 else np.empty(0)

    lo_edge = wall_factor * solution.R
    hi_edge = kappa_rho_max / solution.kappa if solution.kappa > 0 else np.inf
    keep = (positions >= lo_edge) & (positions <= hi_edge)
    interior = positions[keep]
    if len(interior) < 3:
        raise InsufficientNodesError(
            f"{len(interior)} interior node(s) in the window "
            f"[{lo_edge:.3g}, {hi_edge:.3g}]; at least 3 needed "
            f"(solution has {len(positions)} nodes total)")
    interior_ratios = interior[1:] / interior[:-1]
    log_ratios = np.log(interior_ratios)
    geometric_ratio = float(np.exp(np.mean(log_ratios)))
    spread = float(np.std(log_ratios))
    return NodeReport(positions=positions, ratios=ratios,
                      interior_positions=interior,
                      interior_ratios=interior_ratios,
                      geometric_ratio=geometric_ratio,
                      ratio_spread=spread,
                      kappa=solution.kappa)


@dataclass(frozen=True, eq=False)
class ProbeResult:
    """Node counts of the unregularized problem versus inner cutoff.

    `zeros` holds the radii, ascending, where the count steps inside the
    sweep; `zero_ratio` is their fitted geometric ratio (NaN below two
    zeros) and `reference_ratio` the exp(pi / b) it tends to.
    """

    cutoffs: np.ndarray
    counts: np.ndarray
    slope_per_decade: float
    reference_slope: float
    E: float
    rho_out: float
    zeros: np.ndarray
    zero_ratio: float
    reference_ratio: float

    def __post_init__(self):
        self.cutoffs.setflags(write=False)
        self.counts.setflags(write=False)
        self.zeros.setflags(write=False)


def collapse_probe(potential: AdiabaticBranch, E: float, base_cutoff: float,
                   decades: int, per_decade: int = 1,
                   *, dt: float = DEFAULT_DT) -> ProbeResult:
    """Count nodes at fixed E while the inner cutoff shrinks decade by decade.

    Only meaningful for the unregularized potential: each decade of
    cutoff adds b ln(10) / pi nodes when the branch is supercritical, the
    discrete signature of the collapse.

    One grid spans the sweep, from the smallest cutoff out to the tail
    cutoff rho_out at kappa rho = DEFAULT_TAIL_FACTOR, and the solution
    that decays beyond rho_out is marched across it once, inward.  By
    Sturm oscillation its zeros in (rc, rho_out) count the levels below
    E with a wall at rc, as the nodes of the solution marched outward
    from rc do, so the count at every cutoff rc is the number of zeros
    beyond it.  The zeros inside the sweep are the cutoffs where the
    count steps, a geometric staircase of ratio exp(pi / b).  E must lie
    below the channel at rho_out, so that a solution decays there; on the
    dimer side that is below the atom-dimer threshold.  A sweep of more
    than MAX_GRID_POINTS cutoffs, or an E so shallow that rho_out^2
    overflows, is refused before anything is built.
    """
    if potential.scheme is not None:
        raise ConfigError(
            "collapse_probe explores the bare potential; remove the "
            "regularization scheme (find_spectrum handles regularized wells)")
    if decades < 1 or per_decade < 1:
        raise ConfigError("decades and per_decade must be >= 1")
    if not (math.isfinite(E) and E < 0.0):
        raise ConfigError(f"probe energy must be negative, got {E!r}")
    if not (math.isfinite(base_cutoff) and base_cutoff > 0.0):
        raise ConfigError(f"base cutoff must be positive, got {base_cutoff!r}")

    kappa = math.sqrt(-2.0 * E)
    rho_out = DEFAULT_TAIL_FACTOR / kappa
    if rho_out * rho_out == math.inf:
        raise ConfigError(
            f"probe energy {E!r} is too shallow: rho^2 overflows at its outer end "
            f"rho_out = {rho_out:.3g}")
    smallest = base_cutoff * 10.0 ** (-decades)
    if smallest < sys.float_info.min:
        raise ConfigError(f"decades = {decades} takes the smallest cutoff "
                          f"{base_cutoff!r} * 10^-{decades} below the float range")
    if rho_out <= base_cutoff:
        raise ConfigError(
            f"outer end {rho_out:.3g} does not clear the base cutoff "
            f"{base_cutoff:.3g}; lower |E| or the base cutoff")

    n_cutoffs = decades * per_decade + 1
    if n_cutoffs > MAX_GRID_POINTS:
        raise ConfigError(
            f"decades = {decades} with per_decade = {per_decade} gives {n_cutoffs} "
            f"cutoffs; at most {MAX_GRID_POINTS} are allowed")

    ws = _Workspace(potential, smallest, rho_out, dt)
    w_in = ws.nu2[::-1] + (kappa * kappa) * ws.rho2[::-1]   # from rho_out inward
    if not w_in[0] > 0.0:
        raise ConfigError(
            f"probe energy {E!r} is not below the channel at the outer end "
            f"rho_out = {rho_out:.6g}, so no solution decays there; on the dimer "
            f"side it must lie below the atom-dimer threshold")
    # marched inward, the solution that decays outward grows: WKB start
    g, _ = integrate_numerov(w_in, ws.h, 1.0, math.sqrt(w_in[0]))
    ln_zeros = _zeros(np.log(ws.rho), g[::-1])

    cutoffs = base_cutoff * 10.0 ** (-np.arange(n_cutoffs) / per_decade)
    counts = len(ln_zeros) - np.searchsorted(ln_zeros, np.log(cutoffs), side="right")

    k_axis = np.arange(n_cutoffs) / per_decade
    slope = float(np.polyfit(k_axis, counts.astype(float), 1)[0])

    ln_zeros = ln_zeros[ln_zeros <= math.log(base_cutoff)]
    zero_ratio = (math.exp((ln_zeros[-1] - ln_zeros[0]) / (len(ln_zeros) - 1))
                  if len(ln_zeros) > 1 else math.nan)

    # rho[0] is the smallest cutoff exactly
    nu2_inner = float(ws.nu2[0])
    if nu2_inner < 0.0:
        b_inner = math.sqrt(-nu2_inner)
        reference = b_inner * math.log(10.0) / math.pi
        reference_ratio = math.exp(math.pi / b_inner)
    else:
        reference = reference_ratio = math.nan
    return ProbeResult(cutoffs=cutoffs, counts=counts,
                       slope_per_decade=slope, reference_slope=reference,
                       E=E, rho_out=rho_out, zeros=np.exp(ln_zeros), zero_ratio=zero_ratio,
                       reference_ratio=reference_ratio)
