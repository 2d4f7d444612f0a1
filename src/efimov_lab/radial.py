"""Hyperradial bound states in the potential of one branch.

Every solver here takes an `AdiabaticBranch`, which is the potential
(nu^2(rho) - 1/4) / (2 rho^2) and carries its own regularization
scheme: a hard wall or a cap below R for the spectrum, none for the
cutoff probe.

The radial equation -f'' + [(nu^2(rho) - 1/4) / rho^2] f = 2 E f is
integrated on the uniform grid t = ln(rho/R) after the substitution
f = sqrt(rho) g, which turns it into g'' = [nu^2(rho) + kappa^2 rho^2] g
with kappa = sqrt(-2E).  Node-counting bisection on ln(kappa) then
yields the bound spectrum; for a supercritical branch the levels form a
geometric tower whose ratio is set by the imaginary order b.

The bisection is guided, not replaced: its midpoints and final brackets
are those of integrating every midpoint, but it integrates only where no
known node count settles a midpoint, and there preferably at the
regula-falsi zero of a continuous guide value, g at the last grid point
with its WKB growth divided out, which changes sign where the count steps.
Each level after the first is probed once where the discrete scale
invariance of a supercritical channel puts it, one period pi / b in
ln kappa above the level before.  At the default step DEFAULT_DT and
tolerance DEFAULT_TOL_E a level then costs about 8 integrations at
unitarity, against about 40 for plain bisection.  The kernel converges
as h^4, so at those defaults the unitarity levels lie within 3e-10 of
the exact ones.

Integration is cut off where kappa * rho reaches DEFAULT_TAIL_FACTOR,
beyond which the solution has grown by e^DEFAULT_TAIL_FACTOR and deeper
tails carry no node information.  States with |E| within
DEFAULT_BOX_FLAG_FACTOR times the box scale 1/(2 rho_max^2) are flagged
as box-limited.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from ._kernel import integrate_numerov
from .core import (
    MAX_GRID_POINTS,
    ConfigError,
    InsufficientNodesError,
    SolverError,
    UnregularizedPotentialError,
)
from .hyperangular import AdiabaticBranch, Cap

DEFAULT_DT = 1.0 / 128.0
DEFAULT_TOL_E = 1e-10
DEFAULT_TAIL_FACTOR = 36.0
DEFAULT_BOX_FLAG_FACTOR = 100.0

_KAPPA_SEARCH_EDGE = 0.03   # kappa * rho_max at the shallow search edge
_FLOOR_SCALE = 10.0         # |E_floor| in units of 1/(2 R^2)


@dataclass(frozen=True, eq=False)
class RadialSolution:
    """One integrated radial solution at fixed energy.

    `f` holds samples of f(rho) = sqrt(rho) g on the log grid `rho`;
    the normalization is arbitrary, and past a kernel rescale each
    segment keeps its own scale.  `node_count` includes nodes of the
    analytic cap-region solution when a cap scheme is used.
    """

    E: float
    kappa: float
    node_count: int
    rho: np.ndarray
    f: np.ndarray
    R: float
    box_limited: bool = False

    def __post_init__(self):
        self.rho.setflags(write=False)
        self.f.setflags(write=False)


@dataclass(frozen=True, eq=False)
class BoundStateSpectrum:
    """Bound levels of a regularized potential, most bound first."""

    states: tuple[RadialSolution, ...]
    rho_max: float
    total_nodes_at_edge: int

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
    assembles w = nu^2 + kappa^2 rho^2 over the truncated range.
    """

    def __init__(self, potential: AdiabaticBranch, inner_radius: float,
                 rho_max: float, dt: float):
        if not (math.isfinite(rho_max) and rho_max > inner_radius):
            raise ConfigError(
                f"rho_max must exceed the inner radius {inner_radius}, got {rho_max!r}")
        if not (0.0 < dt < 1.0):
            raise ConfigError(f"dt must be in (0, 1), got {dt!r}")
        self.R = inner_radius
        self.rho_max = rho_max
        # rho_max / R overflows only for an R near the float floor, as in a
        # cutoff sweep over 300 decades; there the logs are taken apart
        ratio = rho_max / inner_radius
        wide = ratio == math.inf
        self.T = math.log(rho_max) - math.log(inner_radius) if wide else math.log(ratio)
        if self.T / dt > MAX_GRID_POINTS - 1:
            raise ConfigError(
                f"dt = {dt!r} needs {self.T / dt:.3g} grid steps over t = ln(rho/R) "
                f"in [0, {self.T:.6g}]; at most {MAX_GRID_POINTS} points are allowed")
        self.n_full = int(math.ceil(self.T / dt)) + 1
        self.h = self.T / (self.n_full - 1)
        t = self.h * np.arange(self.n_full)
        if wide:
            self.rho = np.exp(t + math.log(inner_radius))
            self.rho[0] = inner_radius
        else:
            self.rho = inner_radius * np.exp(t)
        self.rho2 = self.rho * self.rho
        self.nu2 = np.asarray(potential.nu_squared_at(self.rho), dtype=float)
        self.scheme = potential.scheme

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

    def integrate(self, E: float) -> tuple[np.ndarray, np.ndarray, int]:
        """(w, g, node count) at E < 0 over the grid up to the tail cutoff."""
        if not (math.isfinite(E) and E < 0.0):
            raise ConfigError(f"bound-state integration needs E < 0, got {E!r}")
        kappa = math.sqrt(-2.0 * E)
        t_tail = math.log(DEFAULT_TAIL_FACTOR / (kappa * self.R))
        if t_tail <= self.h:
            raise SolverError(
                f"energy {E:.6g} too deep: kappa R = {kappa * self.R:.3g} "
                f"leaves no integration range below the tail cutoff")
        n = min(self.n_full, int(math.floor(t_tail / self.h)) + 1)
        n = max(n, 2)
        w = self.nu2[:n] + (kappa * kappa) * self.rho2[:n]

        if isinstance(self.scheme, Cap):
            g0, dg0, cap_nodes = self._cap_start(kappa)
        else:
            g0, dg0, cap_nodes = 0.0, 1.0, 0

        g, nodes = integrate_numerov(w, self.h, g0, dg0)
        return w, g, nodes + cap_nodes

    def solution(self, E: float) -> RadialSolution:
        """The integrated solution at E as f = sqrt(rho) g."""
        _, g, count = self.integrate(E)
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
    return float(g[-1]) * math.exp(-h * float(np.sum(np.sqrt(np.maximum(w, 0.0)))))


def _probe(ws: _Workspace, x: float) -> tuple[float, int, float]:
    """(x, node count, guide value q) of one integration at ln kappa = x."""
    kappa = math.exp(x)
    w, g, count = ws.integrate(-0.5 * kappa * kappa)
    return x, count, _guide(ws.h, w, g)


def _search_level(ws: _Workspace, k: int, lo: float, hi: float, ln_tol: float,
                  known: list[tuple[float, int, float]],
                  guided: bool) -> float | None:
    """Bisect ln kappa on [lo, hi] for the step of the node count from k+1 to k.

    Returns the final upper bracket end, or None when the points in `known`
    contradict a count that falls as kappa grows.  The bisection also stops
    when lo and hi are adjacent doubles, however small `ln_tol` is.
    Every integration is appended to `known` as (ln kappa, count, q).

    Only where it integrates depends on `guided`; the midpoints and the final
    bracket are those of integrating every midpoint.  The loop keeps the ends
    of the known gap, the deepest point holding > k nodes and the shallowest
    holding <= k, and a midpoint outside that gap is settled unseen.  A
    midpoint inside it is integrated, unless `guided` is set, the ends carry
    exactly k+1 and k nodes, their guide values q have opposite signs and the
    gap is wider than 1e-3 of the bracket: then the Illinois regula-falsi point
    of the gap is integrated instead, or the gap's midpoint when two such
    probes have not halved the gap.  Either narrows the gap around the level,
    so later midpoints fall outside it.
    """
    x_lo, n_lo, q_lo = -math.inf, -1, math.nan  # deepest point known to hold > k nodes
    x_hi, n_hi, q_hi = math.inf, -1, math.nan   # shallowest known to hold <= k
    if guided:
        for x, c, q in known:
            if c >= k + 1 and x > x_lo:
                x_lo, n_lo, q_lo = x, c, q
            elif c < k + 1 and x < x_hi:
                x_hi, n_hi, q_hi = x, c, q
        if x_lo > x_hi:
            return None
    moved = None    # end replaced by the last regula-falsi probe; an end that
                    # two of them in a row leave standing has its q halved (Illinois)
    gaps = []       # gap width before each guided probe
    while hi - lo > ln_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:   # lo and hi are adjacent doubles
            break
        if mid <= x_lo:
            lo = mid
            continue
        if mid >= x_hi:
            hi = mid
            continue
        x, falsi = mid, False
        gap = x_hi - x_lo
        if (guided and n_lo == k + 1 and n_hi == k and q_lo * q_hi < 0.0
                and gap > 1e-3 * (hi - lo)):
            x = 0.5 * (x_lo + x_hi)
            if len(gaps) < 2 or gap <= 0.5 * gaps[-2]:
                # a point that rounds onto an end moves one double inside
                x = min(max(x_hi - gap * (q_hi / (q_hi - q_lo)),
                            math.nextafter(x_lo, x_hi)), math.nextafter(x_hi, x_lo))
                falsi = True
            gaps.append(gap)
        known.append(_probe(ws, x))
        _, count, q = known[-1]
        if count >= k + 1:
            if falsi and moved == "lo":
                q_hi *= 0.5
            x_lo, n_lo, q_lo = x, count, q
            moved = "lo" if falsi else moved
        else:
            if falsi and moved == "hi":
                q_lo *= 0.5
            x_hi, n_hi, q_hi = x, count, q
            moved = "hi" if falsi else moved
    return hi


def find_spectrum(potential: AdiabaticBranch, rho_max: float,
                  max_levels: int = 8, tol_E: float = DEFAULT_TOL_E,
                  *, dt: float = DEFAULT_DT) -> BoundStateSpectrum:
    """Bound spectrum by node-counting bisection on ln(kappa).

    The node count of the outward solution at energy E equals the number
    of levels below E and decreases monotonically with kappa, so each
    level is bracketed by where the count steps from k+1 to k.  Returned
    energies sit on the deeper bracket edge, whose solution carries
    exactly k nodes; the relative energy width of the final bracket is
    below `tol_E`.  A `tol_E` below the spacing of doubles in ln kappa
    ends each bisection at adjacent doubles instead.

    The brackets are those of integrating every midpoint, but far fewer
    points are integrated.  Every integration is kept, and a midpoint that
    a known node count already settles by monotonicity is not integrated.
    Between known points with k+1 and k nodes the search integrates at the
    Illinois regula-falsi point of the guide value q = g_end exp(-S) (see
    `_guide`), which crosses zero where the count steps, so the known gap
    closes on the level within a few integrations and the remaining
    midpoints are settled unseen; where two such probes have not halved
    the gap, its midpoint is integrated instead.  If the known counts ever
    contradict monotonicity, that level integrates every midpoint.

    Before level k >= 1 is searched, one integration is made where the
    tower predicts it: pi / sqrt(-nu^2) in ln kappa above level k-1, with
    nu^2 taken at the grid point nearest rho = 1 / kappa of level k-1.
    Its count and q join the known points like any other integration, so
    the brackets do not change.  The probe is skipped where that nu^2 is
    not negative (no tower, as beyond a for a > 0), where the nearest grid
    point is the inner radius, and where the prediction falls outside the
    gap that the known counts leave for level k.
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

    ws = _Workspace(potential, potential.R, rho_max, dt)
    R = potential.R

    kappa_floor = math.sqrt(_FLOOR_SCALE) / R
    w_floor, g_floor, n_floor = ws.integrate(-0.5 * kappa_floor * kappa_floor)
    if n_floor > 0:
        raise SolverError(
            f"{n_floor} level(s) lie below the search floor "
            f"E = {-0.5 * kappa_floor ** 2:.6g}; the channel is too deep "
            f"for R = {R:.6g}")

    kappa_edge = _KAPPA_SEARCH_EDGE / rho_max
    if kappa_edge >= kappa_floor:
        raise ConfigError("rho_max too small: search window is empty")
    w_edge, g_edge, total = ws.integrate(-0.5 * kappa_edge * kappa_edge)

    ln_lo_full = math.log(kappa_edge)
    states: list[RadialSolution] = []
    ln_hi = math.log(kappa_floor)
    # every (ln kappa, node count, guide value) integrated so far
    known = [(ln_hi, 0, _guide(ws.h, w_floor, g_floor)),
             (ln_lo_full, total, _guide(ws.h, w_edge, g_edge))]
    # bisection to half the relative energy tolerance (E ~ kappa^2)
    ln_tol = max(0.25 * tol_E, 4.0 * np.finfo(float).eps)
    for k in range(min(max_levels, total)):
        if k:
            # in a channel nu^2 = -b^2 the levels are pi / b apart in ln kappa;
            # b is read at the grid point nearest rho = 1 / kappa of the last level
            i = min(round(-(ln_hi + math.log(R)) / ws.h), ws.n_full - 1)
            if i > 0 and ws.nu2[i] < 0.0:
                x_pred = ln_hi - math.pi / math.sqrt(-ws.nu2[i])
                x_lo = max(x for x, c, _ in known if c >= k + 1)
                x_hi = min([x for x, c, _ in known if c <= k] + [ln_hi])
                if x_lo < x_pred < x_hi:
                    known.append(_probe(ws, x_pred))
        hi = _search_level(ws, k, ln_lo_full, ln_hi, ln_tol, known, guided=True)
        if hi is None:
            hi = _search_level(ws, k, ln_lo_full, ln_hi, ln_tol, known, guided=False)
        sol = ws.solution(-0.5 * math.exp(hi) ** 2)
        if sol.node_count != k:
            raise SolverError(
                f"level {k}: bisection landed on a solution with "
                f"{sol.node_count} nodes; grid too coarse for tol_E = {tol_E}")
        flagged = abs(sol.E) < DEFAULT_BOX_FLAG_FACTOR * 0.5 / (rho_max * rho_max)
        states.append(replace(sol, box_limited=flagged))
        ln_hi = hi

    return BoundStateSpectrum(states=tuple(states), rho_max=rho_max,
                              total_nodes_at_edge=total)


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
    than MAX_GRID_POINTS cutoffs is refused before anything is built.
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
