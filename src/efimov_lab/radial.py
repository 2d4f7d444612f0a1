"""Hyperradial bound states in the effective potential of a branch.

The radial equation -f'' + [(nu^2(rho) - 1/4) / rho^2] f = 2 E f is
integrated on the uniform grid t = ln(rho/R) after the substitution
f = sqrt(rho) g, which turns it into g'' = [nu^2(rho) + kappa^2 rho^2] g
with kappa = sqrt(-2E).  Node-counting bisection on ln(kappa) then
yields the bound spectrum; for a supercritical branch the levels form a
geometric tower whose ratio is set by the imaginary order b.

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
    ConfigError,
    InsufficientNodesError,
    SolverError,
    UnregularizedPotentialError,
)
from .hyperangular import Cap, EffectivePotential

DEFAULT_DT = 1.0 / 512.0
DEFAULT_TAIL_FACTOR = 36.0
DEFAULT_BOX_FLAG_FACTOR = 100.0
# grid points allowed in one workspace, 1000 times the 9,433 of the README
# spectrum run; a dt that needs more is refused before anything is allocated
MAX_GRID_POINTS = 10_000_000

_KAPPA_SEARCH_EDGE = 0.03   # kappa * rho_max at the shallow search edge
_FLOOR_SCALE = 10.0         # |E_floor| in units of 1/(2 R^2)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    def __init__(self, potential: EffectivePotential, inner_radius: float,
                 rho_max: float, dt: float):
        if not (math.isfinite(rho_max) and rho_max > inner_radius):
            raise ConfigError(
                f"rho_max must exceed the inner radius {inner_radius}, got {rho_max!r}")
        if not (0.0 < dt < 1.0):
            raise ConfigError(f"dt must be in (0, 1), got {dt!r}")
        self.R = inner_radius
        self.rho_max = rho_max
        self.T = math.log(rho_max / inner_radius)
        if self.T / dt > MAX_GRID_POINTS - 1:
            raise ConfigError(
                f"dt = {dt!r} needs {self.T / dt:.3g} grid steps over t = ln(rho/R) "
                f"in [0, {self.T:.6g}]; at most {MAX_GRID_POINTS} points are allowed")
        self.n_full = int(math.ceil(self.T / dt)) + 1
        self.h = self.T / (self.n_full - 1)
        t = self.h * np.arange(self.n_full)
        self.rho = inner_radius * np.exp(t)
        self.rho2 = self.rho * self.rho
        self.nu2 = np.asarray(potential.branch.nu_squared_at(self.rho), dtype=float)
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

    def integrate(self, E: float) -> RadialSolution:
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
        rho = self.rho[:n]
        return RadialSolution(E=E, kappa=kappa, node_count=nodes + cap_nodes,
                              rho=rho, f=g * np.sqrt(rho), R=self.R)

    def node_count(self, kappa: float) -> int:
        return self.integrate(-0.5 * kappa * kappa).node_count


def integrate_radial(potential: EffectivePotential, E: float, rho_max: float,
                     *, dt: float = DEFAULT_DT) -> RadialSolution:
    """Integrate outward from the regularization radius at fixed E < 0."""
    if potential.scheme is None:
        raise UnregularizedPotentialError(
            "integration from rho = 0 is ill-defined for the bare "
            "inverse-square attraction; use HardWall or Cap, or the "
            "cutoff-based collapse_probe")
    ws = _Workspace(potential, potential.R, rho_max, dt)
    return ws.integrate(E)


def find_spectrum(potential: EffectivePotential, rho_max: float,
                  max_levels: int = 8, tol_E: float = 1e-8,
                  *, dt: float = DEFAULT_DT) -> BoundStateSpectrum:
    """Bound spectrum by node-counting bisection on ln(kappa).

    The node count of the outward solution at energy E equals the number
    of levels below E and decreases monotonically with kappa, so each
    level is bracketed by where the count steps from k+1 to k.  Returned
    energies sit on the deeper bracket edge, whose solution carries
    exactly k nodes; the relative energy width of the final bracket is
    below `tol_E`.  A midpoint that an earlier integration already
    settles by that monotonicity is not integrated again, so the
    brackets are those of integrating every midpoint.
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
    n_floor = ws.node_count(kappa_floor)
    if n_floor > 0:
        raise SolverError(
            f"{n_floor} level(s) lie below the search floor "
            f"E = {-0.5 * kappa_floor ** 2:.6g}; the channel is too deep "
            f"for R = {R:.6g}")

    kappa_edge = _KAPPA_SEARCH_EDGE / rho_max
    if kappa_edge >= kappa_floor:
        raise ConfigError("rho_max too small: search window is empty")
    total = ws.node_count(kappa_edge)

    ln_lo_full = math.log(kappa_edge)
    states: list[RadialSolution] = []
    ln_hi = math.log(kappa_floor)
    # every (ln kappa, node count) integrated so far; the count falls as
    # kappa grows, so a known point can settle a later midpoint unseen
    known = [(ln_hi, n_floor), (ln_lo_full, total)]
    # bisection to half the relative energy tolerance (E ~ kappa^2)
    ln_tol = max(0.25 * tol_E, 4.0 * np.finfo(float).eps)
    for k in range(min(max_levels, total)):
        # deepest point known to hold > k nodes, shallowest known to hold <= k;
        # points integrated while bisecting for k only become its bracket ends
        known_lo = max((x for x, c in known if c >= k + 1), default=-math.inf)
        known_hi = min((x for x, c in known if c < k + 1), default=math.inf)
        lo, hi = ln_lo_full, ln_hi
        sol = None  # the integrated solution at hi, when there is one
        while hi - lo > ln_tol:
            mid = 0.5 * (lo + hi)
            if mid <= known_lo:
                lo = mid
            elif mid >= known_hi:
                hi, sol = mid, None
            else:
                kappa = math.exp(mid)
                probe = ws.integrate(-0.5 * kappa * kappa)
                known.append((mid, probe.node_count))
                if probe.node_count >= k + 1:
                    lo = mid
                else:
                    hi, sol = mid, probe
        E = -0.5 * math.exp(hi) ** 2
        # x ** 2 rounds through pow, which may differ from kappa * kappa
        if sol is None or sol.E != E:
            sol = ws.integrate(E)
        if sol.node_count != k:
            raise SolverError(
                f"level {k}: bisection landed on a solution with "
                f"{sol.node_count} nodes; grid too coarse for tol_E = {tol_E}")
        flagged = abs(sol.E) < DEFAULT_BOX_FLAG_FACTOR * 0.5 / (rho_max * rho_max)
        states.append(replace(sol, box_limited=flagged))
        ln_hi = hi

    return BoundStateSpectrum(states=tuple(states), rho_max=rho_max,
                              total_nodes_at_edge=total)


@dataclass(frozen=True)
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


def node_analysis(solution: RadialSolution, *, kappa_rho_max: float = 0.2,
                  wall_factor: float = 2.0,
                  min_interior: int = 3) -> NodeReport:
    """Locate nodes of f by sign changes with linear interpolation in t.

    Raises :class:`InsufficientNodesError` when fewer than `min_interior`
    nodes survive the interior window; deeper levels or a larger domain
    give more usable nodes.
    """
    if not (math.isfinite(kappa_rho_max) and kappa_rho_max > 0.0):
        raise ConfigError(f"kappa_rho_max must be finite and > 0, got {kappa_rho_max!r}")
    if not (math.isfinite(wall_factor) and wall_factor >= 0.0):
        raise ConfigError(f"wall_factor must be finite and >= 0, got {wall_factor!r}")
    f = solution.f
    rho = solution.rho
    t = np.log(rho)
    positions = []
    n = len(f)
    i = 0
    while i < n - 1:
        a, b = f[i], f[i + 1]
        if a == 0.0:
            if i > 0:
                positions.append(rho[i])
            i += 1
            continue
        if a * b < 0.0:
            frac = a / (a - b)
            positions.append(math.exp(t[i] + frac * (t[i + 1] - t[i])))
        i += 1
    if n and f[-1] == 0.0:
        positions.append(rho[-1])

    positions = np.array(positions)
    ratios = positions[1:] / positions[:-1] if len(positions) > 1 else np.empty(0)

    lo_edge = wall_factor * solution.R
    hi_edge = kappa_rho_max / solution.kappa if solution.kappa > 0 else np.inf
    keep = (positions >= lo_edge) & (positions <= hi_edge)
    interior = positions[keep]
    if len(interior) < max(min_interior, 2):
        raise InsufficientNodesError(
            f"{len(interior)} interior node(s) in the window "
            f"[{lo_edge:.3g}, {hi_edge:.3g}]; at least {min_interior} needed "
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


@dataclass(frozen=True)
class ProbeResult:
    """Node counts of the unregularized problem versus inner cutoff."""

    cutoffs: np.ndarray
    counts: np.ndarray
    slope_per_decade: float
    reference_slope: float
    E: float
    rho_out: float

    def __post_init__(self):
        self.cutoffs.setflags(write=False)
        self.counts.setflags(write=False)


def collapse_probe(potential: EffectivePotential, E: float, base_cutoff: float,
                   decades: int, per_decade: int = 1,
                   *, dt: float = DEFAULT_DT) -> ProbeResult:
    """Count nodes at fixed E while the inner cutoff shrinks decade by decade.

    Only meaningful for the unregularized potential: each decade of
    cutoff adds b ln(10) / pi nodes when the branch is supercritical, the
    discrete signature of the collapse.  The outer end of the integration
    is fixed by the tail cutoff at kappa rho = DEFAULT_TAIL_FACTOR, so all
    runs share their outer region exactly.  A sweep whose grids together
    exceed MAX_GRID_POINTS is refused before anything is integrated.
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

    if not (0.0 < dt < 1.0):
        raise ConfigError(f"dt must be in (0, 1), got {dt!r}")

    # each cutoff gets a grid of its own, of at least 2 points, out to rho_out;
    # logs taken apart keep the total finite however far the sweep reaches
    n_cutoffs = decades * per_decade + 1
    points = 2 * n_cutoffs
    if points <= MAX_GRID_POINTS:
        cutoffs = base_cutoff * 10.0 ** (-np.arange(n_cutoffs) / per_decade)
        points = int(np.sum(np.ceil((math.log(rho_out) - np.log(cutoffs)) / dt) + 1.0))
    if points > MAX_GRID_POINTS:
        raise ConfigError(
            f"decades = {decades} with per_decade = {per_decade} needs at least {points} "
            f"grid points over {n_cutoffs} cutoffs; at most {MAX_GRID_POINTS} are allowed")
    counts = np.empty(len(cutoffs), dtype=int)
    for j, rc in enumerate(cutoffs):
        ws = _Workspace(potential, float(rc), rho_out, dt)
        counts[j] = ws.node_count(kappa)

    k_axis = np.arange(len(cutoffs)) / per_decade
    slope = float(np.polyfit(k_axis, counts.astype(float), 1)[0])

    nu2_inner = potential.branch.nu_squared_at(smallest)
    if nu2_inner < 0.0:
        reference = math.sqrt(-nu2_inner) * math.log(10.0) / math.pi
    else:
        reference = float("nan")
    return ProbeResult(cutoffs=cutoffs, counts=counts,
                       slope_per_decade=slope, reference_slope=reference,
                       E=E, rho_out=rho_out)
