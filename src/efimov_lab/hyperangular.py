"""Hyperangular eigenvalue branches of three particles with zero-range pairs.

For total angular momentum zero the hyperangular problem reduces to one
transcendental equation per hyperradius rho,

    [-nu cos(nu pi/2) + (8/sqrt(3)) sin(nu pi/6)] / sin(nu pi/2) = x,

where x = rho / (sqrt(mu) a) and nu^2 is the eigenvalue.  The physically
relevant unknown is s = nu^2, which is negative on the lowest branch for
small x; there nu = i b and the equation continues analytically to

    [-b (1 + e^{-pi b}) + (8/sqrt(3)) e^{-pi b/3} (1 - e^{-pi b/3})]
        / (1 - e^{-pi b}) = x,

an exponentially scaled form that stays finite for every b > 0.  This
module evaluates both forms stably on whole arrays, locates the roots of
any branch at many x at once with one bracketed bisection, tabulates
branches over log grids, and assembles the resulting effective radial
potential (nu^2(rho) - 1/4) / (2 rho^2) with optional short-range
regularization (hard wall or cap below a radius R).

A branch has one representation: nu^2 is re-solved exactly at every
radius a solver asks for, or is one constant (at unitarity, or for a
hand-built test branch).  Its table over a log grid is output only; no
solver interpolates it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    BracketError,
    ConfigError,
    GridError,
    LogGrid,
    PoleError,
    SolverError,
    SystemConfig,
)

_EIGHT_OVER_SQRT3 = 8.0 / math.sqrt(3.0)

# value of the left-hand side at s = 0, the branch-0 anchor
LHS_AT_ZERO = (4.0 * math.pi * math.sqrt(3.0) / 9.0 - 1.0) / (math.pi * 0.5)

# radius (in nu) of the Taylor patch across the removable point nu = 4
_NEAR_FOUR_RADIUS = 1e-4

# Taylor data at nu = 4: numerator N and denominator D = sin(nu pi/2)
# both vanish there; N'(4) != 0 so the ratio is finite.
_N1 = -1.0 - 2.0 * math.pi / (3.0 * math.sqrt(3.0))
_N2 = 8.0 * math.pi ** 2 / 9.0
_N3 = 3.0 * math.pi ** 2 / 4.0 + math.pi ** 3 / (54.0 * math.sqrt(3.0))
_D1 = math.pi / 2.0
_D3 = -math.pi ** 3 / 8.0

_MAX_EXPANSIONS = 60

# poles sit at even integer nu >= 2 except nu = 4 where the numerator
# also vanishes; branch k >= 2 lives between consecutive genuine poles
_POLE_FLAG_DISTANCE = 1e-8

# |sin(nu pi/2)| below which an evaluation counts as sitting on a pole;
# bracketing and bisection refuse only exact poles
_POLE_TOL = 1e-12
_BRACKET_POLE_TOL = 1e-300

# stay this far below nu^2 = 4 when bracketing branch-0 roots; the pole
# guard in _lhs_positive trips about 2.6e-12 from the pole itself
_BRANCH0_GAP_FLOOR = 1e-11


def _lhs_negative(b: np.ndarray) -> np.ndarray:
    """Left-hand side at s = -b^2, b > 0, safe for arbitrarily large b."""
    pb = np.pi * b
    em_full = -np.expm1(-pb)          # 1 - e^{-pi b}
    em_third = -np.expm1(-pb / 3.0)   # 1 - e^{-pi b/3}
    e_third = np.exp(-pb / 3.0)
    num = -b * (2.0 - em_full) + _EIGHT_OVER_SQRT3 * e_third * em_third
    with np.errstate(divide="ignore", invalid="ignore"):
        # em_full vanishes only when b underflows to ~0
        return np.where(em_full == 0.0, LHS_AT_ZERO, num / em_full)


def _lhs_near_four(h):
    """Series for the removable point, h = nu - 4, |h| small."""
    num = _N1 + h * (0.5 * _N2 + h * (_N3 / 6.0))
    den = _D1 + h * h * (_D3 / 6.0)
    return num / den


def _lhs_positive(nu: np.ndarray, pole_tol: float) -> np.ndarray:
    """Left-hand side at s = nu^2 > 0 with argument reduction.

    sin and cos of nu pi/2 are computed from the residue of nu modulo 4
    so that cancellation near large even nu does not degrade accuracy.
    """
    k = np.round(nu / 2.0)
    r = nu - 2.0 * k
    sign = 1.0 - 2.0 * (k % 2.0)
    sin_half = sign * np.sin(0.5 * np.pi * r)
    cos_half = sign * np.cos(0.5 * np.pi * r)
    r6 = nu - 12.0 * np.round(nu / 12.0)
    sin_sixth = np.sin(np.pi / 6.0 * r6)
    num = -nu * cos_half + _EIGHT_OVER_SQRT3 * sin_sixth
    h = nu - 4.0
    near_four = np.abs(h) <= _NEAR_FOUR_RADIUS
    # the numerator vanishes with sin(nu pi/2) at nu = 0 as well, so only
    # k >= 1 away from nu = 4 is a genuine pole
    pole = (np.abs(sin_half) < pole_tol) & ~near_four & (k >= 1.0)
    if pole.any():
        i = int(np.argmax(pole))
        kp = int(k[i])
        raise PoleError(
            f"eigenvalue function has a pole at nu = {2 * kp} "
            f"(nu^2 = {(2 * kp) ** 2}); requested nu^2 = {nu[i] * nu[i]:.17g}")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(near_four, _lhs_near_four(h), num / sin_half)


def _lhs(s: np.ndarray, pole_tol: float) -> np.ndarray:
    """Left-hand side at every s = nu^2 of a finite float array."""
    if np.all(s < 0.0):  # the whole dimer side, no masks needed
        return _lhs_negative(np.sqrt(-s))
    out = np.full(s.shape, LHS_AT_ZERO)
    neg, pos = s < 0.0, s > 0.0
    out[neg] = _lhs_negative(np.sqrt(-s[neg]))
    out[pos] = _lhs_positive(np.sqrt(s[pos]), pole_tol)
    return out


def eigen_lhs(nu_squared: float) -> float:
    """Evaluate the hyperangular eigenvalue function at s = nu^2.

    Stable on both sides of s = 0 and continuous through it; raises
    :class:`PoleError` when s sits on a genuine pole (even integer nu
    with nonvanishing numerator).  The removable point nu = 4 is bridged
    by a local series.
    """
    s = float(nu_squared)
    if not math.isfinite(s):
        raise ConfigError(f"nu^2 must be finite, got {s!r}")
    return float(_lhs(np.array([s]), _POLE_TOL)[0])


def _at(exc: Exception, index) -> Exception:
    """Tag a solver error with the array element it concerns."""
    exc.index = int(index)
    return exc


def _bisect(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Roots of increasing functions bracketed by f(lo) <= 0 <= f(hi).

    `f(v, idx)` evaluates the functions of elements `idx` at `v`.  Every
    element halves its own bracket until its ends are adjacent doubles or
    f vanishes at a midpoint, so a root never depends on the other
    elements of the batch.  Each root is the bracket end with the smaller
    |f|.
    """
    roots = np.empty(lo.size)
    idx = np.arange(lo.size)
    flo, fhi = f(lo, idx), f(hi, idx)
    while idx.size:
        mid = 0.5 * (lo + hi)
        done = (mid == lo) | (mid == hi) | (flo == 0.0) | (fhi == 0.0)
        if done.any():
            roots[idx[done]] = np.where(np.abs(flo[done]) <= np.abs(fhi[done]),
                                        lo[done], hi[done])
            keep = ~done
            idx, lo, hi, flo, fhi, mid = (
                idx[keep], lo[keep], hi[keep], flo[keep], fhi[keep], mid[keep])
            if not idx.size:
                break
        fm = f(mid, idx)
        # a zero at mid collapses the bracket onto it
        up, down = fm <= 0.0, ~(fm < 0.0)
        lo, flo = np.where(up, mid, lo), np.where(up, fm, flo)
        hi, fhi = np.where(down, mid, hi), np.where(down, fm, fhi)
    return roots


def _branch0_brackets(f, x, todo, lo, hi) -> None:
    """Fill [lo, hi] around the branch-0 root of every element in `todo`.

    The left-hand side is monotone increasing on (-inf, 4), diverging to
    +inf at the nu = 2 pole, so a bracket always exists; its sign at
    s = 0 decides which side to expand.
    """
    up = todo[x[todo] >= LHS_AT_ZERO]
    down = todo[x[todo] < LHS_AT_ZERO]
    lo[up], hi[up] = 0.0, 2.0
    lo[down], hi[down] = -1.0, 0.0
    gap = np.full(x.shape, 2.0)
    for _ in range(_MAX_EXPANSIONS):
        if not up.size:
            break
        up = up[f(hi[up], up) < 0.0]
        gap[up] *= 0.5
        short = gap[up] < _BRANCH0_GAP_FLOOR
        if short.any():
            i = up[np.argmax(short)]
            raise _at(SolverError(
                f"branch 0 root at x = {x[i]:.17g} lies within "
                f"{_BRANCH0_GAP_FLOOR:g} of the pole at nu^2 = 4; double "
                "precision cannot separate them"), i)
        hi[up] = 4.0 - gap[up]
    for _ in range(_MAX_EXPANSIONS):
        if not down.size:
            break
        down = down[f(lo[down], down) > 0.0]
        lo[down] *= 2.0
    for rest in (up, down):
        if rest.size:
            raise _at(BracketError(
                f"no bracket found on branch 0 for x = {x[rest[0]]:.17g}"), rest[0])


def _interval_brackets(f, x, k, todo, lo, hi) -> None:
    """Fill [lo, hi] in s around the root of branch k >= 1 for every element in `todo`.

    Between the two genuine poles bounding the branch the left-hand side
    increases strictly from -inf to +inf (smoothly across the removable
    point nu = 4 on branch 1), so the interval holds exactly one root;
    each end steps toward its pole until the sign is right.
    """
    nu_lo, nu_hi = np.empty(x.shape), np.empty(x.shape)
    for kk in np.unique(k[todo]):
        sel = todo[k[todo] == kk]
        nu_lo[sel], nu_hi[sel] = branch_interval(int(kk))
    for edge, side, s_end, limit in ((nu_lo, 1.0, lo, "-inf"), (nu_hi, -1.0, hi, "+inf")):
        eps = 1e-6 * (nu_hi - nu_lo)
        s_end[todo] = (edge[todo] + side * eps[todo]) ** 2
        left = todo
        for _ in range(_MAX_EXPANSIONS):
            if not left.size:
                break
            fv = f(s_end[left], left)
            left = left[fv > 0.0] if side > 0.0 else left[fv < 0.0]
            eps[left] *= 0.125
            s_end[left] = (edge[left] + side * eps[left]) ** 2
        if left.size:
            i = left[0]
            raise _at(BracketError(
                f"no approach to {limit} near nu = {edge[i]} for x = {x[i]:.17g}"), i)


def _polish(f, root, x) -> tuple[np.ndarray, np.ndarray]:
    """The best of root and its neighbouring doubles, with |f| / max(1, |x|).

    The bisection leaves a sign change of f between adjacent doubles, so
    no residual test can reject its root: near the nu = 2 pole the slope
    grows like x^2 and one ulp can move f by more than any fixed
    tolerance.  The neighbour with the smallest |f| is returned with its
    honest residual.
    """
    cands = np.stack([root, np.nextafter(root, -np.inf), np.nextafter(root, np.inf)])
    vals = np.stack([f(c) for c in cands])
    best = np.argmin(np.abs(vals), axis=0)
    cols = np.arange(root.size)
    return cands[best, cols], np.abs(vals[best, cols]) / np.maximum(1.0, np.abs(x))


def _solve(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots nu^2 on branch k[i] at x[i], and their residuals, as one array solve.

    Errors raised for a single element carry its position as `index`.
    """
    infinite = ~np.isfinite(x)
    if infinite.any():
        raise ConfigError(f"x must be finite, got {float(x[np.argmax(infinite)])!r}")

    def f(s, idx):
        return _lhs(s, _BRACKET_POLE_TOL) - x[idx]

    lo, hi = np.empty(x.shape), np.empty(x.shape)
    _branch0_brackets(f, x, np.flatnonzero(k == 0), lo, hi)
    # a negative k reaches branch_interval, which rejects it
    _interval_brackets(f, x, k, np.flatnonzero(k != 0), lo, hi)
    root = _bisect(f, lo, hi)
    values, residuals = _polish(lambda s: _lhs(s, _POLE_TOL) - x, root, x)
    near = _flag_near_pole(values) & (k > 0)
    if near.any():
        warnings.warn(
            f"root nu^2 = {values[np.argmax(near)]:.12g} lies within "
            f"{_POLE_FLAG_DISTANCE} of a pole; pole classification may be "
            "unreliable", RuntimeWarning)
    return values, residuals


@dataclass(frozen=True)
class EfimovConstants:
    """Root of the resonant (x = 0) equation on the lowest branch.

    `b` is the positive solution of nu = i b, `C = b^2 + 1/4` is the
    strength of the induced -C/rho^2 hyperradial attraction and
    `residual` is |lhs(-b^2)| at the returned root.
    """

    b: float
    C: float
    residual: float


def efimov_constants(tol: float = 1e-10) -> EfimovConstants:
    """Solve the resonant limit of the lowest branch for b and C."""
    if not (0.0 < tol < 1.0):
        raise ConfigError(f"tol must be in (0, 1), got {tol!r}")
    # lhs(-b^2) falls as b grows, so bisect its negative in b directly
    b = float(_bisect(lambda v, idx: -_lhs_negative(v),
                      np.array([0.25]), np.array([4.0]))[0])
    residual = abs(float(_lhs_negative(np.array([b]))[0]))
    if residual > tol:
        raise SolverError(f"resonant root residual {residual:.3e} exceeds tol {tol:.3e}")
    return EfimovConstants(b=b, C=b * b + 0.25, residual=residual)


@dataclass(frozen=True)
class NuSquared:
    """A single eigenvalue root nu^2 at fixed x.

    `residual` is |F(value) - x| / max(1, |x|), the solver's relative
    closing error; `near_pole` marks roots within 1e-8 of a genuine
    pole of F, where the equation loses conditioning.
    """

    value: float
    branch_index: int
    residual: float
    near_pole: bool = False

    @property
    def lam(self) -> float:
        """Angular eigenvalue lambda = nu^2 - 4."""
        return self.value - 4.0


def _flag_near_pole(s):
    """Whether each s = nu^2 lies within 1e-8 (in nu) of a genuine pole."""
    s = np.asarray(s, dtype=float)
    nu = np.sqrt(np.maximum(s, 0.0))
    k = np.round(nu / 2.0)
    # nu = 4 is removable, nothing to misclassify there
    return ((s >= 0.0) & (k >= 1.0) & (k != 2.0)
            & (np.abs(nu - 2.0 * k) <= _POLE_FLAG_DISTANCE))


def _root(value, branch_index: int, residual) -> NuSquared:
    return NuSquared(value=float(value), branch_index=branch_index,
                     residual=float(residual),
                     near_pole=bool(_flag_near_pole(value)))


def solve_branch0(x: float) -> NuSquared:
    """Root of the eigenvalue equation on the lowest branch, s = nu^2 < 4."""
    values, residuals = _solve(np.array([float(x)]), np.zeros(1, dtype=int))
    return _root(values[0], 0, residuals[0])


def branch_interval(branch_index: int) -> tuple[float, float]:
    """Open interval of nu containing the roots of the given branch.

    Branch 0 lives at nu^2 < 4 (returned as (0, 2) on the real-nu side;
    the branch itself extends to negative nu^2).  Branch 1 spans the two
    subintervals joined at the removable point nu = 4; higher branches
    sit between consecutive genuine poles.
    """
    if branch_index < 0:
        raise ConfigError(f"branch index must be >= 0, got {branch_index}")
    if branch_index == 0:
        return (0.0, 2.0)
    if branch_index == 1:
        return (2.0, 6.0)
    return (2.0 * branch_index + 2.0, 2.0 * branch_index + 4.0)


def solve_branches(x: float, count: int) -> list[NuSquared]:
    """The `count` lowest eigenvalue roots at fixed x, ascending in nu^2.

    Every interval between consecutive genuine poles sweeps the full real
    line exactly once, so branch k holds exactly one root and the list
    never skips a branch.
    """
    count = int(count)
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    values, residuals = _solve(np.full(count, float(x)), np.arange(count))
    return [_root(v, k, r) for k, (v, r) in enumerate(zip(values, residuals))]


def _solve_on_grid(config: SystemConfig, rho: np.ndarray, branch_index: int) -> np.ndarray:
    """Exact nu^2 on one branch at every radius, naming the radius on failure."""
    x = np.atleast_1d(config.x_of_rho(rho))
    try:
        values, _ = _solve(x, np.full(x.shape, branch_index))
    except (BracketError, SolverError) as exc:
        raise SolverError(
            f"branch {branch_index} root failed at rho = "
            f"{rho[exc.index]:.12g}: {exc}") from exc
    return values


@dataclass(frozen=True)
class AdiabaticBranch:
    """nu^2(rho) on one branch, with its table over a log grid.

    :meth:`nu_squared_at` re-solves the eigenvalue equation exactly at
    every requested radius when `config` is present and away from
    unitarity.  At unitarity, or without a `config`, nu^2 is the one
    constant the table holds.  The table itself is never read back: it
    is what `EffectivePotential.table` prints.
    """

    grid: LogGrid
    nu_squared: np.ndarray
    branch_index: int
    config: SystemConfig | None = None

    def __post_init__(self):
        if self.nu_squared.shape != (self.grid.points,):
            raise GridError("branch table shape does not match its grid")
        if self.config is None and np.any(self.nu_squared != self.nu_squared[0]):
            raise ConfigError("a branch without a config must hold one constant nu^2")
        self.nu_squared.setflags(write=False)

    def nu_squared_at(self, rho):
        """nu^2 at arbitrary rho > 0 (scalar or array)."""
        rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
        if np.any(rho_arr <= 0.0) or not np.all(np.isfinite(rho_arr)):
            raise ConfigError("rho must be positive and finite")
        if self.config is None or self.config.at_unitarity:
            out = np.full(rho_arr.shape, float(self.nu_squared[0]))
        else:
            out = _solve_on_grid(self.config, rho_arr, self.branch_index)
        return float(out[0]) if np.ndim(rho) == 0 else out


def constant_branch(value: float, grid: LogGrid, branch_index: int = 0) -> AdiabaticBranch:
    """Branch with a fixed nu^2 everywhere, handy for controlled tests."""
    return AdiabaticBranch(grid=grid,
                           nu_squared=np.full(grid.points, float(value)),
                           branch_index=branch_index, config=None)


def tabulate_branch(config: SystemConfig, grid: LogGrid,
                    branch_index: int = 0) -> AdiabaticBranch:
    """Tabulate nu^2(rho) over the grid in one array solve.

    Every point is bracketed and solved on its own, so a tabulated value
    equals the pointwise root bit for bit and does not depend on the
    grid around it.  At unitarity x = 0 everywhere and the branch is one
    constant.
    """
    if config.at_unitarity:
        root = _solve_on_grid(config, grid.values[:1], branch_index)[0]
        values = np.full(grid.points, root)
    else:
        values = _solve_on_grid(config, grid.values, branch_index)
    return AdiabaticBranch(grid=grid, nu_squared=values,
                           branch_index=branch_index, config=config)


@dataclass(frozen=True)
class HardWall:
    """Wavefunction forced to zero at rho = R; potential unchanged above."""

    R: float

    def __post_init__(self):
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise ConfigError(f"wall radius must be finite and positive, got {self.R!r}")


@dataclass(frozen=True)
class Cap:
    """Potential frozen at its rho = R value for all rho < R."""

    R: float

    def __post_init__(self):
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise ConfigError(f"cap radius must be finite and positive, got {self.R!r}")


Scheme = HardWall | Cap | None


@dataclass(frozen=True)
class EffectivePotential:
    """Hyperradial potential (nu^2(rho) - 1/4) / (2 rho^2) with regularization.

    `scheme = None` keeps the bare inverse-square attraction; bound-state
    search refuses it because the spectrum is then unbounded from below.
    """

    branch: AdiabaticBranch
    scheme: Scheme = None

    @property
    def R(self) -> float | None:
        return None if self.scheme is None else self.scheme.R

    def _bare_v(self, rho: np.ndarray) -> np.ndarray:
        nu2 = np.atleast_1d(np.asarray(self.branch.nu_squared_at(rho)))
        return (nu2 - 0.25) / (2.0 * rho * rho)

    def v_eff(self, rho):
        """Effective potential at rho (scalar or array), internal units."""
        rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
        if np.any(rho_arr <= 0.0) or not np.all(np.isfinite(rho_arr)):
            raise ConfigError("rho must be positive and finite")
        if isinstance(self.scheme, HardWall):
            out = np.full(rho_arr.shape, np.inf)
            outside = rho_arr >= self.scheme.R
            if np.any(outside):
                out[outside] = self._bare_v(rho_arr[outside])
        elif isinstance(self.scheme, Cap):
            out = self._bare_v(np.maximum(rho_arr, self.scheme.R))
        else:
            out = self._bare_v(rho_arr)
        return float(out[0]) if np.ndim(rho) == 0 else out

    def table(self) -> dict[str, np.ndarray]:
        """Columns over the branch grid, ready for serialization."""
        rho = self.branch.grid.values
        if self.branch.config is not None:
            x = np.atleast_1d(self.branch.config.x_of_rho(rho))
        else:
            x = np.full(rho.shape, np.nan)
        nu2 = self.branch.nu_squared
        return {
            "rho": rho.copy(),
            "x": np.asarray(x, dtype=float),
            "nu_squared": nu2.copy(),
            "lambda": nu2 - 4.0,
            "v_eff": self.v_eff(rho),
        }


def effective_potential(branch: AdiabaticBranch, scheme: Scheme = None) -> EffectivePotential:
    """Wrap a tabulated branch as a radial potential with a regularization scheme.

    The regularization radius must not exceed the top of the branch grid;
    radii below the grid are allowed, since nu^2 is exact or constant at
    every radius.
    """
    if scheme is not None:
        if scheme.R > branch.grid.rho_max:
            raise ConfigError(
                f"regularization radius {scheme.R} lies above the grid top "
                f"{branch.grid.rho_max}")
    return EffectivePotential(branch=branch, scheme=scheme)
