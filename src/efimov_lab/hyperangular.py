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
any branch at many x at once with one array solve (each element brackets
its root, and `core.bracketed_roots` narrows the bracket down to adjacent
doubles), tabulates branches over log grids, and assembles the resulting
effective radial potential (nu^2(rho) - 1/4) / (2 rho^2) with optional
short-range regularization (hard wall or cap below a radius R).

Every bracket end next to a genuine pole of the left-hand side, on any
branch, steps toward it by factors of 8 and stops 1e-11 short of it in
nu^2; a root closer to a pole than that is refused with a SolverError
naming the branch, x and the pole.  The search therefore never evaluates
at a pole, and only `eigen_lhs` checks for one.  The residual of a root
is the search's own |lhs - x| / max(1, |x|) at it.

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
    ConfigError,
    GridError,
    LogGrid,
    PoleError,
    SolverError,
    SystemConfig,
    bracketed_roots,
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

# poles sit at even integer nu >= 2 except nu = 4 where the numerator
# also vanishes; branch k >= 2 lives between consecutive genuine poles
_POLE_FLAG_DISTANCE = 1e-8

# |sin(nu pi/2)| below which `eigen_lhs` counts its argument as sitting
# on a pole
_POLE_TOL = 1e-12

# no bracket end comes closer than this in nu^2 to a genuine pole, on any
# branch, and a root inside it is refused.  Near nu = 2 that is |x| above
# about 1.5e12, where one ulp of nu^2 moves the left-hand side by about
# 1e-4 of |x|
_POLE_FLOOR = 1e-11


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


def _lhs_positive(nu: np.ndarray) -> np.ndarray:
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
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(h) <= _NEAR_FOUR_RADIUS, _lhs_near_four(h), num / sin_half)


def _lhs(s: np.ndarray) -> np.ndarray:
    """Left-hand side at every s = nu^2 of a finite float array."""
    if np.all(s < 0.0):  # the whole dimer side, no masks needed
        return _lhs_negative(np.sqrt(-s))
    out = np.full(s.shape, LHS_AT_ZERO)
    neg, pos = s < 0.0, s > 0.0
    out[neg] = _lhs_negative(np.sqrt(-s[neg]))
    out[pos] = _lhs_positive(np.sqrt(s[pos]))
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
    nu = math.sqrt(max(s, 0.0))
    k = round(nu / 2.0)
    # the numerator vanishes with sin(nu pi/2) at nu = 0 as well, so only
    # k >= 1 away from nu = 4 is a genuine pole
    if (k >= 1 and abs(nu - 4.0) > _NEAR_FOUR_RADIUS
            and abs(math.sin(0.5 * math.pi * (nu - 2.0 * k))) < _POLE_TOL):
        raise PoleError(f"eigenvalue function has a pole at nu = {2 * k} "
                        f"(nu^2 = {(2 * k) ** 2}); requested nu^2 = {s:.17g}")
    return float(_lhs(np.array([s]))[0])


def _at(exc: Exception, index) -> Exception:
    """Tag a solver error with the array element it concerns."""
    exc.index = int(index)
    return exc


def _brackets(f, x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[lo, hi] in s around the root of branch k[i] at x[i], for every element.

    Each branch holds exactly one root: the left-hand side increases
    strictly over it, from -inf (as s -> -inf on branch 0, at the lower
    pole otherwise) to +inf at the upper pole, smoothly across the
    removable point nu = 4 on branch 1.  Branch 0 below `LHS_AT_ZERO`
    starts from [-(|x| + 3)^2, 0], since lhs(-b^2) <= -b + 0.3 for every
    b >= 3; above it the lower end is s = 0.  Every end next to a pole
    steps toward it by a factor of 8 in nu until the sign is right, and
    stops at `_POLE_FLOOR`.
    """
    lo, hi = np.zeros(x.shape), np.zeros(x.shape)
    below = (k == 0) & (x < LHS_AT_ZERO)
    with np.errstate(over="ignore"):
        lo[below] = -(np.abs(x[below]) + 3.0) ** 2
    if np.isinf(lo).any():
        raise ConfigError(
            f"x = {x[np.argmax(np.isinf(lo))]:.17g} is too large in magnitude: its "
            "branch-0 root nu^2 ~ -x^2 overflows a double")
    nu_lo, nu_hi = np.empty(x.shape), np.empty(x.shape)
    for kk in np.unique(k):
        # a negative k reaches branch_interval, which rejects it
        nu_lo[k == kk], nu_hi[k == kk] = branch_interval(int(kk))
    for todo, edge, side, end in ((np.flatnonzero(k > 0), nu_lo, 1.0, lo),
                                  (np.flatnonzero(~below), nu_hi, -1.0, hi)):
        eps = 1e-6 * (nu_hi - nu_lo)
        while todo.size:
            pole = edge[todo] ** 2
            s = (edge[todo] + side * eps[todo]) ** 2
            at_floor = side * (s - pole) <= _POLE_FLOOR
            end[todo] = np.where(at_floor, pole + side * _POLE_FLOOR, s)
            wrong = side * f(end[todo], todo) > 0.0
            if (wrong & at_floor).any():
                i = todo[np.argmax(wrong & at_floor)]
                raise _at(SolverError(
                    f"branch {k[i]} root at x = {x[i]:.17g} lies within "
                    f"{_POLE_FLOOR:g} of the pole at nu^2 = {edge[i] ** 2:g}; double "
                    "precision cannot separate them"), i)
            todo = todo[wrong]
            eps[todo] *= 0.125
    return lo, hi


def _solve(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots nu^2 on branch k[i] at x[i], and their residuals, as one array solve.

    Errors raised for a single element carry its position as `index`.
    """
    infinite = ~np.isfinite(x)
    if infinite.any():
        raise ConfigError(f"x must be finite, got {float(x[np.argmax(infinite)])!r}")

    def f(s, idx):
        return _lhs(s) - x[idx]

    values, closing = bracketed_roots(f, *_brackets(f, x, k))
    near = _flag_near_pole(values) & (k > 0)
    if near.any():
        warnings.warn(
            f"root nu^2 = {values[np.argmax(near)]:.12g} lies within "
            f"{_POLE_FLAG_DISTANCE} of a pole; pole classification may be "
            "unreliable", RuntimeWarning)
    return values, closing / np.maximum(1.0, np.abs(x))


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
    # lhs(-b^2) falls as b grows, so solve for its negative in b directly
    roots, closing = bracketed_roots(lambda v, idx: -_lhs_negative(v),
                                      np.array([0.25]), np.array([4.0]))
    b, residual = float(roots[0]), float(closing[0])
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
    except SolverError as exc:
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
