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
any branch at many x at once with one array solve, and tabulates branches
over log grids.  Every root ends on two adjacent doubles between which the
left-hand side crosses x.  On branch 0 at x < 0, the dimer side, four
Newton steps in b on the scaled form land a few doubles from that pair,
and the root steps to it one double at a time: about 6 evaluations of the
left-hand side per root, the Newton steps included.  Every other root is
bracketed, and `core.bracketed_roots` narrows the bracket.

Every bracket end next to a genuine pole of the left-hand side, on any
branch, steps toward it by factors of 8 and stops 1e-11 short of it in
nu^2; a root closer to a pole than that is refused with a SolverError
naming the branch, x and the pole.  The search therefore never evaluates
at a pole, and only `eigen_lhs` checks for one.  The residual of a root
is the search's own |lhs - x| / max(1, |x|) at it.

One object, `AdiabaticBranch`, is both the branch and its hyperradial
potential (nu^2(rho) - 1/4) / (2 rho^2), bare or regularized below a
radius R by a hard wall or a cap.  nu^2 is re-solved exactly at every
radius a solver asks for, or is one constant (at unitarity, or for a
hand-built test branch).  Its table over a log grid is output only; no
solver interpolates it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    MAX_GRID_POINTS,
    ConfigError,
    GridError,
    LogGrid,
    PoleError,
    SolverError,
    SystemConfig,
    _not_nan,
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

# b of the x = 0 root nu^2 = -b^2 on branch 0, where the Newton steps for a
# branch-0 root at x < 0 start; every such root lies at larger b
_B_UNITARITY = 1.0062378251027815

# Newton steps in b toward every branch-0 root at x < 0; four land within
# 2 ulps of the root in b at every such x
_NEWTON_STEPS = 4

# one-double steps from Newton's landing after which a branch-0 root at x < 0
# that has not met its sign change goes to the generic bracket
_WALK_STEPS = 8


def _lhs_negative(b: np.ndarray, slope: bool = False):
    """Left-hand side at s = -b^2, b > 0, safe for arbitrarily large b.

    With `slope`, also its derivative in b, for b bounded away from 0.
    """
    pb = np.pi * b
    em_full = -np.expm1(-pb)          # 1 - e^{-pi b}
    em_third = -np.expm1(-pb / 3.0)   # 1 - e^{-pi b/3}
    e_third = np.exp(-pb / 3.0)
    num = -b * (2.0 - em_full) + _EIGHT_OVER_SQRT3 * e_third * em_third
    with np.errstate(divide="ignore", invalid="ignore"):
        # em_full vanishes only when b underflows to ~0
        lhs = np.where(em_full == 0.0, LHS_AT_ZERO, num / em_full)
    if not slope:
        return lhs
    e_full = 1.0 - em_full
    dnum = (pb * e_full - (1.0 + e_full)
            + (np.pi / 3.0) * _EIGHT_OVER_SQRT3 * e_third * (2.0 * e_third - 1.0))
    return lhs, (dnum - np.pi * e_full * lhs) / em_full


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
    """Left-hand side at every s = nu^2 of a float array, NaN where s is NaN."""
    if np.all(s < 0.0):  # the whole dimer side, no masks needed
        return _lhs_negative(np.sqrt(-s))
    # s < 0 and s > 0 are overwritten below, which leaves s = 0 and NaN
    out = np.where(s == 0.0, LHS_AT_ZERO, np.nan)
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


def _branch0_b(x: np.ndarray) -> np.ndarray:
    """b near the branch-0 root nu^2 = -b^2 at every x < 0.

    `_NEWTON_STEPS` Newton steps in b on lhs(-b^2) = x, each element on its
    own, from b = hypot(x, b_u): the root lies at b > b_u, and b -> -x as
    x -> -inf.
    """
    b = np.hypot(x, _B_UNITARITY)
    for _ in range(_NEWTON_STEPS):
        lhs, slope = _lhs_negative(b, slope=True)
        b = np.maximum(b - (lhs - x) / slope, _B_UNITARITY)
    return b


def _dimer_roots(f, x: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, ...]:
    """Branch-0 roots at x[idx] < 0, one double at a time from Newton's landing.

    Each element starts at s = -b^2, b from `_branch0_b`, and steps one
    double at a time toward its sign change (up where f <= 0) until two
    adjacent doubles give f of opposite signs, or f vanishes.  Of that pair
    it keeps the end with the smaller |f|, the lower one on a tie, and that
    |f|: the contract of `bracketed_roots`.  Returns the roots, their |f|,
    and whether each element is still open after `_WALK_STEPS` steps; the
    root and |f| of an open element mean nothing.  An f that is NaN raises
    :class:`SolverError` naming its element.
    """
    b = _branch0_b(x[idx])
    near = -(b * b)
    fnear = _not_nan(f(near, idx), near, idx)
    far, ffar = near.copy(), fnear.copy()
    up = fnear <= 0.0
    toward = np.where(up, np.inf, -np.inf)
    walking = np.flatnonzero(fnear != 0.0)
    for _ in range(_WALK_STEPS):
        if not walking.size:
            break
        t, at = np.nextafter(near[walking], toward[walking]), idx[walking]
        ft = _not_nan(f(t, at), t, at)
        # the double just taken is the far end of the pair where f has changed
        # sign, and the near end from which the walk goes on everywhere else
        far[walking], ffar[walking] = t, ft
        stay = np.where(up[walking], ft < 0.0, ft > 0.0)
        walking = walking[stay]
        near[walking], fnear[walking] = t[stay], ft[stay]
    # the far end wins where its |f| is smaller, or equal and it is the lower
    # end; the results overwrite the near end, allocated first
    afar, anear = np.abs(ffar, out=ffar), np.abs(fnear, out=fnear)
    np.copyto(near, far, where=(afar < anear) | ((afar == anear) & ~up))
    is_open = np.zeros(idx.size, bool)
    is_open[walking] = True
    return near, np.minimum(anear, afar, out=anear), is_open


def _brackets(f, x: np.ndarray, k: np.ndarray, want: np.ndarray) -> tuple[np.ndarray, ...]:
    """[lo, hi] in s around the root of branch k[i] at x[i], and f at both ends.

    Only the elements where the mask `want` holds are bracketed and evaluated;
    the others keep meaningless ends for the caller to overwrite.

    Each branch holds exactly one root: the left-hand side increases
    strictly over it, from -inf (as s -> -inf on branch 0, at the lower
    pole otherwise) to +inf at the upper pole, smoothly across the
    removable point nu = 4 on branch 1.  Branch 0 below `LHS_AT_ZERO`
    starts from [-(|x| + 3)^2, 0], where the sign is right since
    lhs(-b^2) <= -b + 0.3 for every b >= 3; the caller refuses an x whose
    lower end overflows.  Above `LHS_AT_ZERO` its lower end is s = 0, or,
    beyond x = 12/pi, the asymptote 4 - 48 / (pi x) that the root
    approaches from above, wherever f is negative there.  Every end next to
    a pole steps toward it by a factor of 8 in nu until the sign is right,
    and stops at `_POLE_FLOOR`.  f at s = 0 is LHS_AT_ZERO - x without an
    evaluation.
    """
    lo, hi = np.zeros(x.shape), np.zeros(x.shape)
    below = want & (k == 0) & (x < LHS_AT_ZERO)
    lo[below] = -(np.abs(x[below]) + 3.0) ** 2
    flo, fhi = LHS_AT_ZERO - x, LHS_AT_ZERO - x
    far = np.flatnonzero(want & (k == 0) & (x > 12.0 / np.pi))   # where the asymptote is > 0
    if far.size:
        # pi x overflows above x ~ 5.7e307, where s = 4 puts the root at the pole
        with np.errstate(over="ignore"):
            s = 4.0 - 48.0 / (np.pi * x[far])
        fs = f(s, far)
        lo[far] = np.where(fs < 0.0, s, 0.0)
        flo[far] = np.where(fs < 0.0, fs, flo[far])
    floor = np.flatnonzero(below)
    if floor.size:
        flo[floor] = f(lo[floor], floor)
    nu_lo, nu_hi = _intervals(k)
    # each end moves from its pole by `gap` in nu toward the branch's inside and
    # stops `_POLE_FLOOR` from it in nu^2
    for todo, side, end, fend, pole in ((np.flatnonzero(want & (k > 0)), 1.0, lo, flo, nu_lo),
                                        (np.flatnonzero(want & ~below), -1.0, hi, fhi, nu_hi)):
        gap = 1e-6 * (nu_hi - nu_lo)
        while todo.size:
            s = (pole[todo] + side * gap[todo]) ** 2
            limit = pole[todo] ** 2
            at_limit = side * (s - limit) <= _POLE_FLOOR
            end[todo] = np.where(at_limit, limit + side * _POLE_FLOOR, s)
            fend[todo] = f(end[todo], todo)
            wrong = side * fend[todo] > 0.0
            if (wrong & at_limit).any():
                i = todo[np.argmax(wrong & at_limit)]
                raise _at(SolverError(
                    f"branch {k[i]} root at x = {x[i]:.17g} lies within "
                    f"{_POLE_FLOOR:g} of the pole at nu^2 = {pole[i] ** 2:g}; double "
                    "precision cannot separate them"), i)
            todo = todo[wrong]
            gap[todo] *= 0.125
    return lo, hi, flo, fhi


def _solve(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots nu^2 on branch k[i] at x[i], and their residuals, as one array solve.

    Branch 0 at x < 0 walks from Newton's landing (`_dimer_roots`); an
    element the walk leaves open, and every other element, is bracketed by
    `_brackets` and narrowed by `bracketed_roots`, where an element the walk
    has finished enters as a bracket collapsed onto its root.  Errors raised
    for a single element carry its position as `index`.
    """
    infinite = ~np.isfinite(x)
    if infinite.any():
        raise ConfigError(f"x must be finite, got {float(x[np.argmax(infinite)])!r}")
    dimer = np.flatnonzero((k == 0) & (x < 0.0))
    with np.errstate(over="ignore"):
        floor = -(np.abs(x[dimer]) + 3.0) ** 2
    if np.isinf(floor).any():
        raise ConfigError(
            f"x = {x[dimer[np.argmax(np.isinf(floor))]]:.17g} is too large in magnitude: "
            "its branch-0 root nu^2 ~ -x^2 overflows a double")

    def f(s, idx):
        return _lhs(s) - x[idx]

    values, closing, is_open = np.empty(0), np.empty(0), np.zeros(0, bool)
    if dimer.size:
        values, closing, is_open = _dimer_roots(f, x, dimer)
    # done when the batch is all dimer side and the walk has finished it
    if dimer.size < x.size or is_open.any():
        done = ~is_open
        walked, values, closing = dimer[done], values[done], closing[done]
        want = np.ones(x.size, bool)
        want[walked] = False
        lo, hi, flo, fhi = _brackets(f, x, k, want)
        lo[walked], hi[walked], flo[walked], fhi[walked] = values, values, -closing, closing
        values, closing = bracketed_roots(f, lo, hi, flo, fhi)
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


def _intervals(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ends of the open nu interval of branch k[i], for every element.

    (0, 2) for k = 0, (2, 6) for k = 1 and (2k + 2, 2k + 4) above.
    """
    if (k < 0).any():
        raise ConfigError(f"branch index must be >= 0, got {k[np.argmax(k < 0)]}")
    return np.where(k <= 1, 2.0 * k, 2.0 * k + 2.0), np.where(k == 0, 2.0, 2.0 * k + 4.0)


def branch_interval(branch_index: int) -> tuple[float, float]:
    """Open interval of nu containing the roots of the given branch.

    Branch 0 lives at nu^2 < 4 (returned as (0, 2) on the real-nu side;
    the branch itself extends to negative nu^2).  Branch 1 spans the two
    subintervals joined at the removable point nu = 4; higher branches
    sit between consecutive genuine poles.
    """
    lo, hi = _intervals(np.array([branch_index]))
    return float(lo[0]), float(hi[0])


def solve_branches(x: float, count: int) -> list[NuSquared]:
    """The `count` lowest eigenvalue roots at fixed x, ascending in nu^2.

    Every interval between consecutive genuine poles sweeps the full real
    line exactly once, so branch k holds exactly one root and the list
    never skips a branch.
    """
    count = int(count)
    if not 1 <= count <= MAX_GRID_POINTS:
        raise ConfigError(f"count must be in [1, {MAX_GRID_POINTS}], got {count}")
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


@dataclass(frozen=True, eq=False)
class AdiabaticBranch:
    """nu^2(rho) on one branch and its potential (nu^2 - 1/4) / (2 rho^2).

    :meth:`nu_squared_at` re-solves the eigenvalue equation exactly at
    every requested radius when `config` is present and away from
    unitarity.  At unitarity, or without a `config`, nu^2 is the one
    constant the table holds.  The table over `grid` is never read back
    by a solver: it is what :meth:`table` prints.

    `scheme = None` keeps the bare inverse-square attraction; bound-state
    search refuses it because the spectrum is then unbounded from below.
    A `HardWall` or `Cap` at R, which may not lie above the grid top,
    regularizes the potential below R.
    """

    grid: LogGrid
    nu_squared: np.ndarray
    branch_index: int
    config: SystemConfig | None = None
    scheme: HardWall | Cap | None = None

    def __post_init__(self):
        if self.nu_squared.shape != (self.grid.points,):
            raise GridError("branch table shape does not match its grid")
        if self.config is None and np.any(self.nu_squared != self.nu_squared[0]):
            raise ConfigError("a branch without a config must hold one constant nu^2")
        if self.scheme is not None and self.scheme.R > self.grid.rho_max:
            raise ConfigError(
                f"regularization radius {self.scheme.R} lies above the grid top "
                f"{self.grid.rho_max}")
        self.nu_squared.setflags(write=False)

    @property
    def R(self) -> float | None:
        return None if self.scheme is None else self.scheme.R

    @property
    def threshold(self) -> float:
        """Lowest energy of the channel's continuum.

        On branch 0 for a < 0, where nu^2 -> -x^2 at large rho, it is the
        atom-dimer threshold -1/(2 mu a^2); everywhere else 0.0.
        """
        cfg = self.config
        if (cfg is None or self.branch_index != 0 or cfg.at_unitarity
                or cfg.scattering_length_a > 0.0):
            return 0.0
        inv = cfg.inverse_scattering_length
        return -0.5 * (inv * inv / cfg.reduced_mass_mu)

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

    def _v(self, rho: np.ndarray, nu2_where) -> np.ndarray:
        """The potential at every rho, taking nu^2 from `nu2_where(mask)`.

        nu^2 is asked for only where rho >= R (everywhere without a
        scheme).  Below R the potential is +inf behind a hard wall and its
        value at R under a cap.  Where 2 rho^2 is not a normal double the
        quotient is taken one factor of rho at a time, which stays finite
        wherever the potential is; a radius where it is not is refused.
        """
        above = np.ones(rho.shape, bool) if self.scheme is None else rho >= self.scheme.R
        out = np.empty(rho.shape)
        if above.any():
            r = rho[above]
            num = nu2_where(above) - 0.25
            v = np.empty(r.shape)
            normal = (r > 1e-150) & (r < 1e150)
            far = ~normal
            # nu^2 ~ -x^2 puts v_eff near -1 / (2 mu a^2), which overflows
            # for |a| below about 1e-154 at any rho
            with np.errstate(over="ignore"):
                v[normal] = num[normal] / (2.0 * r[normal] * r[normal])
                v[far] = num[far] / r[far] / (2.0 * r[far])
            if not np.all(np.isfinite(v)):
                raise ConfigError(
                    f"v_eff = (nu^2 - 1/4) / (2 rho^2) overflows at "
                    f"rho = {float(r[~np.isfinite(v)][0]):.6g}")
            out[above] = v
        if not above.all():
            out[~above] = math.inf if isinstance(self.scheme, HardWall) else self.v_eff(self.R)
        return out

    def v_eff(self, rho):
        """Effective potential at rho (scalar or array), internal units."""
        rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
        if np.any(rho_arr <= 0.0) or not np.all(np.isfinite(rho_arr)):
            raise ConfigError("rho must be positive and finite")
        out = self._v(rho_arr, lambda above: self.nu_squared_at(rho_arr[above]))
        return float(out[0]) if np.ndim(rho) == 0 else out

    def table(self) -> dict[str, np.ndarray]:
        """Columns over the grid, ready for serialization.

        The potential reads the tabulated nu^2; only a cap above the
        grid's first point solves one more root, at R.
        """
        rho, nu2, cfg = self.grid.values, self.nu_squared, self.config
        return {
            "rho": rho.copy(),
            "x": np.full(rho.shape, np.nan) if cfg is None else cfg.x_of_rho(rho),
            "nu_squared": nu2.copy(),
            "lambda": nu2 - 4.0,
            "v_eff": self._v(rho, lambda above: nu2[above]),
        }


def constant_branch(value: float, grid: LogGrid, branch_index: int = 0) -> AdiabaticBranch:
    """Branch with a fixed nu^2 everywhere, handy for controlled tests."""
    return AdiabaticBranch(grid=grid,
                           nu_squared=np.full(grid.points, float(value)),
                           branch_index=branch_index, config=None)


@functools.cache
def _unitarity_root(branch_index: int) -> float:
    """nu^2 on branch `branch_index` at x = 0, the same at every rho and mu."""
    values, _ = _solve(np.zeros(1), np.array([branch_index]))
    return float(values[0])


def tabulate_branch(config: SystemConfig, grid: LogGrid,
                    branch_index: int = 0) -> AdiabaticBranch:
    """Tabulate nu^2(rho) over the grid in one array solve.

    Every point is bracketed and solved on its own, so a tabulated value
    equals the pointwise root bit for bit and does not depend on the
    grid around it.  At unitarity x = 0 everywhere and the branch is one
    constant, the x = 0 root, which is solved once per branch and process.
    """
    if config.at_unitarity:
        values = np.full(grid.points, _unitarity_root(branch_index))
    else:
        values = _solve_on_grid(config, grid.values, branch_index)
    return AdiabaticBranch(grid=grid, nu_squared=values,
                           branch_index=branch_index, config=config)


def effective_potential(branch: AdiabaticBranch,
                        scheme: HardWall | Cap | None = None) -> AdiabaticBranch:
    """The branch as a radial potential regularized by `scheme`.

    The result shares the branch's read-only table.  The regularization
    radius must not exceed the top of the branch grid; radii below the
    grid are allowed, since nu^2 is exact or constant at every radius.
    """
    return replace(branch, scheme=scheme)
