"""Error types, validated configuration, logarithmic grids and the root solver.

Everything works in internal units hbar = m = 1, where m is the mass of
one particle.  Lengths are measured in an arbitrary internal unit L;
energies then carry hbar^2/(m L^2).  Every result, in the library and
on the command line, is reported in these units.

`bracketed_roots` narrows brackets around roots of continuous increasing
functions down to adjacent doubles.  It serves the nu^2 roots of
`hyperangular` on branches k >= 1 and on branch 0 at x >= 0, the
resonant b, and the mean-field saturation density n_sat (`meanfield`).
Callers only choose the starting bracket, and may hand over f at its ends
where they have evaluated it already.  Branch 0 at x < 0, the dimer side,
steps from a Newton estimate one double at a time to the same contract,
and hands over only a root that the steps do not reach.  The level search
in `radial`, which looks for steps of a node count, has its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# points allowed in one grid and roots in one branch list; a larger request
# is refused before anything is allocated.  At the bound, branches,
# potential and meanfield each peak below 1 GB.
MAX_GRID_POINTS = 1_000_000

# the level search's default log-grid step h and relative energy tolerance
# (`radial`); here, so that the command-line parser can read them without
# importing the solvers
DEFAULT_DT = 1.0 / 32.0
DEFAULT_TOL_E = 1e-10


class EfimovLabError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(EfimovLabError, ValueError):
    """Invalid physical configuration (zero a, non-positive mu, ...)."""


class GridError(EfimovLabError, ValueError):
    """Invalid grid specification."""


class PoleError(EfimovLabError, ArithmeticError):
    """Evaluation requested at a genuine pole of the eigenvalue function."""


class SolverError(EfimovLabError, RuntimeError):
    """An iterative solver failed to reach its tolerance contract."""


class UnregularizedPotentialError(EfimovLabError, ValueError):
    """Bound-state search requested on a bare inverse-square attraction."""


class InsufficientNodesError(EfimovLabError, ValueError):
    """Too few interior nodes survive the analysis window."""


@dataclass(frozen=True)
class SystemConfig:
    """Physical configuration shared by all solvers.

    `scattering_length_a` is signed and may be +/-inf (resonant limit).
    `reduced_mass_mu` is the reduced mass entering the dimensionless
    combination x = rho / (sqrt(mu) a); for three identical particles
    of unit mass it is 1/2.
    """

    scattering_length_a: float
    reduced_mass_mu: float = 0.5

    def __post_init__(self):
        a = self.scattering_length_a
        mu = self.reduced_mass_mu
        if math.isnan(a) or a == 0.0:
            raise ConfigError(f"scattering length must be nonzero and not NaN, got {a!r}")
        if not (math.isfinite(mu) and mu > 0.0):
            raise ConfigError(f"reduced mass must be finite and positive, got {mu!r}")

    @property
    def inverse_scattering_length(self) -> float:
        """1/a, exactly 0.0 in the resonant limit a = +/-inf."""
        a = self.scattering_length_a
        return 0.0 if math.isinf(a) else 1.0 / a

    @property
    def at_unitarity(self) -> bool:
        return math.isinf(self.scattering_length_a)

    def x_of_rho(self, rho):
        """Signed sweep coordinate x = rho / (sqrt(mu) a) for scalar or array rho.

        The sign of x follows the sign of a; callers must not infer
        bound versus virtual character from it.  An x that overflows is
        refused, naming the first rho where it does.
        """
        rho = np.asarray(rho, dtype=float)
        if (rho <= 0.0).any() or not np.isfinite(rho).all():
            raise ConfigError("rho must be positive and finite")
        with np.errstate(over="ignore"):
            x = rho * (self.inverse_scattering_length / math.sqrt(self.reduced_mass_mu))
        infinite = ~np.isfinite(x)
        if infinite.any():
            raise ConfigError(
                f"x = rho / (sqrt(mu) a) overflows at rho = {float(rho[infinite].flat[0])!r} "
                f"for a = {self.scattering_length_a!r}")
        return float(x) if x.ndim == 0 else x


def make_config(a: float, mu: float = 0.5) -> SystemConfig:
    """Validated constructor for :class:`SystemConfig`."""
    return SystemConfig(scattering_length_a=float(a), reduced_mass_mu=float(mu))


@dataclass(frozen=True, eq=False)
class LogGrid:
    """Strictly increasing grid with a constant ratio between neighbours.

    `values` is derived from the bounds and the point count, never
    passed in, so every grid is geometric by construction.
    """

    rho_min: float
    rho_max: float
    points: int
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.rho_min) and self.rho_min > 0.0):
            raise GridError(f"rho_min must be finite and positive, got {self.rho_min!r}")
        if not (math.isfinite(self.rho_max) and self.rho_max > self.rho_min):
            raise GridError("rho_max must be finite and larger than rho_min")
        if self.points < 2:
            raise GridError(f"a log grid needs at least 2 points, got {self.points}")
        if self.points > MAX_GRID_POINTS:
            raise GridError(f"a log grid holds at most {MAX_GRID_POINTS} points, "
                            f"got {self.points}")
        values = np.geomspace(self.rho_min, self.rho_max, self.points)
        # endpoints exact so downstream range checks are not off by 1 ulp
        values[0] = self.rho_min
        values[-1] = self.rho_max
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def make(cls, rho_min: float, rho_max: float, points: int) -> "LogGrid":
        return cls(rho_min=float(rho_min), rho_max=float(rho_max), points=int(points))

    @property
    def log_step(self) -> float:
        """Spacing in t = ln(rho), constant by construction."""
        return math.log(self.rho_max / self.rho_min) / (self.points - 1)

    def __len__(self) -> int:
        return self.points


# elements narrowed together; bounds the root search's temporaries to
# about 1 MB whatever the batch size
_SOLVE_CHUNK = 4096


def _not_nan(fv: np.ndarray, v: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """fv, or a SolverError naming the first element where it is NaN."""
    nan = np.isnan(fv)
    if nan.any():
        i = int(np.argmax(nan))
        exc = SolverError(f"the function of element {int(idx[i])} is NaN at {float(v[i])!r}; "
                          f"its bracket cannot narrow")
        exc.index = int(idx[i])
        raise exc
    return fv


def bracketed_roots(f, lo_all: np.ndarray, hi_all: np.ndarray,
                    flo_all: np.ndarray | None = None,
                    fhi_all: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Roots of increasing functions, f <= 0 at lo_all and f >= 0 at hi_all.

    `f(v, idx)` evaluates the functions of elements `idx` at `v`; a caller
    that has already evaluated them at the ends passes those values as
    `flo_all` and `fhi_all`, and f is then not evaluated there again.  Every
    element narrows its own bracket at the Illinois regula-falsi point
    (Dowell & Jarratt, BIT 11, 168 (1971)): the end that two such steps in
    a row leave standing has its weight halved, and a point that rounds
    onto an end moves one double inside.  Where two steps have not halved
    the bracket, the next one is its midpoint.  An element stops when its
    ends are adjacent doubles or f vanishes at one of them, and leaves the
    batch, so an element that arrives finished costs no evaluation.  A root
    never depends on the other elements of the batch, nor on how the batch
    is cut into chunks of `_SOLVE_CHUNK`.  Each root is the bracket end
    with the smaller |f|, returned together with that |f|.  An f that is
    NaN, at an end or inside, would leave its bracket standing for ever;
    it raises :class:`SolverError` carrying the element as `index`.
    """
    roots, closing = np.empty(lo_all.size), np.empty(lo_all.size)
    for start in range(0, lo_all.size, _SOLVE_CHUNK):
        idx = np.arange(start, min(start + _SOLVE_CHUNK, lo_all.size))
        lo, hi = lo_all[idx], hi_all[idx]
        flo = _not_nan(f(lo, idx) if flo_all is None else flo_all[idx], lo, idx)
        fhi = _not_nan(f(hi, idx) if fhi_all is None else fhi_all[idx], hi, idx)
        # a zero at an end collapses the bracket onto it
        hi = np.where(flo == 0.0, lo, hi)
        lo = np.where(fhi == 0.0, hi, lo)
        wlo, whi = flo, fhi            # the values the falsi point is drawn from
        moved = np.zeros(lo.size)      # end the last falsi step replaced: -1 lo, +1 hi
        width1 = width2 = np.full(lo.size, np.inf)  # widths before the last two steps
        while idx.size:
            # halved first, so that ends near -1.8e308 do not overflow; the same
            # double as 0.5 (lo + hi) wherever both ends are normal
            mid = 0.5 * lo + 0.5 * hi
            done = ~((lo < mid) & (mid < hi))
            n_done = np.count_nonzero(done)
            if n_done:
                afl, afh = np.abs(flo[done]), np.abs(fhi[done])
                roots[idx[done]] = np.where(afl <= afh, lo[done], hi[done])
                closing[idx[done]] = np.minimum(afl, afh)
                keep = ~done
                idx, lo, hi, flo, fhi, wlo, whi, moved, width1, width2, mid = (
                    idx[keep], lo[keep], hi[keep], flo[keep], fhi[keep], wlo[keep],
                    whi[keep], moved[keep], width1[keep], width2[keep], mid[keep])
                if not idx.size:
                    break
            width = hi - lo
            falsi = width <= 0.5 * width2
            with np.errstate(invalid="ignore"):   # 0/0 on a bracket collapsed onto a zero
                v = np.fmin(np.fmax(hi - width * (whi / (whi - wlo)), np.nextafter(lo, hi)),
                            np.nextafter(hi, lo))
            v = np.where(falsi, v, mid)
            fv = _not_nan(f(v, idx), v, idx)
            # a zero at v collapses the bracket onto it
            up, down = fv <= 0.0, fv >= 0.0
            side = np.where(up, -1.0, 1.0)
            # the end a second falsi step in a row leaves standing has its weight halved
            half = np.where(falsi & (moved == side), 0.5, 1.0)
            moved = np.where(falsi, side, moved)
            lo, flo = np.where(up, v, lo), np.where(up, fv, flo)
            hi, fhi = np.where(down, v, hi), np.where(down, fv, fhi)
            wlo, whi = np.where(up, fv, half * wlo), np.where(down, fv, half * whi)
            width1, width2 = width, width1
    return roots, closing
