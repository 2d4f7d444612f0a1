"""Error types, validated configuration and logarithmic grids.

Everything works in internal units hbar = m = 1, where m is the mass of
one particle.  Lengths are measured in an arbitrary internal unit L;
energies then carry hbar^2/(m L^2).  Every result, in the library and
on the command line, is reported in these units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

class EfimovLabError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(EfimovLabError, ValueError):
    """Invalid physical configuration (zero a, non-positive mu, ...)."""


class GridError(EfimovLabError, ValueError):
    """Invalid grid specification."""


class PoleError(EfimovLabError, ArithmeticError):
    """Evaluation requested at a genuine pole of the eigenvalue function."""


class BracketError(EfimovLabError, RuntimeError):
    """A root bracket could not be established."""


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
        bound versus virtual character from it.
        """
        rho = np.asarray(rho, dtype=float)
        if np.any(rho <= 0.0) or not np.all(np.isfinite(rho)):
            raise ConfigError("rho must be positive and finite")
        x = rho * (self.inverse_scattering_length / math.sqrt(self.reduced_mass_mu))
        return float(x) if x.ndim == 0 else x


def make_config(a: float, mu: float = 0.5) -> SystemConfig:
    """Validated constructor for :class:`SystemConfig`."""
    return SystemConfig(scattering_length_a=float(a), reduced_mass_mu=float(mu))


@dataclass(frozen=True)
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
