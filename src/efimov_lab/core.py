"""Unit conventions, validated configuration and logarithmic grids.

Everything downstream works in internal units hbar = m = 1, where m is
the mass of one particle.  Lengths are measured in an arbitrary internal
unit L; energies then carry hbar^2/(m L^2).  Reporting units are either
the regularization radius R or the modulus of the scattering length, and
conversions are pure rescalings handled here so the physics modules
never see unit logic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

HBAR = 1.0
MASS_SCALE = 1.0


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


class LengthUnit(enum.Enum):
    """Reporting length unit for CLI output and summaries."""

    R = "R"
    ABS_A = "abs_a"


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
    length_unit: LengthUnit = LengthUnit.R
    hbar: float = HBAR
    mass_scale: float = MASS_SCALE

    def __post_init__(self):
        a = self.scattering_length_a
        mu = self.reduced_mass_mu
        if math.isnan(a) or a == 0.0:
            raise ConfigError(f"scattering length must be nonzero and not NaN, got {a!r}")
        if not (math.isfinite(mu) and mu > 0.0):
            raise ConfigError(f"reduced mass must be finite and positive, got {mu!r}")
        if self.length_unit is LengthUnit.ABS_A and math.isinf(a):
            raise ConfigError("reporting in units of |a| requires a finite scattering length")
        if self.hbar != HBAR or self.mass_scale != MASS_SCALE:
            raise ConfigError("internal units are fixed at hbar = m = 1")

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

    def report_scale(self, R: float | None = None) -> float:
        """Length scale (in internal units) of the reporting unit."""
        if self.length_unit is LengthUnit.R:
            if R is None:
                raise ConfigError("reporting in units of R requires the regularization radius")
            if not (math.isfinite(R) and R > 0.0):
                raise ConfigError(f"regularization radius must be finite and positive, got {R!r}")
            return R
        return abs(self.scattering_length_a)


def make_config(a: float,
                mu: float = 0.5,
                length_unit: LengthUnit | str = LengthUnit.R) -> SystemConfig:
    """Validated constructor for :class:`SystemConfig`.

    Accepts `length_unit` as the enum or its string value.
    """
    if isinstance(length_unit, str):
        try:
            length_unit = LengthUnit(length_unit)
        except ValueError:
            valid = ", ".join(u.value for u in LengthUnit)
            raise ConfigError(f"unknown length unit {length_unit!r}; expected one of {valid}")
    return SystemConfig(scattering_length_a=float(a),
                        reduced_mass_mu=float(mu),
                        length_unit=length_unit)


def length_to_report(value, scale: float):
    """Convert a length from internal units to reporting units."""
    return np.asarray(value, dtype=float) / scale if np.ndim(value) else float(value) / scale


def length_from_report(value, scale: float):
    """Convert a length from reporting units to internal units."""
    return np.asarray(value, dtype=float) * scale if np.ndim(value) else float(value) * scale


def energy_to_report(value, scale: float):
    """Convert an energy from internal units to hbar^2/(m scale^2) units."""
    s2 = scale * scale
    return np.asarray(value, dtype=float) * s2 if np.ndim(value) else float(value) * s2


def energy_from_report(value, scale: float):
    """Convert an energy from hbar^2/(m scale^2) units to internal units."""
    s2 = scale * scale
    return np.asarray(value, dtype=float) / s2 if np.ndim(value) else float(value) / s2


@dataclass(frozen=True)
class LogGrid:
    """Strictly increasing grid with a constant ratio between neighbours."""

    rho_min: float
    rho_max: float
    points: int
    values: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.rho_min) and self.rho_min > 0.0):
            raise GridError(f"rho_min must be finite and positive, got {self.rho_min!r}")
        if not (math.isfinite(self.rho_max) and self.rho_max > self.rho_min):
            raise GridError("rho_max must be finite and larger than rho_min")
        if self.points < 2:
            raise GridError(f"a log grid needs at least 2 points, got {self.points}")
        v = self.values
        if v.shape != (self.points,):
            raise GridError("grid array shape does not match the declared point count")
        ratios = v[1:] / v[:-1]
        # constant-ratio check guards against hand-built non-geometric arrays
        if not np.allclose(ratios, ratios[0], rtol=1e-12, atol=0.0):
            raise GridError("grid spacing is not logarithmic to 1e-12")
        v.setflags(write=False)

    @classmethod
    def make(cls, rho_min: float, rho_max: float, points: int) -> "LogGrid":
        if points < 2:
            raise GridError(f"a log grid needs at least 2 points, got {points}")
        if not (math.isfinite(rho_min) and rho_min > 0.0):
            raise GridError(f"rho_min must be finite and positive, got {rho_min!r}")
        if not (math.isfinite(rho_max) and rho_max > rho_min):
            raise GridError("rho_max must be finite and larger than rho_min")
        values = np.geomspace(rho_min, rho_max, points)
        # endpoints exact so downstream range checks are not off by 1 ulp
        values[0] = rho_min
        values[-1] = rho_max
        return cls(rho_min=float(rho_min), rho_max=float(rho_max),
                   points=int(points), values=values)

    @property
    def log_step(self) -> float:
        """Spacing in t = ln(rho), constant by construction."""
        return math.log(self.rho_max / self.rho_min) / (self.points - 1)

    def __len__(self) -> int:
        return self.points

    def __iter__(self):
        return iter(self.values)
