"""Mean-field energy density of zero-range matter and its stability.

A contact interaction of scattering length a contributes the familiar
t0 n^2 terms to the energy density (t0 = -4 pi a in internal units,
attraction meaning t0 < 0); degenerate fermions add the kinetic density
tau_F.  Because every term is a pure power of the density n, stability
is decided by exponent bookkeeping: if the highest power carries a
negative coefficient the energy per particle is unbounded below, and
otherwise any interior minimum of e(n) = epsilon(n)/n marks saturation.

Whatever this classification says, it is a statement about the
mean-field functional only; see `CORRELATION_CAVEAT`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, SolverError

TAU_F_COEFF = 0.6 * (1.5 * math.pi ** 2) ** (2.0 / 3.0)

CORRELATION_CAVEAT = (
    "Mean-field saturation is not stability of the underlying zero-range "
    "system: short-range few-body correlations produce collapsed states "
    "whose energy is invisible to a density functional, so an unbounded "
    "tower of deep levels survives any n^3 or density-dependent "
    "stabilizer reported as Saturating here.")


class Statistics(enum.Enum):
    BOSE = "bose"
    FERMI = "fermi"


class StabilizerKind(enum.Enum):
    NONE = "none"
    THREE_BODY = "threebody"
    DENSITY_DEPENDENT = "dd"


@dataclass(frozen=True)
class Stabilizer:
    """Repulsive (or not) higher-order term: t3 n^3 or t3 n^(alpha+2)."""

    kind: StabilizerKind
    t3: float = 0.0
    alpha: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.t3) and self.t3 >= 0.0):
            raise ConfigError(
                f"stabilizers are repulsive: t3 must be finite and >= 0, got {self.t3!r}")
        if self.kind is StabilizerKind.DENSITY_DEPENDENT:
            if self.alpha is None or not (math.isfinite(self.alpha) and self.alpha > 0.0):
                raise ConfigError(
                    f"density-dependent stabilizer needs alpha > 0, got {self.alpha!r}")
        elif self.alpha is not None:
            raise ConfigError(f"alpha only applies to the density-dependent kind")
        if self.kind is StabilizerKind.NONE and self.t3 != 0.0:
            raise ConfigError("a bare model must not carry a t3 coupling")

    @classmethod
    def none(cls) -> "Stabilizer":
        return cls(kind=StabilizerKind.NONE)

    @classmethod
    def three_body(cls, t3: float) -> "Stabilizer":
        return cls(kind=StabilizerKind.THREE_BODY, t3=float(t3))

    @classmethod
    def density_dependent(cls, t3: float, alpha: float | None) -> "Stabilizer":
        return cls(kind=StabilizerKind.DENSITY_DEPENDENT, t3=float(t3),
                   alpha=None if alpha is None else float(alpha))

    @property
    def power(self) -> float:
        """Density power of the stabilizer term in the energy density."""
        if self.kind is StabilizerKind.DENSITY_DEPENDENT:
            return 2.0 + self.alpha
        return 3.0


# statistical weight of the stabilizer term when none is given explicitly
_DEFAULT_C3 = {
    (Statistics.BOSE, StabilizerKind.THREE_BODY): 1.0 / 6.0,
    (Statistics.BOSE, StabilizerKind.DENSITY_DEPENDENT): 1.0 / 2.0,
    (Statistics.FERMI, StabilizerKind.THREE_BODY): 1.0 / 16.0,
    (Statistics.FERMI, StabilizerKind.DENSITY_DEPENDENT): 1.0 / 16.0,
}


@dataclass(frozen=True)
class MatterModel:
    """Uniform matter with contact attraction and an optional stabilizer.

    `c3 = None` picks the conventional statistical weight for the
    stabilizer term (1/6 for a bosonic three-body contact, 1/16 for the
    fermionic terms, 1/2 for a bosonic density-dependent coupling).
    """

    statistics: Statistics
    t0: float
    stabilizer: Stabilizer
    c3: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.t0):
            raise ConfigError(f"t0 must be finite, got {self.t0!r}")
        if self.c3 is not None and not math.isfinite(self.c3):
            raise ConfigError(f"c3 must be finite, got {self.c3!r}")
        if self.c3 is not None and self.stabilizer.kind is StabilizerKind.NONE:
            raise ConfigError("c3 has no effect without a stabilizer")

    @property
    def c3_effective(self) -> float:
        if self.stabilizer.kind is StabilizerKind.NONE:
            return 0.0
        if self.c3 is not None:
            return self.c3
        return _DEFAULT_C3[(self.statistics, self.stabilizer.kind)]

    @property
    def c3_defaulted(self) -> bool:
        return self.c3 is None and self.stabilizer.kind is not StabilizerKind.NONE

    def energy_terms(self) -> tuple[tuple[float, float], ...]:
        """Energy density as combined power-law terms ((coeff, power), ...).

        Derivatives and minimization downstream are exact because the
        functional never leaves this representation.
        """
        terms: dict[float, float] = {}

        def add(coeff, power):
            if coeff != 0.0:
                terms[power] = terms.get(power, 0.0) + coeff

        if self.statistics is Statistics.FERMI:
            add(0.5 * TAU_F_COEFF, 5.0 / 3.0)
            add(0.375 * self.t0, 2.0)
        else:
            add(0.5 * self.t0, 2.0)
        if self.stabilizer.kind is not StabilizerKind.NONE:
            add(self.c3_effective * self.stabilizer.t3, self.stabilizer.power)
        # re-drop any cancellation from combining equal powers
        return tuple(sorted((c, p) for p, c in terms.items() if c != 0.0))


def _eval_terms(terms, n, shift):
    """Sum of c n^(p + shift) over the (c, p) terms, zeros shaped like n if none."""
    out = np.zeros(np.shape(n))
    for c, p in terms:
        out += c * n ** (p + shift)
    return out


def kinetic_density_fermi(n):
    """Kinetic energy density tau_F(n) of an ideal two-component Fermi gas."""
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < 0.0) or not np.all(np.isfinite(n_arr)):
        raise ConfigError("density must be nonnegative and finite")
    out = TAU_F_COEFF * n_arr ** (5.0 / 3.0)
    return float(out) if np.ndim(n) == 0 else out


def energy_density(model: MatterModel, n):
    """Energy density epsilon(n) at density n (scalar or array)."""
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < 0.0) or not np.all(np.isfinite(n_arr)):
        raise ConfigError("density must be nonnegative and finite")
    out = _eval_terms(model.energy_terms(), n_arr, 0.0)
    return float(out) if np.ndim(n) == 0 else out


def energy_per_particle(model: MatterModel, n):
    """e(n) = epsilon(n) / n for n > 0."""
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr <= 0.0) or not np.all(np.isfinite(n_arr)):
        raise ConfigError("energy per particle needs n > 0")
    out = _eval_terms(model.energy_terms(), n_arr, -1.0)
    return float(out) if np.ndim(n) == 0 else out


class Classification(enum.Enum):
    COLLAPSE_UNBOUNDED_BELOW = "CollapseUnboundedBelow"
    SATURATING = "Saturating"
    TRIVIAL_MINIMUM_AT_ZERO = "TrivialMinimumAtZero"


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the mean-field stability scan.

    For `SATURATING`, `n_sat` is the interior stationary point of
    e(n) = epsilon / n (equivalently the zero of the pressure
    n^2 de/dn) and `e_min = e(n_sat) < 0`.  The `caveat` field repeats
    `CORRELATION_CAVEAT` verbatim on every report.
    """

    classification: Classification
    model: MatterModel
    n_sat: float | None
    e_min: float | None
    caveat: str = CORRELATION_CAVEAT

    def to_dict(self) -> dict:
        stab = self.model.stabilizer
        return {
            "classification": self.classification.value,
            "n_sat": self.n_sat,
            "e_min": self.e_min,
            "model": {
                "statistics": self.model.statistics.value,
                "t0": self.model.t0,
                "stabilizer": stab.kind.value,
                "t3": stab.t3,
                "alpha": stab.alpha,
                "c3": self.model.c3_effective,
                "c3_defaulted": self.model.c3_defaulted,
            },
            "caveat": self.caveat,
        }


# points of the log scan that locates the minimum before Newton polishing
_SCAN_POINTS = 4001


def _scan_bounds(terms) -> tuple[float, float]:
    """Log-scan window bracketing every pairwise term balance point."""
    scales = []
    for i in range(len(terms)):
        ci, pi = terms[i]
        for j in range(i + 1, len(terms)):
            cj, pj = terms[j]
            if pi == pj:
                continue
            scales.append((abs(ci) / abs(cj)) ** (1.0 / (pj - pi)))
    if not scales:
        scales = [1.0]
    return min(scales) * 1e-4, max(scales) * 1e4


def classify_stability(model: MatterModel, *, tol: float = 1e-10) -> StabilityReport:
    """Classify the density dependence of e(n) = epsilon(n) / n.

    The highest power decides boundedness; bounded functionals are
    scanned on a log grid spanning all term-balance scales and an
    interior negative minimum is polished by Newton iteration on the
    exact derivative to relative tolerance `tol`.
    """
    if not (0.0 < tol < 1e-2):
        raise ConfigError(f"tol must be in (0, 1e-2), got {tol!r}")
    terms = model.energy_terms()
    if not terms:
        return StabilityReport(Classification.TRIVIAL_MINIMUM_AT_ZERO, model,
                               n_sat=0.0, e_min=0.0)
    lead_coeff, lead_power = max(terms, key=lambda t: t[1])
    if lead_coeff < 0.0:
        return StabilityReport(Classification.COLLAPSE_UNBOUNDED_BELOW, model,
                               n_sat=None, e_min=None)
    if all(c >= 0.0 for c, _ in terms):
        return StabilityReport(Classification.TRIVIAL_MINIMUM_AT_ZERO, model,
                               n_sat=0.0, e_min=0.0)

    # e(n) and its exact derivatives from the power-law representation
    def e(n):
        return _eval_terms(terms, n, -1.0)

    def de(n):
        return sum(c * (p - 1.0) * n ** (p - 2.0) for c, p in terms)

    def d2e(n):
        return sum(c * (p - 1.0) * (p - 2.0) * n ** (p - 3.0) for c, p in terms)

    n_lo, n_hi = _scan_bounds(terms)
    grid = np.geomspace(n_lo, n_hi, _SCAN_POINTS)
    vals = e(grid)
    i_min = int(np.argmin(vals))
    if vals[i_min] >= 0.0:
        return StabilityReport(Classification.TRIVIAL_MINIMUM_AT_ZERO, model,
                               n_sat=0.0, e_min=0.0)
    if i_min == 0 or i_min == _SCAN_POINTS - 1:
        raise SolverError("stability scan minimum fell on the window edge; "
                          "term balance scales are badly conditioned")

    lo, hi = grid[i_min - 1], grid[i_min + 1]
    n_sat = grid[i_min]
    for _ in range(100):
        step = de(n_sat) / d2e(n_sat)
        n_new = n_sat - step
        if not (lo < n_new < hi):
            # fall back to bisection on the derivative sign
            n_new = math.sqrt(lo * hi)
            if de(n_new) > 0.0:
                hi = n_new
            else:
                lo = n_new
        if abs(n_new - n_sat) <= tol * 1e-3 * abs(n_new):
            n_sat = n_new
            break
        n_sat = n_new
    residual = abs(n_sat * n_sat * de(n_sat))
    scale = max(abs(_eval_terms(terms, n_sat, 0.0)), 1e-300)
    if residual > math.sqrt(tol) * scale:
        raise SolverError(f"saturation point did not converge: "
                          f"pressure residual {residual:.3e}")
    return StabilityReport(Classification.SATURATING, model,
                           n_sat=float(n_sat), e_min=float(e(n_sat)))
