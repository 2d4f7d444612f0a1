"""Mean-field energy density of zero-range matter and its stability.

A contact interaction of scattering length a contributes the familiar
t0 n^2 terms to the energy density (t0 = -4 pi a in internal units,
attraction meaning t0 < 0); degenerate fermions add the kinetic density
tau_F.  Because every term is a pure power of the density n, stability
is decided by exponent bookkeeping: if the highest power carries a
negative coefficient the energy per particle is unbounded below, and
otherwise any interior minimum of e(n) = epsilon(n)/n marks saturation.
Its density n_sat is the zero of the exact derivative e'(n), narrowed to
adjacent doubles by `core.bracketed_roots`, the solver behind every
eigenvalue root as well.

Whatever this classification says, it is a statement about the
mean-field functional only; see `CORRELATION_CAVEAT`.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, SolverError, bracketed_roots

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


def _eval_terms(terms, n, shift, slope=False):
    """Sum of c n^(p + shift) over the (c, p) terms, zeros shaped like n if none.

    With `slope` it is the sum's derivative in n, of terms
    (c n^(p + shift - 1)) (p + shift): the factor comes last, so that c (p +
    shift), which overflows for a c near the largest double and keeps only a
    few digits of a subnormal c, is never formed.  Where the power of n alone
    overflows, or falls below the normal doubles and so loses its digits, the
    term is taken in logs, as exp(ln|c| + ln|factor| + power ln n), which a
    |c| of the other extreme keeps finite and normal.
    """
    out = np.zeros(np.shape(n))
    for c, p in terms:
        q, factor = p + shift, 1.0
        if slope:
            q, factor = q - 1.0, q
        with np.errstate(over="ignore"):
            power = n ** q
            term = c * power * factor
            outside = np.isinf(power) | (power < sys.float_info.min)
            if np.any(outside):
                with np.errstate(divide="ignore"):   # ln 0 = -inf gives the term 0
                    logged = np.exp(math.log(abs(c)) + math.log(abs(factor)) + q * np.log(n))
                term = np.where(outside, math.copysign(1.0, c * factor) * logged, term)
        out += term
    return out


def _couplings(model: MatterModel, power: float) -> str:
    """The model parameters behind its energy term in n^power, for messages."""
    names = []
    if model.statistics is Statistics.FERMI and power == 5.0 / 3.0:
        names.append("the Fermi kinetic term")
    if power == 2.0:
        names.append(f"t0 = {model.t0!r}")
    stab = model.stabilizer
    if stab.kind is not StabilizerKind.NONE and power == stab.power:
        names.append(f"t3 = {stab.t3!r}"
                     + ("" if stab.alpha is None else f", alpha = {stab.alpha!r}")
                     + ("" if model.c3 is None else f", c3 = {model.c3!r}"))
    return " and ".join(names)


def _finite_terms(model: MatterModel, n, shift):
    """`_eval_terms` of the model at n, refusing a sum that leaves the float range.

    The message names the couplings of the term largest in magnitude at the
    first density where the sum is not finite.
    """
    terms = model.energy_terms()
    with np.errstate(over="ignore", invalid="ignore"):
        out = _eval_terms(terms, n, shift)
    bad = ~np.isfinite(out)
    if np.any(bad):
        n_bad = float(np.asarray(n)[bad].flat[0])
        _, power = max(terms, key=lambda t: math.log(abs(t[0])) + (t[1] + shift) * math.log(n_bad))
        raise ConfigError(f"{_couplings(model, power)}: the energy term in n^{power:.6g} "
                          f"overflows at n = {n_bad:.6g}")
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
    out = _finite_terms(model, n_arr, 0.0)
    return float(out) if np.ndim(n) == 0 else out


def energy_per_particle(model: MatterModel, n):
    """e(n) = epsilon(n) / n for n > 0."""
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr <= 0.0) or not np.all(np.isfinite(n_arr)):
        raise ConfigError("energy per particle needs n > 0")
    out = _finite_terms(model, n_arr, -1.0)
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


# points of the log scan that brackets the minimum for the root solver
_SCAN_POINTS = 4001
_LN_MARGIN = math.log(1e4)   # the scan reaches this far past the outer balance points


def _term_overflow(model: MatterModel, power: float, n: float) -> ConfigError:
    return ConfigError(f"{_couplings(model, power)}: the energy term in n^{power:.6g} "
                       f"overflows above n = {n:.6g}, short of the minimum of e(n)")


def _scan_bounds(model: MatterModel, terms) -> tuple[float, float, float | None]:
    """Log-scan window bracketing every pairwise term balance point.

    Returns (n_lo, n_hi, p_top): where a term of e(n) or e'(n) would
    overflow below n_hi, the window stops short of it and p_top is that
    term's power, else None.  Each balance |ci| n^pi = |cj| n^pj is taken
    in logs, so that it cannot overflow, and a window end outside the
    normal doubles is refused, naming the couplings that balance there.
    """
    balances = sorted(((math.log(abs(ci)) - math.log(abs(cj))) / (pj - pi), pi, pj)
                      for i, (ci, pi) in enumerate(terms) for cj, pj in terms[i + 1:])
    (ln_lo, *lo_pair), (ln_hi, *hi_pair) = balances[0], balances[-1]
    for ln_balance, ln_n, (pi, pj) in ((ln_lo, ln_lo - _LN_MARGIN, lo_pair),
                                       (ln_hi, ln_hi + _LN_MARGIN, hi_pair)):
        if not math.log(sys.float_info.min) <= ln_n <= math.log(sys.float_info.max):
            raise ConfigError(
                f"{_couplings(model, pi)} and {_couplings(model, pj)} balance at "
                f"n = 10^{ln_balance / math.log(10.0):.4g}; the scan of e(n) within a "
                f"factor 1e4 of it leaves the float range")
    # every power exceeds 1, so at n >= 1 the terms c n^(p - 1) of e(n) and
    # c (p - 1) n^(p - 2) of e'(n) are at most p |c| n^(p - 1), and their sums
    # at most len(terms) times that; a power of n that overflows on its own is
    # taken in logs (`_eval_terms`); 2.3e-16 covers the rounding of exp(ln n)
    # to n
    ln_room = math.log(sys.float_info.max) - math.log(len(terms))
    ln_top, p_top = min(
        ((ln_room - math.log(abs(c)) - math.log(p)) / (p - 1.0) - 2.3e-16, p)
        for c, p in terms)
    if ln_top >= ln_hi + _LN_MARGIN:
        return math.exp(ln_lo - _LN_MARGIN), math.exp(ln_hi + _LN_MARGIN), None
    if ln_top <= ln_lo - _LN_MARGIN:
        raise _term_overflow(model, p_top, math.exp(ln_top))
    return math.exp(ln_lo - _LN_MARGIN), math.exp(ln_top), p_top


def _refuse_underflowing_minimum(model: MatterModel, terms, grid: np.ndarray) -> None:
    """Refuse a model whose e(n) is negative on the scan only below the normal doubles.

    Each term c n^(p - 1) of e(n) is taken in logs and scaled by the largest
    of them, so the sign of e(n) survives where e(n) itself underflows to 0.
    """
    ln_n = np.log(grid)
    # a power near the largest double takes the log of a term below n = 1 to
    # -inf, a term of 0; the window keeps every term finite above it
    with np.errstate(over="ignore"):
        ln_terms = [math.log(abs(c)) + (p - 1.0) * ln_n for c, p in terms]
    ln_top = np.max(ln_terms, axis=0)
    scaled = sum(math.copysign(1.0, c) * np.exp(t - ln_top) for (c, _), t in zip(terms, ln_terms))
    if not np.any(scaled < 0.0):
        return
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_depth = np.where(scaled < 0.0, ln_top + np.log(-scaled), -np.inf)
    j = int(np.argmax(ln_depth))
    if ln_depth[j] < math.log(sys.float_info.min):
        raise ConfigError(
            f"{' and '.join(_couplings(model, p) for _, p in terms)}: e(n) has its "
            f"minimum near n = {grid[j]:.6g}, where it is about "
            f"-10^{ln_depth[j] / math.log(10.0):.4g}, below the smallest normal double")


def classify_stability(model: MatterModel, *, tol: float = 1e-10) -> StabilityReport:
    """Classify the density dependence of e(n) = epsilon(n) / n.

    The highest power decides boundedness; bounded functionals are
    scanned on a log grid spanning all term-balance scales.  An interior
    negative minimum of the scan brackets the zero of the exact e'(n)
    between its two grid neighbours, and `bracketed_roots` narrows that
    bracket to adjacent doubles.  `tol` gates the result: a pressure
    residual n^2 e'(n) above sqrt(tol) |epsilon(n_sat)| raises
    :class:`SolverError`.  A scan that would leave the float range, at a
    balance point or where a term of e(n) overflows short of its minimum,
    raises :class:`ConfigError` naming the couplings of those terms, and
    so does a minimum of e(n) that lies below the normal doubles.
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

    n_lo, n_hi, p_top = _scan_bounds(model, terms)
    grid = np.geomspace(n_lo, n_hi, _SCAN_POINTS)
    vals = _eval_terms(terms, grid, -1.0)
    i_min = int(np.argmin(vals))
    if p_top is not None and i_min == _SCAN_POINTS - 1:
        raise _term_overflow(model, p_top, n_hi)
    if vals[i_min] > -sys.float_info.min:
        # the minimum reads 0 or a subnormal, whose digits are gone
        _refuse_underflowing_minimum(model, terms, grid)
    if vals[i_min] >= 0.0:
        return StabilityReport(Classification.TRIVIAL_MINIMUM_AT_ZERO, model,
                               n_sat=0.0, e_min=0.0)
    if i_min == 0 or i_min == _SCAN_POINTS - 1:
        raise SolverError("stability scan minimum fell on the window edge; "
                          "term balance scales are badly conditioned")

    # e'(n) = sum c (p - 1) n^(p - 2) rises through zero at the minimum
    roots, closing = bracketed_roots(lambda n, idx: _eval_terms(terms, n, -1.0, slope=True),
                                     grid[i_min - 1:i_min], grid[i_min + 1:i_min + 2])
    n_sat = roots[0]
    e_min = float(_eval_terms(terms, n_sat, -1.0))
    # the pressure n^2 e'(n) against epsilon = n e(n), both divided by n, which
    # may overflow where e(n) does not
    if n_sat * closing[0] > math.sqrt(tol) * max(abs(e_min), 1e-300 / n_sat):
        raise SolverError(f"saturation point did not converge: "
                          f"pressure residual {n_sat * n_sat * closing[0]:.3e}")
    return StabilityReport(Classification.SATURATING, model, n_sat=float(n_sat), e_min=e_min)
