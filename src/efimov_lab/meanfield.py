"""Mean-field energy density of zero-range matter and its stability.

A contact interaction of scattering length a contributes the familiar
t0 n^2 terms to the energy density (t0 = -4 pi a in internal units,
attraction meaning t0 < 0); degenerate fermions add the kinetic density
tau_F.  Because every term is a pure power of the density n, stability
is decided by exponent bookkeeping: if the highest power carries a
negative coefficient the energy per particle is unbounded below, and
with no negative term e(n) = epsilon(n)/n has its minimum at n = 0.
Otherwise t0 < 0 and the stabilizer c n^p, p > 2, is positive.  In
v = n^(p - 2), e'(n) = -B + C v + A v^(-s) with B = |t0 term|,
C = c (p - 1), A = 2/3 of the kinetic coefficient (0 for bosons) and
s = (1/3) / (p - 2); it is convex in v.  Without the kinetic term it
vanishes at v = B / C; with it, it is least at v* = (s A / C)^(1/(s+1)),
and where negative there it rises through zero in [v*, B / C].  That
bracket, narrowed to adjacent doubles by `core.bracketed_roots` (the
solver behind every eigenvalue root as well), gives n_sat, and
saturation where e(n_sat) < 0.

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
            if self.alpha is None or not (math.isfinite(self.alpha) and 2.0 + self.alpha > 2.0):
                raise ConfigError(
                    f"density-dependent stabilizer needs alpha > 0 with 2 + alpha > 2 "
                    f"in doubles, got {self.alpha!r}")
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
        """Energy density as power-law terms ((coeff, power), ...), sorted by coefficient.

        The powers 5/3, 2 and 3 or 2 + alpha never coincide, so no two terms
        combine; derivatives and minimization downstream are exact because
        the functional never leaves this representation.
        """
        terms = [(0.5 * self.t0, 2.0)]
        if self.statistics is Statistics.FERMI:
            terms = [(0.5 * TAU_F_COEFF, 5.0 / 3.0), (0.375 * self.t0, 2.0)]
        if self.stabilizer.kind is not StabilizerKind.NONE:
            terms.append((self.c3_effective * self.stabilizer.t3, self.stabilizer.power))
        return tuple(sorted(t for t in terms if t[0] != 0.0))


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
    """Outcome of the mean-field stability classification.

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


_LN_MIN, _LN_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)


def _ln_overflow(terms, orders) -> tuple[float, float]:
    """(ln n, p): the least density where a term of a sum in `orders` may overflow, and its p.

    Order 0 is epsilon(n), of terms c n^p, 1 is e(n), of c n^(p - 1), and 2 is
    e'(n), of c (p - 1) n^(p - 2).  Below the bound, taken in logs, each term
    that grows with n stays within 1/len(terms) of the largest double, which
    keeps the sum finite; e'(n)'s t0 term is a constant, and its kinetic term
    stays below 1e103 at every normal n.  (inf, nan) where no term grows.
    """
    ln_room = _LN_MAX - math.log(max(len(terms), 1))
    return min([(math.inf, math.nan)] + [
        ((ln_room - math.log(abs(c)) - (math.log(p - 1.0) if k == 2 else 0.0)) / (p - k), p)
        for c, p in terms for k in orders if p > k])


def ln_overflow_density(model: MatterModel) -> float:
    """ln of the least density where a term of epsilon(n) or e(n) may overflow, or inf."""
    return _ln_overflow(model.energy_terms(), (0, 1))[0]


def _balance(model: MatterModel, low, high) -> ConfigError:
    """Refusal naming the terms (c, p) of epsilon(n) that balance near a bracket end."""
    (ci, pi), (cj, pj) = low, high
    ln_n = (math.log(abs(ci)) - math.log(abs(cj))) / (pj - pi)
    return ConfigError(f"{_couplings(model, pi)} and {_couplings(model, pj)} balance at "
                       f"n = 10^{ln_n / math.log(10.0):.4g}; e(n) has no minimum within "
                       f"the normal doubles")


def _bracket(model: MatterModel, terms) -> tuple[float, float, float, float] | None:
    """(lo, hi, e'(lo), e'(hi)) around the zero of e'(n) where e(n) turns up.

    None where e'(n) >= 0 at v*, so everywhere (see the module docstring).
    The ends are taken in logs, B / C widened by 1e-9 in ln v and a few
    doubles in n, past the rounding of those logs, and clipped to the normal
    doubles and below where a term of e(n) or e'(n) may overflow.  A zero
    past a clipped end is refused, naming the couplings there.
    """
    by_power = sorted(terms, key=lambda t: t[1])
    (c0, _), (ch, ph) = by_power[-2:]
    ln_c = math.log(ch) + math.log(ph - 1.0)
    ln_root = (math.log(-c0) - ln_c) / (ph - 2.0)
    margin = 1e-9 / (ph - 2.0) + 4.0 * sys.float_info.epsilon * (1.0 + abs(ln_root))
    ln_lo, ln_hi = ln_root - margin, ln_root + margin
    if len(by_power) == 3:
        ck, pk = by_power[0]
        s = (2.0 - pk) / (ph - 2.0)
        ln_lo = (math.log(s) + math.log(ck * (pk - 1.0)) - ln_c) / (ph - pk)
    ln_top, p_top = _ln_overflow(terms, (1, 2))
    # 2.3e-16 covers the rounding of exp(ln n) to n
    ln_top = min(ln_top - 2.3e-16, _LN_MAX)
    lo, hi = (np.exp(min(max(ln, _LN_MIN), ln_top)) for ln in (ln_lo, ln_hi))
    f_lo, f_hi = (float(_eval_terms(terms, n, -1.0, slope=True)) for n in (lo, hi))
    if f_lo >= 0.0:
        if not _LN_MIN <= ln_lo <= _LN_MAX:
            raise _balance(model, by_power[0], by_power[-1])
        return None
    if f_hi < 0.0:
        if ln_hi > _LN_MAX:
            raise _balance(model, by_power[-2], by_power[-1])
        raise ConfigError(f"{_couplings(model, p_top)}: the energy term in n^{p_top:.6g} "
                          f"overflows above n = {math.exp(ln_top):.6g}, short of the "
                          f"minimum of e(n)")
    return lo, hi, f_lo, f_hi


def classify_stability(model: MatterModel, *, tol: float = 1e-10) -> StabilityReport:
    """Classify the density dependence of e(n) = epsilon(n) / n.

    The highest power decides boundedness; `bracketed_roots` narrows the zero
    of e'(n) in the bracket of `_bracket` to adjacent doubles, and the sign of
    e(n) there tells saturation from a trivial minimum at n = 0.  `tol` gates
    the result: a pressure residual n^2 e'(n) above sqrt(tol) |epsilon(n_sat)|,
    plus what the step of e'(n) across n_sat's neighbouring doubles adds,
    raises :class:`SolverError`.  A minimum that `_bracket` refuses, or that
    lies below the normal doubles, raises :class:`ConfigError`.
    """
    if not (0.0 < tol < 1e-2):
        raise ConfigError(f"tol must be in (0, 1e-2), got {tol!r}")
    terms = model.energy_terms()
    trivial = StabilityReport(Classification.TRIVIAL_MINIMUM_AT_ZERO, model,
                              n_sat=0.0, e_min=0.0)
    if not terms:
        return trivial
    lead_coeff, _ = max(terms, key=lambda t: t[1])
    if lead_coeff < 0.0:
        return StabilityReport(Classification.COLLAPSE_UNBOUNDED_BELOW, model,
                               n_sat=None, e_min=None)
    if all(c >= 0.0 for c, _ in terms):
        return trivial
    bracket = _bracket(model, terms)
    if bracket is None:
        return trivial

    roots, closing = bracketed_roots(lambda n, idx: _eval_terms(terms, n, -1.0, slope=True),
                                     *(np.array([v]) for v in bracket))
    n_sat = roots[0]
    e_min = float(_eval_terms(terms, n_sat, -1.0))
    named = " and ".join(_couplings(model, p) for _, p in terms)
    if e_min > -sys.float_info.min:
        # e(n_sat) is not negative, or a subnormal whose digits are gone: its sign
        # is taken in logs, each term c n^(p - 1) scaled by the largest
        ln_terms = [math.log(abs(c)) + (p - 1.0) * math.log(n_sat) for c, p in terms]
        ln_top = max(ln_terms)
        scaled = sum(math.copysign(math.exp(t - ln_top), c) for (c, _), t in zip(terms, ln_terms))
        if scaled < 0.0 and (ln_depth := ln_top + math.log(-scaled)) < _LN_MIN:
            raise ConfigError(
                f"{named}: e(n) has its minimum near n = {n_sat:.6g}, where it is about "
                f"-10^{ln_depth / math.log(10.0):.4g}, below the smallest normal double")
    if e_min >= 0.0:
        return trivial
    # the pressure n^2 e'(n) against epsilon = n e(n), both divided by n, which
    # may overflow where e(n) does not.  No double lies nearer the zero of e'(n)
    # than n_sat's neighbours, and across them e'(n) steps by about n e''(n) 2.2e-16,
    # which for alpha of 1e12 or more exceeds sqrt(tol) |e(n)|: that step is allowed
    up, down = (float(_eval_terms(terms, np.nextafter(n_sat, to), -1.0, slope=True))
                for to in (math.inf, 0.0))
    step = 0.5 * abs(up - down)
    if n_sat * (closing[0] - step) > math.sqrt(tol) * max(abs(e_min), 1e-300 / n_sat):
        raise SolverError(f"{named}: saturation point did not converge: "
                          f"pressure residual {n_sat * n_sat * closing[0]:.3e}")
    return StabilityReport(Classification.SATURATING, model, n_sat=float(n_sat), e_min=e_min)
