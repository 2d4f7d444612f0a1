"""Mean-field stability against direct formulas and a dense-scan oracle.

The oracle path never touches the power-law term bookkeeping of the
library: epsilon(n) is written out longhand per statistics and
stabilizer, the saturation density comes from a brute-force log scan
with parabolic refinement, and boundedness from the sign of the
highest-power coefficient assembled by hand.
"""

import contextlib
import io
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from efimov_lab import (
    CORRELATION_CAVEAT,
    Classification,
    ConfigError,
    MatterModel,
    Stabilizer,
    StabilizerKind,
    SolverError,
    Statistics,
    classify_stability,
    energy_density,
    energy_per_particle,
    kinetic_density_fermi,
    meanfield,
)
from efimov_lab.cli import main

TAU_F_AT_1 = 3.617528156010963     # 0.6 (1.5 pi^2)^(2/3)
EPS_FERMI_FREE_AT_1 = 1.8087640780054815

FERMI_DD_T0M4_NSAT = 6.9434309012024535
FERMI_DD_T0M4_EMIN = -0.8188309090697993
FERMI_TB_T0M6_NSAT = 13.997169044067968
FERMI_TB_T0M6_EMIN = -8.743277481450359


def eps_oracle(statistics, t0, kind, t3=0.0, alpha=None, c3=None):
    """epsilon(n) written out directly, plus the hand-built term list."""
    terms = []
    if statistics is Statistics.FERMI:
        terms.append((0.3 * (1.5 * math.pi ** 2) ** (2.0 / 3.0), 5.0 / 3.0))
        terms.append((0.375 * t0, 2.0))
    else:
        terms.append((0.5 * t0, 2.0))
    if kind is not StabilizerKind.NONE:
        if c3 is None:
            c3 = {
                (Statistics.BOSE, StabilizerKind.THREE_BODY): 1.0 / 6.0,
                (Statistics.BOSE, StabilizerKind.DENSITY_DEPENDENT): 1.0 / 2.0,
                (Statistics.FERMI, StabilizerKind.THREE_BODY): 1.0 / 16.0,
                (Statistics.FERMI, StabilizerKind.DENSITY_DEPENDENT): 1.0 / 16.0,
            }[(statistics, kind)]
        power = 3.0 if kind is StabilizerKind.THREE_BODY else 2.0 + alpha
        terms.append((c3 * t3, power))

    def eps(n):
        return sum(c * n ** p for c, p in terms)

    return eps, terms


def nsat_oracle(eps, n_lo=1e-6, n_hi=1e4, points=100_000):
    """Saturation density by dense log scan plus parabolic refinement.

    Returns (n_sat, e_min) or None when e = eps / n never goes negative
    on the window.
    """
    grid = np.geomspace(n_lo, n_hi, points)
    e = np.array([eps(n) / n for n in grid])
    i = int(np.argmin(e))
    if e[i] >= 0.0:
        return None
    assert 0 < i < points - 1, "oracle scan window too narrow"
    t = np.log(grid[i - 1:i + 2])
    y = e[i - 1:i + 2]
    denom = y[0] - 2.0 * y[1] + y[2]
    t_min = t[1] - 0.5 * (t[2] - t[0]) / 2.0 * (y[2] - y[0]) / denom
    n_sat = math.exp(t_min)
    return n_sat, eps(n_sat) / n_sat


def model(statistics, t0, kind=StabilizerKind.NONE, t3=0.0, alpha=None,
          c3=None):
    if kind is StabilizerKind.NONE:
        stab = Stabilizer.none()
    elif kind is StabilizerKind.THREE_BODY:
        stab = Stabilizer.three_body(t3)
    else:
        stab = Stabilizer.density_dependent(t3, alpha)
    return MatterModel(statistics=statistics, t0=t0, stabilizer=stab, c3=c3)


# --- energy density against the longhand formula ---------------------

def test_free_fermi_gas_frozen_values():
    assert kinetic_density_fermi(1.0) == pytest.approx(TAU_F_AT_1, rel=1e-13)
    m = model(Statistics.FERMI, 0.0)
    assert energy_density(m, 1.0) == pytest.approx(EPS_FERMI_FREE_AT_1, rel=1e-13)
    assert energy_density(m, 2.0) / energy_density(m, 1.0) == pytest.approx(
        2.0 ** (5.0 / 3.0), rel=1e-13)


def test_kinetic_density_scaling_and_validation():
    n = np.array([0.0, 0.5, 1.0, 4.0])
    tau = kinetic_density_fermi(n)
    assert tau[0] == 0.0
    assert tau[3] / tau[2] == pytest.approx(4.0 ** (5.0 / 3.0), rel=1e-13)
    with pytest.raises(ConfigError):
        kinetic_density_fermi(-1.0)
    with pytest.raises(ConfigError):
        kinetic_density_fermi(float("nan"))


def test_bose_contact_energy_is_exact():
    m = model(Statistics.BOSE, -1.0)
    n = np.geomspace(1e-3, 10.0, 40)
    assert np.allclose(energy_density(m, n), -0.5 * n * n, rtol=1e-15)
    assert np.allclose(energy_per_particle(m, n), -0.5 * n, rtol=1e-15)


def test_energy_density_matches_oracle_randomly():
    rng = np.random.RandomState(42)
    kinds = [StabilizerKind.NONE, StabilizerKind.THREE_BODY,
             StabilizerKind.DENSITY_DEPENDENT]
    for _ in range(200):
        statistics = Statistics.BOSE if rng.rand() < 0.5 else Statistics.FERMI
        kind = kinds[rng.randint(3)]
        t0 = rng.uniform(-10.0, 10.0)
        t3 = rng.uniform(0.0, 5.0) if kind is not StabilizerKind.NONE else 0.0
        alpha = (rng.uniform(0.3, 3.0)
                 if kind is StabilizerKind.DENSITY_DEPENDENT else None)
        c3 = rng.uniform(-2.0, 2.0) if (rng.rand() < 0.5
                                        and kind is not StabilizerKind.NONE) else None
        m = model(statistics, t0, kind, t3, alpha, c3)
        eps, _ = eps_oracle(statistics, t0, kind, t3, alpha, c3)
        n = rng.uniform(1e-3, 20.0, size=7)
        want = np.array([eps(v) for v in n])
        np.testing.assert_allclose(energy_density(m, n), want, rtol=1e-12)
        np.testing.assert_allclose(energy_per_particle(m, n), want / n,
                                   rtol=1e-12)


def test_energy_density_input_validation():
    m = model(Statistics.BOSE, -1.0)
    with pytest.raises(ConfigError):
        energy_density(m, -0.1)
    with pytest.raises(ConfigError):
        energy_density(m, float("inf"))
    assert energy_density(m, 0.0) == 0.0
    with pytest.raises(ConfigError):
        energy_per_particle(m, 0.0)


# --- classification: exact cases --------------------------------------

def test_attractive_bose_gas_collapses():
    r = classify_stability(model(Statistics.BOSE, -1.0))
    assert r.classification is Classification.COLLAPSE_UNBOUNDED_BELOW
    assert r.n_sat is None and r.e_min is None


def test_repulsive_bose_gas_is_trivial():
    r = classify_stability(model(Statistics.BOSE, 1.0))
    assert r.classification is Classification.TRIVIAL_MINIMUM_AT_ZERO
    assert r.n_sat == 0.0 and r.e_min == 0.0


def test_zero_coupling_model_is_trivial():
    r = classify_stability(model(Statistics.BOSE, 0.0))
    assert r.classification is Classification.TRIVIAL_MINIMUM_AT_ZERO


def test_bose_three_body_saturation_closed_form():
    # eps = -n^2/2 + n^3/6 gives e = -n/2 + n^2/6, minimum at n = 3/2
    r = classify_stability(model(Statistics.BOSE, -1.0,
                                 StabilizerKind.THREE_BODY, t3=1.0))
    assert r.classification is Classification.SATURATING
    assert r.n_sat == pytest.approx(1.5, rel=1e-12)
    assert r.e_min == pytest.approx(-0.375, rel=1e-12)


def test_extreme_couplings_still_saturate():
    # eps = t0 n^2 / 2 + t3 n^3 / 6 with t0 = -t3 = -1e300 saturates at n = 3/2,
    # e = -3/8 t3: the balance of the two terms is taken in logs, and the scan
    # stops short of where t3 n^2 / 6 would overflow
    r = classify_stability(model(Statistics.BOSE, -1e300, StabilizerKind.THREE_BODY, t3=1e300))
    assert r.classification is Classification.SATURATING
    assert r.n_sat == pytest.approx(1.5, rel=1e-12)
    assert r.e_min == pytest.approx(-0.375e300, rel=1e-12)
    # t0 = -1, t3 = 1e-300 saturates at n = 1.5e300, e = -3.75e299, past where
    # n^2 overflows on its own: there the term t3 n^2 / 6 is taken in logs
    r = classify_stability(model(Statistics.BOSE, -1.0, StabilizerKind.THREE_BODY, t3=1e-300))
    assert r.classification is Classification.SATURATING
    assert r.n_sat == pytest.approx(1.5e300, rel=1e-12)
    assert r.e_min == pytest.approx(-3.75e299, rel=1e-12)
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["meanfield", "--statistics", "bose", "--t0=-1", "--stabilizer",
                     "threebody", "--t3=1e-300", "--format", "json"]) == 0
    report = json.loads(out.getvalue())["report"]
    assert report["classification"] == "Saturating"
    assert (report["n_sat"], report["e_min"]) == (r.n_sat, r.e_min)


@pytest.mark.parametrize("t0, kind, t3, alpha, n_sat, e_min", [
    # eps = t0 n^2 / 2 + t3 n^3 / 6 saturates at n = -3 t0 / (2 t3), e = t0 n / 4; the
    # n^2 of e(n) falls below the normal doubles near the minimum, where it once
    # lost its digits (t3 = 1e160 gave e = -5.99998e-160) or all of them, which
    # put the scan's minimum on its window edge (t3 = 1e170 to 1e300 exited 2)
    (-4.0, StabilizerKind.THREE_BODY, 1e160, None, 6e-160, -6e-160),
    (-4.0, StabilizerKind.THREE_BODY, 1e300, None, 6e-300, -6e-300),
    (-1e10, StabilizerKind.THREE_BODY, 1e300, None, 1.5e-290, -3.75e-281),
    # eps = t0 n^2 / 2 + t3 n^3 / 2: n = -t0 / (2 t3), e = t0 n / 4
    (-4.0, StabilizerKind.DENSITY_DEPENDENT, 1e300, 1.0, 2e-300, -2e-300),
])
def test_terms_below_the_normal_doubles_are_taken_in_logs(t0, kind, t3, alpha, n_sat, e_min):
    r = classify_stability(model(Statistics.BOSE, t0, kind, t3=t3, alpha=alpha))
    assert r.classification is Classification.SATURATING
    assert r.n_sat == pytest.approx(n_sat, rel=1e-12, abs=0.0)
    assert r.e_min == pytest.approx(e_min, rel=1e-12, abs=0.0)
    argv = ["meanfield", "--statistics", "bose", f"--t0={t0!r}", "--stabilizer",
            "threebody" if alpha is None else "dd", f"--t3={t3!r}", "--format", "json"]
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ([] if alpha is None else [f"--alpha={alpha!r}"])) == 0
    report = json.loads(out.getvalue())["report"]
    assert (report["n_sat"], report["e_min"]) == (r.n_sat, r.e_min)


@pytest.mark.parametrize("t0, t3, alpha, rows_dropped", [
    # e'(n)'s coefficient t3 (1 + alpha) / 2 overflows; the default table reaches
    # n = 10, but the n^96.3 term of epsilon(n) may overflow from n = 1.008 on,
    # so its last 20 rows are left out
    (-12.32818188584236, 8.534574401093275e+307, 94.33909601629502, 20),
    # t3 / 2 = 2e-323 is subnormal, and t3 (1 + alpha) / 2 kept a few of its digits,
    # which moved the zero of e'(n) out of the scan's bracket
    (-7.55028835958462e-249, 4e-323, 0.5108658774053998, 0),
])
def test_slope_coefficients_are_never_formed_alone(t0, t3, alpha, rows_dropped):
    # eps = t0 n^2 / 2 + t3 n^(2 + alpha) / 2: e'(n) = 0 at
    # n^alpha = -t0 / (t3 (1 + alpha)), where e = (t0 / 2) n alpha / (1 + alpha)
    n_sat = math.exp((math.log(-t0) - math.log(t3) - math.log1p(alpha)) / alpha)
    r = classify_stability(model(Statistics.BOSE, t0, StabilizerKind.DENSITY_DEPENDENT,
                                 t3=t3, alpha=alpha))
    assert r.classification is Classification.SATURATING
    assert r.n_sat == pytest.approx(n_sat, rel=1e-12, abs=0.0)
    assert r.e_min == pytest.approx(0.5 * t0 * n_sat * alpha / (1.0 + alpha), rel=1e-12, abs=0.0)
    argv = ["meanfield", "--statistics", "bose", f"--t0={t0!r}", "--stabilizer", "dd",
            f"--t3={t3!r}", f"--alpha={alpha!r}", "--format", "json"]
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 0
    doc = json.loads(out.getvalue())
    assert (doc["report"]["n_sat"], doc["report"]["e_min"]) == (r.n_sat, r.e_min)
    assert doc["rows_dropped"] == rows_dropped
    assert len(doc["table"]["n"]) == 100 - rows_dropped


def test_minimum_that_underflows_is_refused_naming_t0():
    # eps = t0 n^2 / 2 + n^3 / 6 with t0 = -1e-300 saturates at n = 1.5e-300, where
    # e = -3.75e-601 underflows: every scanned e(n) reads 0, which once passed for
    # a trivial minimum.  Its sign, taken in logs, shows the minimum
    m = model(Statistics.BOSE, -1e-300, StabilizerKind.THREE_BODY, t3=1.0)
    with pytest.raises(ConfigError, match=r"^t0 = -1e-300 and t3 = 1\.0: e\(n\) has its "
                                          r"minimum near n = 1\.5e-300, where it is about "
                                          r"-10\^-600\.4, below the smallest normal double"):
        classify_stability(m)
    # eps = t0 n^2 / 2 + t3 n^5 / 2 with t0 = -1e-300 and t3 = 1e-275 saturates
    # at n = 2.9e-9, where e = -1.1e-309 is subnormal: it once passed for a
    # level with the digits of n_sat gone
    m = model(Statistics.BOSE, -1e-300, StabilizerKind.DENSITY_DEPENDENT, t3=1e-275, alpha=3.0)
    with pytest.raises(ConfigError, match=r"^t0 = -1e-300 and t3 = 1e-275, alpha = 3\.0: e\(n\) "
                                          r"has its minimum near n = 2\.9\d*e-09, where it is "
                                          r"about -10\^-309, below the smallest normal double"):
        classify_stability(m)
    # a repulsive model whose e(n) underflows is still trivial
    r = classify_stability(model(Statistics.BOSE, 1e-300, StabilizerKind.THREE_BODY, t3=1.0))
    assert r.classification is Classification.TRIVIAL_MINIMUM_AT_ZERO


def test_bose_density_dependent_saturation_closed_form():
    # eps = -n^2/2 + n^2.5/2 gives e minimal at n = 4/9, e = -2/27
    r = classify_stability(model(Statistics.BOSE, -1.0,
                                 StabilizerKind.DENSITY_DEPENDENT,
                                 t3=1.0, alpha=0.5, c3=0.5))
    assert r.classification is Classification.SATURATING
    assert r.n_sat == pytest.approx(4.0 / 9.0, rel=1e-12)
    assert r.e_min == pytest.approx(-2.0 / 27.0, rel=1e-12)


def test_fermi_density_dependent_saturation_frozen():
    r = classify_stability(model(Statistics.FERMI, -4.0,
                                 StabilizerKind.DENSITY_DEPENDENT,
                                 t3=1.0, alpha=1.0))
    assert r.classification is Classification.SATURATING
    assert r.n_sat == pytest.approx(FERMI_DD_T0M4_NSAT, rel=1e-10)
    assert r.e_min == pytest.approx(FERMI_DD_T0M4_EMIN, rel=1e-10)
    eps, _ = eps_oracle(Statistics.FERMI, -4.0,
                        StabilizerKind.DENSITY_DEPENDENT, 1.0, 1.0)
    n_scan, e_scan = nsat_oracle(eps)
    assert r.n_sat == pytest.approx(n_scan, rel=1e-6)
    assert r.e_min == pytest.approx(e_scan, rel=1e-6)


def test_fermi_three_body_saturation_frozen():
    r = classify_stability(model(Statistics.FERMI, -6.0,
                                 StabilizerKind.THREE_BODY, t3=1.0))
    assert r.classification is Classification.SATURATING
    assert r.n_sat == pytest.approx(FERMI_TB_T0M6_NSAT, rel=1e-10)
    assert r.e_min == pytest.approx(FERMI_TB_T0M6_EMIN, rel=1e-10)
    eps, _ = eps_oracle(Statistics.FERMI, -6.0, StabilizerKind.THREE_BODY, 1.0)
    n_scan, e_scan = nsat_oracle(eps)
    assert r.n_sat == pytest.approx(n_scan, rel=1e-6)


def test_weakly_attractive_fermi_dd_never_binds():
    # the kinetic term dominates this coupling at every density, so the
    # energy per particle increases monotonically from zero
    r = classify_stability(model(Statistics.FERMI, -2.0,
                                 StabilizerKind.DENSITY_DEPENDENT,
                                 t3=1.0, alpha=1.0))
    assert r.classification is Classification.TRIVIAL_MINIMUM_AT_ZERO
    eps, _ = eps_oracle(Statistics.FERMI, -2.0,
                        StabilizerKind.DENSITY_DEPENDENT, 1.0, 1.0)
    assert nsat_oracle(eps) is None


def test_weakly_attractive_fermi_three_body_never_binds():
    r = classify_stability(model(Statistics.FERMI, -1.0,
                                 StabilizerKind.THREE_BODY, t3=1.0, c3=1.0))
    assert r.classification is Classification.TRIVIAL_MINIMUM_AT_ZERO
    eps, _ = eps_oracle(Statistics.FERMI, -1.0, StabilizerKind.THREE_BODY,
                        1.0, None, 1.0)
    assert nsat_oracle(eps) is None


def test_negative_c3_turns_stabilizer_into_collapse():
    r = classify_stability(model(Statistics.BOSE, 1.0,
                                 StabilizerKind.THREE_BODY, t3=1.0, c3=-0.25))
    assert r.classification is Classification.COLLAPSE_UNBOUNDED_BELOW


def test_saturation_point_is_stationary():
    cases = [
        model(Statistics.BOSE, -1.0, StabilizerKind.THREE_BODY, t3=1.0),
        model(Statistics.FERMI, -4.0, StabilizerKind.DENSITY_DEPENDENT,
              t3=1.0, alpha=1.0),
        model(Statistics.FERMI, -6.0, StabilizerKind.THREE_BODY, t3=1.0),
        model(Statistics.BOSE, -3.0, StabilizerKind.DENSITY_DEPENDENT,
              t3=2.0, alpha=1.7),
    ]
    for m in cases:
        r = classify_stability(m)
        assert r.classification is Classification.SATURATING
        _, terms = eps_oracle(m.statistics, m.t0, m.stabilizer.kind,
                              m.stabilizer.t3, m.stabilizer.alpha, m.c3)

        def de(n):
            return sum(c * (p - 1.0) * n ** (p - 2.0) for c, p in terms)

        pressure = r.n_sat * r.n_sat * de(r.n_sat)
        scale = abs(energy_density(m, r.n_sat)) + 1e-300
        assert abs(pressure) <= 1e-8 * scale
        # n_sat is narrowed to adjacent doubles: e' changes sign or
        # vanishes between its two neighbours
        vals = [de(np.nextafter(r.n_sat, v)) for v in (0.0, np.inf)]
        assert min(vals) <= 0.0 <= max(vals), (m, vals)
        assert r.e_min < 0.0
        assert r.e_min == pytest.approx(
            energy_per_particle(m, r.n_sat), rel=1e-12)


def test_classification_matches_sign_rule_randomly():
    rng = np.random.RandomState(20240817)
    kinds = [StabilizerKind.NONE, StabilizerKind.THREE_BODY,
             StabilizerKind.DENSITY_DEPENDENT]
    checked = 0
    for _ in range(300):
        statistics = Statistics.BOSE if rng.rand() < 0.5 else Statistics.FERMI
        kind = kinds[rng.randint(3)]
        t0 = rng.uniform(-8.0, 8.0)
        t3 = rng.uniform(0.0, 4.0) if kind is not StabilizerKind.NONE else 0.0
        alpha = (rng.uniform(0.3, 2.5)
                 if kind is StabilizerKind.DENSITY_DEPENDENT else None)
        c3 = rng.uniform(-1.0, 2.0) if (rng.rand() < 0.4
                                        and kind is not StabilizerKind.NONE) else None
        m = model(statistics, t0, kind, t3, alpha, c3)
        eps, terms = eps_oracle(statistics, t0, kind, t3, alpha, c3)
        r = classify_stability(m)

        lead = max(terms, key=lambda t: t[1])
        if lead[0] < 0.0:
            assert r.classification is Classification.COLLAPSE_UNBOUNDED_BELOW
            checked += 1
            continue
        found = nsat_oracle(eps, n_lo=1e-8, n_hi=1e6, points=20_000)
        if found is None:
            assert r.classification is Classification.TRIVIAL_MINIMUM_AT_ZERO
            checked += 1
        else:
            n_scan, e_scan = found
            if e_scan > -1e-9 * max(1.0, abs(energy_density(m, n_scan))):
                continue  # too close to the boundary to call either way
            assert r.classification is Classification.SATURATING
            assert r.n_sat == pytest.approx(n_scan, rel=1e-4)
            checked += 1
    assert checked > 200


def test_report_carries_the_caveat_always():
    reports = [
        classify_stability(model(Statistics.BOSE, -1.0)),
        classify_stability(model(Statistics.BOSE, 1.0)),
        classify_stability(model(Statistics.BOSE, -1.0,
                                 StabilizerKind.THREE_BODY, t3=1.0)),
    ]
    for r in reports:
        assert r.caveat == CORRELATION_CAVEAT
        assert "correlation" in r.caveat or "collapsed states" in r.caveat


def test_report_serialization_layout():
    r = classify_stability(model(Statistics.FERMI, -4.0,
                                 StabilizerKind.DENSITY_DEPENDENT,
                                 t3=1.0, alpha=1.0))
    d = r.to_dict()
    assert set(d) == {"classification", "n_sat", "e_min", "model", "caveat"}
    assert d["classification"] == "Saturating"
    assert set(d["model"]) == {"statistics", "t0", "stabilizer", "t3",
                               "alpha", "c3", "c3_defaulted"}
    assert d["model"]["statistics"] == "fermi"
    assert d["model"]["stabilizer"] == "dd"
    assert d["model"]["c3"] == pytest.approx(1.0 / 16.0)
    assert d["model"]["c3_defaulted"] is True
    assert d["caveat"] == CORRELATION_CAVEAT


def test_default_statistical_weights():
    table = [
        (Statistics.BOSE, StabilizerKind.THREE_BODY, None, 1.0 / 6.0),
        (Statistics.BOSE, StabilizerKind.DENSITY_DEPENDENT, 0.5, 1.0 / 2.0),
        (Statistics.FERMI, StabilizerKind.THREE_BODY, None, 1.0 / 16.0),
        (Statistics.FERMI, StabilizerKind.DENSITY_DEPENDENT, 0.5, 1.0 / 16.0),
    ]
    for statistics, kind, alpha, want in table:
        m = model(statistics, -1.0, kind, t3=1.0, alpha=alpha)
        assert m.c3_effective == want
        assert m.c3_defaulted
        explicit = model(statistics, -1.0, kind, t3=1.0, alpha=alpha, c3=0.3)
        assert explicit.c3_effective == 0.3
        assert not explicit.c3_defaulted
    bare = model(Statistics.BOSE, -1.0)
    assert bare.c3_effective == 0.0
    assert not bare.c3_defaulted


def test_stabilizer_validation():
    with pytest.raises(ConfigError):
        Stabilizer.three_body(-1.0)
    with pytest.raises(ConfigError):
        Stabilizer.three_body(float("nan"))
    with pytest.raises(ConfigError):
        Stabilizer.density_dependent(1.0, alpha=0.0)
    with pytest.raises(ConfigError):
        Stabilizer.density_dependent(1.0, alpha=None)
    with pytest.raises(ConfigError):
        Stabilizer(kind=StabilizerKind.THREE_BODY, t3=1.0, alpha=1.0)
    with pytest.raises(ConfigError):
        Stabilizer(kind=StabilizerKind.NONE, t3=1.0)
    assert Stabilizer.three_body(2.0).power == 3.0
    assert Stabilizer.density_dependent(1.0, 0.5).power == 2.5


def test_model_validation():
    with pytest.raises(ConfigError):
        model(Statistics.BOSE, float("nan"))
    with pytest.raises(ConfigError):
        model(Statistics.BOSE, -1.0, StabilizerKind.THREE_BODY, t3=1.0,
              c3=float("inf"))
    with pytest.raises(ConfigError):
        MatterModel(statistics=Statistics.BOSE, t0=-1.0,
                    stabilizer=Stabilizer.none(), c3=0.5)
    with pytest.raises(ConfigError):
        classify_stability(model(Statistics.BOSE, -1.0), tol=0.5)


# --- the closed-form bracket against an outside oracle ----------------

def _mp_saturation(statistics, terms, n_guess):
    """(n_sat, e_min) of the hand-built terms in mpmath, at 40 digits.

    Bosons: the closed form n^(p - 2) = B / C of e'(n) = -B + C n^(p - 2).
    Fermions: the zero of the exact e'(n), in u = ln n, where it rises
    through zero within 1e-9 of ln n_guess, narrowed by mpmath's own solver.
    `terms` are those of `eps_oracle`, t0's second.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ts = [(mpmath.mpf(c), mpmath.mpf(p)) for c, p in terms]
        if statistics is Statistics.BOSE:
            (b, _), (c, p) = sorted(ts, key=lambda t: t[1])
            u = (mpmath.log(-b) - mpmath.log(c * (p - 1))) / (p - 2)
        else:
            scale = abs(ts[1][0])   # t0 in e'(n), so that de is of order 1

            def de(u):
                return sum(c * (p - 1) * mpmath.exp((p - 2) * u) for c, p in ts) / scale

            u0 = mpmath.log(n_guess)
            lo, hi = u0 - 1e-9 * (1 + abs(u0)), u0 + 1e-9 * (1 + abs(u0))
            assert de(lo) < 0 < de(hi), (n_guess, de(lo), de(hi))
            u = mpmath.findroot(de, (lo, hi), solver="anderson")
        return (float(mpmath.exp(u)),
                float(sum(c * mpmath.exp((p - 1) * u) for c, p in ts)))


def _mp_never_negative(terms, points=1500):
    """e(n) >= 0 in mpmath on a log grid across the normal doubles."""
    mpmath = pytest.importorskip("mpmath")
    ts = [(mpmath.mpf(c), mpmath.mpf(p)) for c, p in terms]
    for u in np.linspace(math.log(sys.float_info.min), math.log(sys.float_info.max), points):
        if sum(c * mpmath.exp((p - 1) * mpmath.mpf(u)) for c, p in ts) < 0:
            return False
    return True


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@given(st.sampled_from(Statistics),
       st.sampled_from([StabilizerKind.THREE_BODY, StabilizerKind.DENSITY_DEPENDENT]),
       _log_uniform(1e-300, 1e300), _log_uniform(1e-300, 1e300), _log_uniform(1e-3, 100.0))
# couplings where the kinetic term decides: e'(n) dips below zero, yet e(n)
# stays positive (-3.2 > t0 > -3.65), or turns negative (t0 = -6)
@example(Statistics.FERMI, StabilizerKind.THREE_BODY, 3.4, 1.0, 1.0)
@example(Statistics.FERMI, StabilizerKind.THREE_BODY, 6.0, 1.0, 1.0)
@settings(max_examples=120, deadline=None)
def test_bracketed_minimum_matches_an_outside_oracle(statistics, kind, t0, t3, alpha):
    # attraction t0 < 0 and a repulsive stabilizer, the models that reach the
    # bracket, over log-uniform couplings with every RuntimeWarning an error;
    # a refusal names the couplings
    alpha = alpha if kind is StabilizerKind.DENSITY_DEPENDENT else None
    m = model(statistics, -t0, kind, t3=t3, alpha=alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            r = classify_stability(m)
        except ConfigError as exc:
            assert re.match(r"(the Fermi kinetic term|t0|t3)", str(exc)), exc
            return
    _, terms = eps_oracle(statistics, -t0, kind, t3, alpha)
    if r.classification is Classification.SATURATING:
        n_sat, e_min = _mp_saturation(statistics, terms, r.n_sat)
        assert r.n_sat == pytest.approx(n_sat, rel=1e-12, abs=0.0)
        assert r.e_min == pytest.approx(e_min, rel=1e-12, abs=0.0)
    else:
        assert r.classification is Classification.TRIVIAL_MINIMUM_AT_ZERO
        assert _mp_never_negative(terms)


def _mp_steep_saturation(terms):
    """(n_sat, e_min) where the highest power p_h of `terms` is so steep that n_sat ~ 1.

    e'(n) = sum c (p - 1) n^(p - 2) = 0 gives n^(p_h - 2) = -(the other terms'
    sum) / (c_h (p_h - 1)): for bosons that is the closed form
    n^alpha = -t0 / (t3 (1 + alpha)); for fermions the kinetic term's slope
    joins t0's, and the fixed point converges in a few iterations, since
    n^(-1/3) moves by 1e-13 at most.  In mpmath at 40 digits.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ts = sorted(((mpmath.mpf(c), mpmath.mpf(p)) for c, p in terms), key=lambda t: t[1])
        (ch, ph), rest = ts[-1], ts[:-1]
        n = mpmath.mpf(1)
        for _ in range(4):
            n = (-sum(c * (p - 1) * n ** (p - 2) for c, p in rest)
                 / (ch * (ph - 1))) ** (1 / (ph - 2))
        return float(n), float(sum(c * n ** (p - 1) for c, p in ts))


@pytest.mark.parametrize("statistics, alpha", [
    (Statistics.BOSE, 1e12), (Statistics.FERMI, 1e13), (Statistics.BOSE, 1e17)])
def test_steep_stabilizer_saturates_next_to_the_root(statistics, alpha):
    # across one ulp of n near 1, e'(n) steps by about alpha 2.2e-16 |t0|, more
    # than the gate's sqrt(tol) |e(n)|: these once raised SolverError
    # ("pressure residual 1.499e-04" for bosons at alpha = 1e12)
    m = model(statistics, -10.0, StabilizerKind.DENSITY_DEPENDENT, t3=1.0, alpha=alpha)
    r = classify_stability(m)
    n_sat, e_min = _mp_steep_saturation(eps_oracle(statistics, -10.0,
                                                   StabilizerKind.DENSITY_DEPENDENT,
                                                   1.0, alpha)[1])
    if statistics is Statistics.BOSE:
        assert n_sat == pytest.approx(
            math.exp((math.log(10.0) - math.log1p(alpha)) / alpha), rel=1e-15)
    assert r.classification is Classification.SATURATING
    assert abs(r.n_sat - n_sat) <= math.ulp(n_sat)
    assert r.e_min == pytest.approx(e_min, rel=1e-12, abs=0.0)
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["meanfield", "--statistics", statistics.value, "--t0=-10", "--stabilizer",
                     "dd", "--t3=1", f"--alpha={alpha!r}", "--format", "json"]) == 0
    report = json.loads(out.getvalue())["report"]
    assert (report["n_sat"], report["e_min"]) == (r.n_sat, r.e_min)


@pytest.mark.parametrize("statistics, alpha", [
    (Statistics.FERMI, 1.0), (Statistics.BOSE, 1e12), (Statistics.FERMI, 1e13)])
def test_root_left_unnarrowed_is_refused(statistics, alpha, monkeypatch):
    # the gate allows the step of e'(n) across n_sat's neighbours and no more:
    # a root left at the lower end of its bracket, a few doubles below the zero
    # for bosons at alpha = 1e12, fails it
    monkeypatch.setattr(meanfield, "bracketed_roots",
                        lambda f, lo, hi, f_lo, f_hi: (lo, np.abs(f_lo)))
    m = model(statistics, -10.0, StabilizerKind.DENSITY_DEPENDENT, t3=1.0, alpha=alpha)
    with pytest.raises(SolverError, match=r"alpha = .*: saturation point did not converge: "
                                          r"pressure residual"):
        classify_stability(m)


def test_alpha_that_vanishes_beside_two_is_refused():
    # 2 + alpha rounds to 2 below alpha of about 2.2e-16, which would put the
    # stabilizer at the power of the t0 term
    for alpha in (5e-324, 1e-300, 1e-17):
        with pytest.raises(ConfigError, match=r"^density-dependent stabilizer needs alpha > 0 "
                                              r"with 2 \+ alpha > 2 in doubles"):
            Stabilizer.density_dependent(1.0, alpha)
    assert Stabilizer.density_dependent(1.0, 4.5e-16).power > 2.0
