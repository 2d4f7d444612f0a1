import math
import signal

import numpy as np
import pytest
from hypothesis import given, strategies as st

from efimov_lab import (
    ConfigError,
    GridError,
    LogGrid,
    SolverError,
    SystemConfig,
    make_config,
)
from efimov_lab.core import bracketed_roots


def test_make_config_defaults():
    cfg = make_config(-2.5)
    assert cfg.scattering_length_a == -2.5
    assert cfg.reduced_mass_mu == 0.5
    assert not cfg.at_unitarity


@pytest.mark.parametrize("bad_a", [0.0, float("nan")])
def test_invalid_scattering_length_rejected(bad_a):
    with pytest.raises(ConfigError):
        make_config(bad_a)


@pytest.mark.parametrize("bad_mu", [0.0, -1.0, float("inf"), float("nan")])
def test_invalid_reduced_mass_rejected(bad_mu):
    with pytest.raises(ConfigError):
        make_config(1.0, mu=bad_mu)


def test_unitarity_inverse_length_is_exactly_zero():
    for a in (float("inf"), float("-inf")):
        cfg = make_config(a)
        assert cfg.at_unitarity
        assert cfg.inverse_scattering_length == 0.0
        assert cfg.x_of_rho(123.4) == 0.0


def test_x_sign_follows_scattering_length_sign():
    # bound-pair side is a < 0 in this convention, giving x < 0
    assert make_config(-1.0).x_of_rho(2.0) < 0.0
    assert make_config(+1.0).x_of_rho(2.0) > 0.0


def test_x_of_rho_value_and_array():
    cfg = make_config(-2.0, mu=0.5)
    rho = 3.0
    expected = rho / (math.sqrt(0.5) * -2.0)
    assert cfg.x_of_rho(rho) == pytest.approx(expected, rel=1e-15)
    arr = cfg.x_of_rho(np.array([1.0, 2.0, 4.0]))
    assert arr.shape == (3,)
    # linear in rho
    assert arr[2] == pytest.approx(2.0 * arr[1], rel=1e-15)


def test_x_of_rho_rejects_bad_rho():
    cfg = make_config(1.0)
    for bad in (0.0, -1.0, float("inf")):
        with pytest.raises(ConfigError):
            cfg.x_of_rho(bad)


def test_config_is_frozen():
    cfg = make_config(1.0)
    with pytest.raises(Exception):
        cfg.scattering_length_a = 2.0  # type: ignore[misc]


def test_log_grid_make_exact_endpoints():
    g = LogGrid.make(0.125, 1000.0, 77)
    assert g.values[0] == 0.125
    assert g.values[-1] == 1000.0
    assert len(g) == 77
    ratios = g.values[1:] / g.values[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12, atol=0.0)
    assert g.log_step == pytest.approx(math.log(1000.0 / 0.125) / 76)


def test_log_grid_values_read_only():
    g = LogGrid.make(1.0, 10.0, 5)
    with pytest.raises(ValueError):
        g.values[0] = 2.0


@pytest.mark.parametrize("args", [(0.0, 1.0, 4), (-1.0, 1.0, 4),
                                  (1.0, 1.0, 4), (1.0, 10.0, 1)])
def test_log_grid_rejects_bad_bounds(args):
    with pytest.raises(GridError):
        LogGrid.make(*args)


@given(st.floats(min_value=1e-6, max_value=1e6),
       st.floats(min_value=1.01, max_value=1e6),
       st.integers(min_value=2, max_value=400))
def test_log_grid_geometric_property(lo, span, points):
    g = LogGrid.make(lo, lo * span, points)
    logs = np.log(g.values)
    steps = np.diff(logs)
    assert np.all(np.abs(steps - g.log_step) < 1e-9 * (1.0 + abs(g.log_step)))


def test_system_config_direct_construction_validates():
    with pytest.raises(ConfigError):
        SystemConfig(scattering_length_a=1.0, reduced_mass_mu=-0.5)


@pytest.mark.parametrize("f, where", [
    # NaN at the upper end: the bracket could never narrow past 0.5
    (lambda v, i: np.where(v > 0.5, np.nan, v - 0.7), 1.0),
    # finite ends, NaN at the first regula-falsi point 0.7
    (lambda v, i: np.where((v > 0.5) & (v < 0.9), np.nan, v - 0.7), 0.7),
])
def test_nan_function_raises_naming_its_element(f, where):
    # an element whose f is NaN never narrows; it raises at once, within 3 s
    def expired(signum, frame):
        raise TimeoutError("bracketed_roots did not return within 3 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(3)
    try:
        with pytest.raises(SolverError, match=f"element 1 is NaN at {where!r}") as info:
            bracketed_roots(lambda v, idx: np.where(idx == 1, f(v, idx), v - 0.25),
                            np.zeros(2), np.ones(2))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert info.value.index == 1
