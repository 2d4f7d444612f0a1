"""Integrator kernel: closed-form checks and edge cases of the march.

Oracle for accuracy: g'' = -k^2 g with g(0) = 0, g'(0) = 1 has the
exact solution sin(k t) / k, with floor(k T / pi) interior sign
changes on [0, T]; from g(0) = 1, g'(0) = 0 it is cos(k t), and
g'' = -(t + 1) g has the Airy solution Ai(-(t + 1)).  The growing twin
g'' = k^2 g gives sinh(k t) / k, whose rescales are checked through the
step-by-step growth of ln|g|, which does not depend on the scale each
segment carries.

Every case that counts nodes also runs count-only (`samples=False`), which
must give the same node count and the same last sample.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from efimov_lab._kernel import _pure, integrate_numerov


def _integrate(w, h, g0, dg0):
    """integrate_numerov with samples, checked against the same march count-only."""
    g, nodes = integrate_numerov(w, h, g0, dg0)
    end, end_nodes = integrate_numerov(w, h, g0, dg0, samples=False)
    assert end_nodes == nodes
    # bytes, so that a NaN or the sign of a zero must match too
    assert end.shape == (1,) and end.tobytes() == g[-1:].tobytes()
    return g, nodes


def _numpy_nodes(g):
    """Sign changes between consecutive nonzero samples, a NaN counting as negative."""
    positive = g[g != 0.0] > 0.0
    return int(np.count_nonzero(positive[1:] != positive[:-1]))


def _rescales_of_growing_sinh(g, k, h):
    """Check the samples of g = sinh(k t) / k step by step; return the rescales.

    Past t = 1 each step must grow ln|g| as the closed form k t - ln 2k
    does, to 5e-5, except at exactly the expected rescale steps: there
    the step falls short of it by more than ln 1e250.  A rescale is
    expected where the unscaled march has grown past ln 1e250 since the
    last one.  The unscaled march is the exact solution of the Numerov
    recurrence c g+ - (12 - 10 c) g + c g- = 0 from the start
    g1 = h + h^3 k^2 / 6 + h^5 k^4 / 120: g_i = g1 (l^i - l^-i) / (l - 1/l),
    with l its root above 1; its drift from k t decides which step crosses
    first.
    """
    t = h * np.arange(len(g))
    closed = k * t - math.log(2.0 * k)
    c = 1.0 - h * h * k * k / 12.0
    a = 12.0 - 10.0 * c
    lam = (a + math.sqrt(a * a - 4.0 * c * c)) / (2.0 * c)
    g1 = h + h ** 3 * k * k / 6.0 + h ** 5 * k ** 4 / 120.0
    threshold = math.log(_pure.RESCALE_THRESHOLD)
    late = np.flatnonzero(t > 1.0)
    unscaled = math.log(g1 / (lam - 1.0 / lam)) + late * math.log(lam)
    expected, base = [], 0.0
    for i, log_g in zip(late.tolist(), unscaled):
        if log_g - base > threshold:
            expected.append(i)
            base = log_g
    i = late[1:]
    excess = np.log(np.abs(g[i] / g[i - 1])) - (closed[i] - closed[i - 1])
    rescaled = excess < -threshold
    assert i[rescaled].tolist() == expected
    assert np.max(np.abs(excess[~rescaled])) < 5e-5
    return expected


def test_one_rescale_under_renormalization():
    w = np.full(4000, 400.0)  # growth e^{20 t} to e^{800}, forces rescaling
    g, _ = _integrate(w, 0.01, 0.0, 1.0)
    assert len(_rescales_of_growing_sinh(g, 20.0, 0.01)) == 1


def test_zero_solution_stays_zero():
    g, nodes = _integrate(np.full(50, -3.0), 0.1, 0.0, 0.0)
    assert not np.any(g)
    assert nodes == 0


@pytest.mark.parametrize("w, g0, dg0, zero_at, signbit, want_nodes", [
    # w = 0, h = 1: g = 1 - t crosses zero exactly at t = 1
    (np.zeros(6), 1.0, -1.0, 1, False, 1),
    # c = 1 - w/12 = -1 at points 3 and 4: 39, 26, 13, 0/(-1) = -0.0, 13, 286, ...;
    # dg0 is the double for which the sixth-order start lands g[1] on 26 exactly
    (np.array([0.0, 0.0, 0.0, 24.0, 24.0] + [0.0] * 7), 39.0, -359.7372421281216, 3, True, 0),
])
def test_exact_zeros_are_not_nodes(w, g0, dg0, zero_at, signbit, want_nodes):
    # a zero sample of either sign is skipped when counting sign changes
    g, nodes = _integrate(w, 1.0, g0, dg0)
    assert g[zero_at] == 0.0 and np.signbit(g[zero_at]) == signbit
    assert np.all(np.delete(g, zero_at) != 0.0)
    assert nodes == want_nodes


def test_nan_in_w_counts_as_negative():
    w = np.random.default_rng(3).normal(0.0, 30.0, 300)
    w[100] = np.nan
    g, nodes = _integrate(w, 0.01, 0.0, 1.0)
    assert np.all(np.isnan(g[100:])) and not np.any(np.isnan(g[:100]))
    # every NaN counts as a negative sample
    signs = np.where(g > 0.0, 1, -1)[g != 0.0]
    assert nodes == np.count_nonzero(np.diff(signs))


def test_several_rescales():
    w = np.full(4000, 1600.0)  # growth e^{40 t} to e^{1600}
    g, _ = _integrate(w, 0.01, 0.0, 1.0)
    assert len(_rescales_of_growing_sinh(g, 40.0, 0.01)) >= 2


def test_sine_solution_nodes_and_values():
    k = 3.0
    T = 10.0
    n = 4001
    h = T / (n - 1)
    t = np.linspace(0.0, T, n)
    w = np.full(n, -k * k)
    g, nodes = integrate_numerov(w, h, 0.0, 1.0)
    assert nodes == math.floor(k * T / math.pi)
    # no rescale: the samples carry the scale of the exact solution
    exact = np.sin(k * t) / k
    assert np.max(np.abs(g - exact)) < 1e-8


def _observed_order(case):
    """log2 of the worst error at n = 501 over that at n = 1001 on [0, 6].

    "sin": g'' = -k^2 g from g = 0, g' = 1; "cos": the same from g = 1,
    g' = 0; "airy": g'' = -(t + 1) g from Ai(-1), -Ai'(-1), whose w varies
    along the grid.
    """
    k = 2.5
    T = 6.0

    def max_err(n):
        h = T / (n - 1)
        t = np.linspace(0.0, T, n)
        if case == "airy":
            import mpmath
            g, _ = integrate_numerov(-(t + 1.0), h, float(mpmath.airyai(-1)),
                                     -float(mpmath.airyai(-1, derivative=1)))
            return np.max(np.abs(g - [float(mpmath.airyai(-x)) for x in t + 1.0]))
        g0, dg0 = (0.0, 1.0) if case == "sin" else (1.0, 0.0)
        g, _ = integrate_numerov(np.full(n, -k * k), h, g0, dg0)
        exact = np.sin(k * t) / k if case == "sin" else np.cos(k * t)
        return np.max(np.abs(g - exact))

    return math.log2(max_err(501) / max_err(1001))


def test_fourth_order_convergence():
    order = _observed_order("sin")
    assert 3.6 < order < 4.4, f"observed order {order:.2f}"


@pytest.mark.parametrize("case", ["cos", "airy"])
def test_fourth_order_convergence_from_nonzero_start(case):
    # g0 != 0 needs the start's terms in w g0 and its derivatives of w
    if case == "airy":
        pytest.importorskip("mpmath")
    order = _observed_order(case)
    assert 3.6 < order < 4.4, f"observed order {order:.2f}"


@pytest.mark.parametrize("h", [0.1, 0.05, 0.025])
def test_start_carries_the_march_local_error(h):
    # g'' = k^2 g from g = 1, g' = 0 is cosh(k t); the start is its Taylor
    # series through h^6 plus Numerov's local error h^6 g^(6)(0) / 480, and
    # g^(6)(0) = k^6, so g[1] - cosh(k h) is (k h)^6 / 480 to O(h^7)
    k = 3.0
    g, _ = integrate_numerov(np.full(12, k * k), h, 1.0, 0.0)
    excess = float(g[1]) - math.cosh(k * h)
    assert abs(excess - (k * h) ** 6 / 480.0) <= 1e-3 * (k * h) ** 7, excess


def test_renormalization_preserves_log_trajectory():
    # g'' = k^2 g, g(0) = 0, g'(0) = 1 gives g = sinh(k t) / k, so ln|g|
    # must grow as k t - ln 2k on both sides of the rescale
    k, h, n = 50.0, 1e-3, 20000
    g, _ = integrate_numerov(np.full(n, k * k), h, 0.0, 1.0)
    assert len(_rescales_of_growing_sinh(g, k, h)) == 1, "no rescale happened"


def test_growth_never_overflows():
    w = np.full(20000, 2500.0)  # bare growth e^{50 t} over t in [0, 20]
    g, nodes = _integrate(w, 1e-3, 0.0, 1.0)
    assert np.all(np.isfinite(g))
    assert np.max(np.abs(g)) <= _pure.RESCALE_THRESHOLD
    assert len(_rescales_of_growing_sinh(g, 50.0, 1e-3)) >= 1
    assert nodes == 0


def test_node_counting_ignores_touching_zero():
    # start exactly at zero: the leading zero sample is not a node
    w = np.full(64, -1.0)
    _, nodes = _integrate(w, 0.01, 0.0, 1.0)
    assert nodes == 0


_W = st.one_of(st.floats(-2e3, 2e3), st.just(0.0), st.just(-0.0), st.just(math.nan))


@given(w=st.lists(_W, min_size=2, max_size=60),
       h=st.sampled_from([0.01, 0.3, 1.0]),
       g0=st.sampled_from([0.0, -0.0, 1.0, -2.0, math.nan]),
       dg0=st.sampled_from([0.0, 1.0, -1e3]))
@settings(max_examples=200, deadline=None)
def test_inline_node_count_is_the_numpy_count(w, h, g0, dg0):
    # the march counts nodes as it goes; numpy counts them on the samples
    # afterwards, as the kernel once did.  Large |w| at h = 1 flips the sign
    # every step and rescales; NaN in w or g0 turns the rest of the march NaN
    # (a Numerov coefficient of exactly 0 would divide by zero)
    assume(np.all(1.0 - (h * h / 12.0) * np.array(w[2:]) != 0.0))
    with np.errstate(all="ignore"):
        g, nodes = _integrate(np.array(w), h, g0, dg0)
    assert nodes == _numpy_nodes(g)


def test_input_validation():
    with pytest.raises(ValueError):
        integrate_numerov(np.zeros(1), 0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate_numerov(np.zeros(8), 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate_numerov(np.zeros(8), float("nan"), 0.0, 1.0)
