"""Integrator kernel: backend equivalence and closed-form checks.

Oracle for accuracy: g'' = -k^2 g with g(0) = 0, g'(0) = 1 has the
exact solution sin(k t) / k, with floor(k T / pi) interior sign
changes on [0, T].

The compiled backend is built from setup.py into a temporary directory
once per module, so the comparisons with the pure reference run
wherever a C compiler is present.
"""

import importlib.util
import math
import pathlib
import shutil
import subprocess
import sys
import sysconfig

import numpy as np
import pytest

import efimov_lab._kernel as kernel
from efimov_lab._kernel import _pure, integrate_numerov
from efimov_lab.cli import main
from test_golden import CASES, GOLDEN_DIR

REPO = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The C backend, built out of tree; skipped only without a C compiler."""
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) to build the compiled backend")
    out = tmp_path_factory.mktemp("numerov")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out),
         "--build-temp", str(out)],
        cwd=REPO, capture_output=True, text=True)
    so = out / "efimov_lab" / "_kernel" / ("_numerov" + sysconfig.get_config_var("EXT_SUFFIX"))
    if not so.exists():
        pytest.fail(f"{cc} is present but setup.py built no {so.name}:\n"
                    f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    spec = importlib.util.spec_from_file_location("efimov_lab._kernel._numerov", so)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(backend, monkeypatch, *args):
    monkeypatch.setattr(kernel, "_impl", backend)
    return integrate_numerov(*args)


def _random_cases(seed=7, count=12):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        n = int(rng.integers(16, 900))
        w = rng.normal(0.0, 30.0, n)
        h = float(rng.uniform(1e-3, 0.05))
        g0, dg0 = (0.0, 1.0) if rng.random() < 0.5 else \
            (float(rng.normal()), float(rng.normal()))
        cases.append((w, h, g0, dg0))
    return cases


def _both(compiled, monkeypatch, *case):
    """Run both backends; return the pure result after checking the C one
    matches it bit for bit (so -0.0 differs from 0.0 and NaN equals NaN)."""
    gp, lp, np_ = _run(_pure, monkeypatch, *case)
    gc, lc, nc = _run(compiled, monkeypatch, *case)
    assert np_ == nc, "node counts differ"
    assert gp.tobytes() == gc.tobytes(), "sample arrays differ bitwise"
    assert lp.tobytes() == lc.tobytes(), "log-scale arrays differ bitwise"
    return gp, lp, np_


def test_backends_bitwise_identical(compiled, monkeypatch):
    for case in _random_cases():
        _both(compiled, monkeypatch, *case)


def test_backends_identical_under_renormalization(compiled, monkeypatch):
    w = np.full(4000, 400.0)  # growth e^{20 t} to e^{800}, forces rescaling
    _, lp, _ = _both(compiled, monkeypatch, w, 0.01, 0.0, 1.0)
    assert lp[-1] > 0.0


def test_backends_identical_on_the_zero_solution(compiled, monkeypatch):
    g, ls, nodes = _both(compiled, monkeypatch, np.full(50, -3.0), 0.1, 0.0, 0.0)
    assert not np.any(g) and not np.any(ls)
    assert nodes == 0


@pytest.mark.parametrize("w, g0, dg0, zero_at, signbit, want_nodes", [
    # w = 0, h = 1: g = 1 - t crosses zero exactly at t = 1
    (np.zeros(6), 1.0, -1.0, 1, False, 1),
    # c = 1 - w/12 = -1 at points 2 and 3: 2, 1, 0/(-1) = -0.0, 1, 22, ...
    (np.array([0.0, 0.0, 24.0, 24.0] + [0.0] * 8), 2.0, -1.0, 2, True, 0),
])
def test_backends_identical_on_exact_zeros(compiled, monkeypatch, w, g0, dg0,
                                           zero_at, signbit, want_nodes):
    # a zero sample of either sign is skipped when counting sign changes
    g, _, nodes = _both(compiled, monkeypatch, w, 1.0, g0, dg0)
    assert g[zero_at] == 0.0 and np.signbit(g[zero_at]) == signbit
    assert np.all(np.delete(g, zero_at) != 0.0)
    assert nodes == want_nodes


def test_backends_identical_with_nan_in_w(compiled, monkeypatch):
    w = np.random.default_rng(3).normal(0.0, 30.0, 300)
    w[100] = np.nan
    g, _, nodes = _both(compiled, monkeypatch, w, 0.01, 0.0, 1.0)
    assert np.all(np.isnan(g[100:])) and not np.any(np.isnan(g[:100]))
    # every NaN counts as a negative sample
    signs = np.where(g > 0.0, 1, -1)[g != 0.0]
    assert nodes == np.count_nonzero(np.diff(signs))


def test_backends_identical_over_several_rescales(compiled, monkeypatch):
    w = np.full(4000, 1600.0)  # growth e^{40 t} to e^{1600}
    _, ls, _ = _both(compiled, monkeypatch, w, 0.01, 0.0, 1.0)
    steps = np.diff(ls)
    jumps = steps[steps != 0.0]
    # constant between rescales, and each rescale divides by more than 1e250
    assert np.all(steps >= 0.0)
    assert len(jumps) >= 2
    assert np.all(jumps > math.log(_pure.RESCALE_THRESHOLD))


def test_golden_bodies_from_the_c_kernel(compiled, monkeypatch, capsys):
    monkeypatch.setattr(kernel, "_impl", compiled)
    for name, argv in sorted(CASES.items()):
        assert main(argv) == 0, name
        got = capsys.readouterr().out
        want = (GOLDEN_DIR / f"{name}.csv").read_bytes().decode("utf-8")
        assert got == want, name


def test_sine_solution_nodes_and_values():
    k = 3.0
    T = 10.0
    n = 4001
    h = T / (n - 1)
    t = np.linspace(0.0, T, n)
    w = np.full(n, -k * k)
    g, log_scale, nodes = integrate_numerov(w, h, 0.0, 1.0)
    assert nodes == math.floor(k * T / math.pi)
    assert np.all(log_scale == 0.0)
    exact = np.sin(k * t) / k
    assert np.max(np.abs(g - exact)) < 1e-8


def test_fourth_order_convergence():
    k = 2.5
    T = 6.0

    def max_err(n):
        h = T / (n - 1)
        t = np.linspace(0.0, T, n)
        w = np.full(n, -k * k)
        g, _, _ = integrate_numerov(w, h, 0.0, 1.0)
        return np.max(np.abs(g - np.sin(k * t) / k))

    e1, e2 = max_err(501), max_err(1001)
    order = math.log2(e1 / e2)
    assert 3.6 < order < 4.4, f"observed order {order:.2f}"


def test_renormalization_preserves_log_trajectory():
    # g'' = k^2 g, g(0) = 0, g'(0) = 1 gives g = sinh(k t) / k, so
    # log|g| + log_scale must follow k t - ln 2k across the rescale
    k, h, n = 50.0, 1e-3, 20000
    t = h * np.arange(n)
    g, ls, _ = integrate_numerov(np.full(n, k * k), h, 0.0, 1.0)
    assert np.any(np.diff(ls) > 0.0), "no rescale happened"
    late = t > 1.0
    err = np.log(np.abs(g[late])) + ls[late] - (k * t[late] - math.log(2.0 * k))
    assert np.max(np.abs(err)) < 5e-5


def test_growth_never_overflows():
    w = np.full(20000, 2500.0)  # bare growth e^{50 t} over t in [0, 20]
    g, ls, nodes = integrate_numerov(w, 1e-3, 0.0, 1.0)
    assert np.all(np.isfinite(g))
    assert ls[-1] > 100.0
    assert nodes == 0


def test_node_counting_ignores_touching_zero():
    # start exactly at zero: the leading zero sample is not a node
    w = np.full(64, -1.0)
    _, _, nodes = integrate_numerov(w, 0.01, 0.0, 1.0)
    assert nodes == 0


def test_input_validation():
    with pytest.raises(ValueError):
        integrate_numerov(np.zeros(1), 0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate_numerov(np.zeros(8), 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate_numerov(np.zeros(8), float("nan"), 0.0, 1.0)
