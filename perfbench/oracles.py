"""Exact reference values the benchmark checks every operation against.

Nothing here calls efimov_lab: the hyperangular roots come from the raw
eigenvalue formula in mpmath, the hard-wall levels at unitarity from the
zeros of K_ib, the cap levels from matching sin/sinh to sqrt(rho) K_ib at
R, and the mean-field functional from its power-law terms.  Every check
returns the relative error it saw and a list of problems; an operation
with any problem counts as failed.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp

mp.mp.dps = 30

MU = 0.5                                   # reduced mass used throughout
README_B = 1.00623782510                   # README constants, 12 digits
README_C = 1.26251456067
LEVEL_RTOL = 1e-6                          # level energies vs exact oracle
ROOT_RTOL = 1e-9                           # nu^2 roots vs raw formula
CSV_RTOL = 1e-10                           # 12-significant-digit CSV cells
RATIO_RTOL = 1e-3                          # deep tower ratio vs exp(2 pi/b)
NODE_RATIO_RTOL = 0.01                     # node spacing vs exp(pi/b)


def rel_err(got, want) -> float:
    want = float(want)
    if want == 0.0:
        return abs(float(got))
    return abs(float(got) - want) / abs(want)


def raw_lhs(s):
    """[-nu cos(nu pi/2) + (8/sqrt3) sin(nu pi/6)] / sin(nu pi/2) at nu^2 = s."""
    if s == 0:
        # removable point: the limit (4 pi sqrt3 / 9 - 1) / (pi / 2)
        return (4 * mp.pi * mp.sqrt(3) / 9 - 1) / (mp.pi / 2)
    nu = mp.sqrt(mp.mpc(s))
    half = nu * mp.pi / 2
    val = (-nu * mp.cos(half) + 8 / mp.sqrt(3) * mp.sin(nu * mp.pi / 6)) / mp.sin(half)
    return mp.re(val)


@functools.lru_cache(maxsize=None)
def efimov_b() -> float:
    """Root of b cosh(pi b/2) = (8/sqrt3) sinh(pi b/6), the x = 0 branch-0 root."""
    return float(mp.findroot(
        lambda b: b * mp.cosh(mp.pi * b / 2) - 8 / mp.sqrt(3) * mp.sinh(mp.pi * b / 6),
        (mp.mpf("0.9"), mp.mpf("1.1")), solver="anderson"))


def tower_ratio() -> float:
    """Asymptotic energy ratio of consecutive levels, exp(2 pi / b)."""
    return math.exp(2.0 * math.pi / efimov_b())


def probe_slope() -> float:
    """Nodes added per decade of inner cutoff, b ln(10) / pi."""
    return efimov_b() * math.log(10.0) / math.pi


def threshold(a: float) -> float:
    """Atom-dimer threshold -1 / (2 mu a^2); zero at unitarity."""
    return 0.0 if math.isinf(a) else -1.0 / (2.0 * MU * a * a)


def _bracket_root(f, lo, hi):
    """Root of f on [lo, hi], whose ends must differ in sign."""
    return mp.findroot(f, (mp.mpf(lo), mp.mpf(hi)), solver="illinois",
                       verify=False)


def branch_root(x: float, branch: int) -> float:
    """nu^2 on the given branch at x, from the raw formula alone.

    Branch 0 is the increasing curve on nu^2 < 4; branch k >= 1 lives on
    the nu interval between consecutive genuine poles ((2, 6) for k = 1,
    (2k+2, 2k+4) above), where the curve rises from -inf to +inf.
    """
    x = mp.mpf(x)
    if branch == 0:
        f = lambda s: raw_lhs(s) - x
        if f(mp.mpf(0)) < 0:
            lo, gap = mp.mpf(0), mp.mpf(2)
            while f(4 - gap) < 0:
                gap /= 2
            return float(_bracket_root(f, lo, 4 - gap))
        lo = mp.mpf(-1)
        while f(lo) > 0:
            lo *= 2
        return float(_bracket_root(f, lo, mp.mpf(0)))
    nu_lo, nu_hi = (2, 6) if branch == 1 else (2 * branch + 2, 2 * branch + 4)
    g = lambda nu: raw_lhs(nu * nu) - x
    eps = mp.mpf("1e-6")
    while g(nu_lo + eps) > 0:
        eps /= 8
    a = nu_lo + eps
    eps = mp.mpf("1e-6")
    while g(nu_hi - eps) < 0:
        eps /= 8
    nu = _bracket_root(g, a, nu_hi - eps)
    return float(nu * nu)


@functools.lru_cache(maxsize=None)
def kib_zeros(count: int = 10) -> tuple[float, ...]:
    """The `count` largest zeros z_n of K_ib(z), descending.

    The hard wall at R with nu^2 = -b^2 has exactly the levels
    kappa_n R = z_n.  Zeros accumulate geometrically at 0 with ratio
    exp(pi / b); each one is bracketed by a sign change on a fine log scan
    around that estimate before it is polished.
    """
    b = mp.mpf(efimov_b())
    k = lambda z: mp.re(mp.besselk(1j * b, z))
    step = mp.exp(-mp.pi / b)
    zeros = []
    hi = mp.mpf(1)
    for _ in range(count):
        # scan down from hi by 1/64 of a half period until the sign flips
        z, fz = hi, k(hi)
        ratio = mp.exp(-mp.pi / b / 64)
        while True:
            zn = z * ratio
            fn = k(zn)
            if fz * fn <= 0:
                break
            z, fz = zn, fn
        root = _bracket_root(k, zn, z)
        zeros.append(float(root))
        hi = root * mp.sqrt(step)
    return tuple(zeros)


def hardwall_levels(R: float, count: int) -> list[float]:
    """Exact hard-wall energies -z_n^2 / (2 R^2) at unitarity, most bound first."""
    return [-0.5 * (z / R) ** 2 for z in kib_zeros()[:count]]


def cap_kappa(kappa_guess: float, R: float) -> float:
    """Exact cap level near kappa_guess at unitarity.

    Below R the wave is sin(q rho) (or sinh) with
    q^2 = (b^2 + 1/4)/R^2 - kappa^2; above R it is sqrt(rho) K_ib(kappa rho).
    The level is the root of the log-derivative mismatch at R, written
    without division so the zeros of K_ib are harmless.
    """
    b = mp.mpf(efimov_b())
    R = mp.mpf(R)
    C = b * b + mp.mpf(1) / 4

    def match(kappa):
        z = kappa * R
        kv = mp.re(mp.besselk(1j * b, z))
        dk = -mp.re(mp.besselk(1j * b - 1, z) + mp.besselk(1j * b + 1, z)) / 2
        q2 = C / (R * R) - kappa * kappa
        if q2 > 0:
            q = mp.sqrt(q2)
            inner = q * mp.cot(q * R)
        else:
            p = mp.sqrt(-q2)
            inner = p * mp.coth(p * R)
        return (1 / (2 * R) - inner) * kv + kappa * dk

    k0 = mp.mpf(kappa_guess)
    return float(mp.findroot(match, (k0 * (1 - mp.mpf("1e-5")), k0 * (1 + mp.mpf("1e-5"))),
                             solver="secant"))


def check_levels(energies, flags, *, a: float, scheme: str | None, R: float,
                 problems: list) -> tuple[float, int]:
    """Check a reported spectrum; return (max rel err, levels above threshold).

    Every spectrum must be below zero and strictly ordered, most bound
    first.  At unitarity each level without the box flag must match its
    exact value, and consecutive deep levels the ratio exp(2 pi / b).
    Levels above the atom-dimer threshold are counted, not failed: they
    are the known continuum artefact of the dimer side.
    """
    worst = 0.0
    if any(not (e < 0.0) for e in energies):
        problems.append(f"non-negative level in {energies}")
    if any(energies[i] >= energies[i + 1] for i in range(len(energies) - 1)):
        problems.append(f"levels not ordered most bound first: {energies}")
    thr = threshold(a)
    above = sum(1 for e in energies if e > thr)
    if not math.isinf(a):
        return worst, above
    if not energies:
        problems.append("no level reported at unitarity")
        return worst, above
    if scheme == "hardwall":
        exact = hardwall_levels(R, len(energies))
    for k, (e, boxed) in enumerate(zip(energies, flags)):
        if boxed:
            continue
        want = exact[k] if scheme == "hardwall" else \
            -0.5 * cap_kappa(math.sqrt(-2.0 * e), R) ** 2
        err = rel_err(e, want)
        worst = max(worst, err)
        if err > LEVEL_RTOL:
            problems.append(f"level {k}: E = {e!r}, exact {want!r} (rel err {err:.2e})")
    deep = [e for e, boxed in zip(energies, flags) if not boxed][1:]
    for e1, e2 in zip(deep[:-1], deep[1:]):
        err = rel_err(e1 / e2, tower_ratio())
        if err > RATIO_RTOL:
            problems.append(f"tower ratio {e1 / e2!r} vs exp(2 pi/b) (rel err {err:.2e})")
    return worst, above


def check_probe(counts, decades: float, problems: list) -> None:
    """Node counts never fall as the cutoff shrinks, and the whole sweep
    adds b ln(10)/pi nodes per decade to within the one-node staircase."""
    counts = [int(c) for c in counts]
    if any(c2 < c1 for c1, c2 in zip(counts[:-1], counts[1:])):
        problems.append(f"probe counts decrease: {counts}")
    gained = counts[-1] - counts[0]
    if abs(gained - probe_slope() * decades) > 1.0:
        problems.append(f"probe gained {gained} nodes over {decades} decades, "
                        f"expected {probe_slope() * decades:.3f} +- 1")


def check_branch_values(x_values, values, branch: int, problems: list,
                        rtol: float = ROOT_RTOL) -> float:
    """nu^2 values against raw-formula roots on the same branch."""
    worst = 0.0
    for x, got in zip(x_values, values):
        want = branch_root(float(x), branch)
        err = abs(float(got) - want) / max(1.0, abs(want))
        worst = max(worst, err)
        if err > rtol:
            problems.append(f"branch {branch} at x = {x!r}: nu^2 = {got!r}, "
                            f"raw formula {want!r} (err {err:.2e})")
    return worst


def meanfield_terms(statistics: str, t0: float, t3: float, alpha: float | None,
                    c3: float) -> list[tuple[float, float]]:
    """Energy density epsilon(n) = sum c n^p of the documented functional."""
    terms = []
    if statistics == "fermi":
        tau = 0.6 * (1.5 * math.pi ** 2) ** (2.0 / 3.0)
        terms += [(0.5 * tau, 5.0 / 3.0), (0.375 * t0, 2.0)]
    else:
        terms.append((0.5 * t0, 2.0))
    if t3:
        terms.append((c3 * t3, 2.0 + alpha if alpha is not None else 3.0))
    return terms


def meanfield_saturation(terms) -> tuple[float, float]:
    """(n_sat, e_min) where e(n) = epsilon(n)/n has its interior minimum.

    e'(n) goes from negative to positive at the minimum; a log scan over
    twelve decades brackets that sign change.
    """
    de = lambda n: sum(mp.mpf(c) * (p - 1) * n ** (p - 2) for c, p in terms)
    grid = [mp.mpf(10) ** (k / mp.mpf(20)) for k in range(-120, 121)]
    for lo, hi in zip(grid[:-1], grid[1:]):
        if de(lo) < 0 <= de(hi):
            n = _bracket_root(de, lo, hi)
            break
    else:
        raise ValueError("no interior minimum of e(n)")
    e = sum(mp.mpf(c) * n ** (p - 1) for c, p in terms)
    return float(n), float(e)
