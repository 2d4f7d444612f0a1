"""Command-line front end: every library operation as a subcommand.

Subcommands: constants, potential, spectrum, nodes, meanfield, branches.
nodes reports the node geometry of one bound level of the regularized
spectrum or, with --probe-E, the node staircase of a cutoff sweep of the
bare potential: the two signatures of the collapse.

Each subcommand supports --format {csv,json} and --output.  --tol exists
where a tolerance binds: the residual of the b root (constants), the
relative energy of a level (spectrum, nodes) and the pressure residual at
the mean-field saturation point (meanfield).  Every root (b, each nu^2
and n_sat) is narrowed to adjacent doubles by one solver, so the
tolerances of constants and meanfield gate a root and do not steer it;
potential and branches take none.  CSV bodies are deterministic: fixed
column order, 12 significant digits, '.' decimal separator, '\\n' line
endings, header row first.  JSON records of tabular rows use the CSV
header as their keys.  Every run produces a manifest (command, full
parameter set, tolerances, unit system, tool version, timestamp):
embedded under the "manifest" key in JSON output, written to
<output>.manifest.json next to a --output CSV file, or sent to stderr
when CSV goes to stdout.  Every subcommand writes through `_emit`, the
one place that writes the CSV body (line by line, never whole), the JSON
document and the manifest.

This module loads only `core`, numpy, argparse and json; each subcommand
imports the solvers it runs when it runs: `hyperangular` for constants,
potential and branches, `hyperangular` and `radial` for spectrum and
nodes, and `meanfield` alone for meanfield.

Exit codes: 0 success, 2 numerical or configuration failure,
3 physically forbidden request (e.g. a spectrum of the unregularized
inverse-square attraction).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
from datetime import datetime, timezone
from typing import Callable

import numpy as np

from . import __version__
from .core import (
    DEFAULT_DT,
    DEFAULT_TOL_E,
    MAX_GRID_POINTS,
    ConfigError,
    EfimovLabError,
    InsufficientNodesError,
    LogGrid,
    UnregularizedPotentialError,
    make_config,
)

_SCHEMES = ("none", "hardwall", "cap")
# CSV lines formatted and written at a time: a body held whole takes ~200 MB at
# a million points, and one write per line made such a run 1.4-1.6x slower
_CSV_BLOCK = 4096
_DT_DEFAULT = f"(default 1/{1 / DEFAULT_DT:g})"


def _fmt(value) -> str:
    """12-significant-digit CSV cell; ints stay integral."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.12g" % float(value)


def _write_csv(fh, header: list[str], rows) -> None:
    """Write the CSV body to `fh` in blocks of _CSV_BLOCK lines, never whole."""
    fh.write(",".join(header) + "\n")
    rows = iter(rows)
    while block := "".join([",".join(map(_fmt, row)) + "\n"
                            for row in itertools.islice(rows, _CSV_BLOCK)]):
        fh.write(block)


def _jsonable(obj):
    """Convert numpy scalars/arrays and non-finite floats for JSON."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj


def _potential(ns: argparse.Namespace, rho_lo: float, rho_hi: float, points: int,
               regularization: str, branch: int = 0):
    """Branch `branch` of --a and --mu on a log grid, regularized at --R as named."""
    from .hyperangular import Cap, HardWall, effective_potential, tabulate_branch

    scheme = None
    if regularization != "none":
        if ns.R is None:
            raise ConfigError(f"--regularization {regularization} requires --R")
        scheme = HardWall(ns.R) if regularization == "hardwall" else Cap(ns.R)
    grid = LogGrid.make(rho_lo, rho_hi, points)
    return effective_potential(tabulate_branch(make_config(ns.a, mu=ns.mu), grid, branch),
                               scheme)


def _manifest(ns: argparse.Namespace, tolerances: dict) -> dict:
    params = {k: v for k, v in sorted(vars(ns).items()) if k not in ("func", "command")}
    mu = params.get("mu")
    return {
        "command": ns.command,
        "version": __version__,
        "parameters": params,
        "tolerances": tolerances,
        "units": {
            "hbar": 1.0,
            "mass_scale": 1.0,
            "reduced_mass_mu": mu,
            "convention": "k cot(delta0) = +1/a; the pair binds for a < 0; "
                          "x = rho / (sqrt(mu) a)",
        },
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _records(header: list[str], rows) -> list[dict]:
    """JSON records of CSV rows, keyed by the CSV header."""
    return [dict(zip(header, row)) for row in rows]


def _emit(ns: argparse.Namespace, tolerances: dict, header: list[str], rows,
          doc: Callable[[], dict], sidecar: dict | None = None) -> int:
    """Write one result in the chosen format and return exit code 0.

    CSV streams `header` and `rows` as the body, then writes `sidecar`
    plus the manifest as JSON next to it; JSON writes the document that
    `doc` builds, plus the manifest, so a CSV run never builds it.  The
    manifest never enters a CSV body.
    """
    manifest = _manifest(ns, tolerances)
    if ns.format == "json":
        text = json.dumps(_jsonable({**doc(), "manifest": manifest}),
                          indent=2, allow_nan=False) + "\n"
        if ns.output:
            with open(ns.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0

    side_text = json.dumps(_jsonable({**(sidecar or {}), "manifest": manifest}),
                           indent=2, allow_nan=False) + "\n"
    if ns.output:
        with open(ns.output, "w", encoding="utf-8", newline="") as fh:
            _write_csv(fh, header, rows)
        with open(ns.output + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(side_text)
    else:
        _write_csv(sys.stdout, header, rows)
        sys.stderr.write(side_text)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write to PATH instead of stdout (CSV gets a "
                        "PATH.manifest.json sidecar)")


def cmd_constants(ns: argparse.Namespace) -> int:
    from .hyperangular import efimov_constants

    c = efimov_constants(tol=ns.tol)
    header, rows = ["b", "C", "residual"], [[c.b, c.C, c.residual]]
    return _emit(ns, {"root_tol": ns.tol}, header, rows,
                 lambda: _records(header, rows)[0])


def cmd_potential(ns: argparse.Namespace) -> int:
    pot = _potential(ns, ns.rho_min, ns.rho_max, ns.points, ns.regularization, ns.branch)
    tbl = pot.table()
    cols = ["rho", "x", "nu_squared", "lambda", "v_eff"]
    rows = zip(*(tbl[c] for c in cols))
    return _emit(ns, {}, cols, rows, lambda: {"table": {c: tbl[c] for c in cols}})


def _spectrum_for(ns: argparse.Namespace):
    from .radial import find_spectrum

    if ns.rho_max <= ns.R:
        raise ConfigError(f"--rho-max must exceed --R, got {ns.rho_max} <= {ns.R}")
    # find_spectrum re-solves nu^2 at its own radii and never reads the table,
    # so the table stops short of rho_max, where a root that overflows would
    # pre-empt find_spectrum's own refusals
    pot = _potential(ns, ns.R, min(2.0 * ns.R, ns.rho_max), 2, ns.regularization)
    return find_spectrum(pot, ns.rho_max, max_levels=ns.levels, tol_E=ns.tol,
                         dt=ns.dt)


def cmd_spectrum(ns: argparse.Namespace) -> int:
    spec = _spectrum_for(ns)
    ratios = spec.energy_ratios()
    header = ["E_n", "kappa_n", "node_count", "ratio_to_next", "flag"]
    rows = [[s.E, s.kappa, s.node_count,
             float(ratios[k]) if k < len(ratios) else float("nan"), s.box_limited]
            for k, s in enumerate(spec.states)]
    # |E_h - E_2h| / 15 per level: the error estimate of the h-grid level,
    # which bounds that of the extrapolated E_n from above
    errors = [s.E_error for s in spec.states]
    return _emit(ns, {"tol_E": ns.tol, "dt": ns.dt}, header, rows,
                 lambda: {"levels": _records(header, rows), "rho_max": ns.rho_max,
                          "total_nodes_at_edge": spec.total_nodes_at_edge,
                          "E_threshold": spec.threshold, "E_error": errors},
                 {"E_threshold": spec.threshold, "E_error": errors})


def cmd_nodes(ns: argparse.Namespace) -> int:
    from .hyperangular import efimov_constants
    from .radial import collapse_probe, node_analysis

    if ns.probe_E is not None:
        if ns.a is None:
            raise ConfigError("--probe-E mode requires --a")
        if not (math.isfinite(ns.probe_E) and ns.probe_E < 0.0):
            raise ConfigError(f"--probe-E must be finite and negative, got {ns.probe_E}")
        if not (math.isfinite(ns.base_cutoff) and ns.base_cutoff > 0.0):
            raise ConfigError(f"--base-cutoff must be positive and finite, got {ns.base_cutoff!r}")
        if ns.decades < 1:
            raise ConfigError(f"--decades must be >= 1, got {ns.decades}")
        smallest = ns.base_cutoff * 10.0 ** (-ns.decades)
        if smallest < sys.float_info.min:
            raise ConfigError(f"--decades {ns.decades} takes the smallest cutoff "
                              f"{ns.base_cutoff!r} * 10^-{ns.decades} below the float range")
        # collapse_probe solves nu^2 once on its own grid and never reads the table
        pot = _potential(ns, smallest, ns.base_cutoff, 2, "none")
        probe = collapse_probe(pot, ns.probe_E, ns.base_cutoff, ns.decades,
                               ns.per_decade, dt=ns.dt)
        header = ["k", "cutoff", "node_count"]
        rows = [[k, c, int(cnt)]
                for k, (c, cnt) in enumerate(zip(probe.cutoffs, probe.counts))]
        summary = {"mode": "probe",
                   "slope_per_decade": probe.slope_per_decade,
                   "reference_slope": probe.reference_slope,
                   "reference_formula": "b ln(10) / pi",
                   "zeros": probe.zeros,
                   "zero_ratio": probe.zero_ratio,
                   "reference_ratio": probe.reference_ratio,
                   "reference_ratio_formula": "exp(pi / b)",
                   "E": probe.E, "rho_out": probe.rho_out}
        return _emit(ns, {"dt": ns.dt}, header, rows,
                     lambda: {"sweep": _records(header, rows), "summary": summary,
                              "mode": "probe"},
                     {"summary": summary})

    if ns.a is None or ns.R is None or ns.rho_max is None:
        raise ConfigError("level mode requires --a, --R and --rho-max")
    if ns.regularization == "none":
        raise UnregularizedPotentialError(
            "node analysis of a bound level needs a regularized spectrum; "
            "the bare inverse-square attraction has none (use --probe-E "
            "to study the unregularized cutoff sweep)")
    spec = _spectrum_for(ns)
    pool = spec.interior_states() or list(spec.states)
    if not pool and spec.threshold < 0.0:
        raise ConfigError(
            f"no trimer lies below the atom-dimer threshold E_thr = "
            f"{spec.threshold:.6g} at a = {ns.a:g}, R = {ns.R:g}; "
            f"a trimer needs a smaller --R or a larger |a|")
    if not pool:
        raise ConfigError("no bound level found; enlarge --rho-max")
    if ns.level is None:
        sol = pool[-1]
        level = spec.states.index(sol)
    else:
        if not 0 <= ns.level < len(spec.states):
            raise ConfigError(
                f"--level {ns.level} out of range: {len(spec.states)} "
                f"level(s) found")
        level = ns.level
        sol = spec.states[level]

    try:
        report = node_analysis(sol, kappa_rho_max=ns.kappa_rho_max,
                               wall_factor=ns.wall_factor)
    except InsufficientNodesError as exc:
        raise InsufficientNodesError(
            f"level {level}: {exc}; {len(spec)} bound level(s) lie below the threshold "
            f"E_thr = {spec.threshold:.6g}") from None
    header = ["k", "rho_k", "ratio"]
    rows = [[k, pos, report.ratios[k - 1] if k else float("nan")]
            for k, pos in enumerate(report.positions)]
    summary = {"mode": "level",
               "fitted_ratio": report.geometric_ratio,
               "ratio_spread": report.ratio_spread,
               "reference_ratio": math.exp(math.pi / efimov_constants().b),
               "reference_formula": "exp(pi / b)",
               "interior_count": int(len(report.interior_positions)),
               "kappa": report.kappa, "E": sol.E, "level": level}
    return _emit(ns, {"tol_E": ns.tol, "dt": ns.dt}, header, rows,
                 lambda: {"nodes": _records(header, rows), "summary": summary,
                          "mode": "level"},
                 {"summary": summary})


def cmd_meanfield(ns: argparse.Namespace) -> int:
    from .meanfield import (MatterModel, Stabilizer, Statistics, classify_stability,
                            energy_density, energy_per_particle, ln_overflow_density)

    if ns.stabilizer == "none":
        stab = Stabilizer.none()
        if ns.t3:
            raise ConfigError("--t3 requires --stabilizer threebody or dd")
    elif ns.stabilizer == "threebody":
        stab = Stabilizer.three_body(ns.t3)
    else:
        if ns.alpha is None:
            raise ConfigError("--stabilizer dd requires --alpha")
        stab = Stabilizer.density_dependent(ns.t3, ns.alpha)
    model = MatterModel(Statistics(ns.statistics), ns.t0, stab, c3=ns.c3)
    report = classify_stability(model, tol=ns.tol)

    if not (0.0 < ns.n_min < ns.n_max):
        raise ConfigError(f"need 0 < --n-min < --n-max, got {ns.n_min}, {ns.n_max}")
    if not 1 <= ns.points <= MAX_GRID_POINTS:
        raise ConfigError(f"--points must be in [1, {MAX_GRID_POINTS}], got {ns.points}")
    n = np.geomspace(ns.n_min, ns.n_max, ns.points)
    # rows from the least density where a term may overflow on are left out; the
    # first row stays, so that a table wholly past it is refused naming the term
    n = n[:max(int(np.count_nonzero(np.log(n) < ln_overflow_density(model))), 1)]
    eps = energy_density(model, n)
    per = energy_per_particle(model, n)
    cols = {"n": n, "epsilon": eps, "epsilon_per_particle": per}
    side = {"report": report.to_dict(), "rows_dropped": ns.points - n.size}
    return _emit(ns, {"stationarity_tol": ns.tol}, list(cols), zip(*cols.values()),
                 lambda: {**side, "table": cols}, side)


def cmd_branches(ns: argparse.Namespace) -> int:
    from .hyperangular import solve_branches

    roots = solve_branches(ns.x, ns.count)
    header = ["branch", "nu_squared", "lambda", "residual", "near_pole"]
    rows = [[r.branch_index, r.value, r.lam, r.residual, r.near_pole]
            for r in roots]
    return _emit(ns, {}, header, rows,
                 lambda: {"x": ns.x, "branches": _records(header, rows)})


# argparse only reads '-1' and '-.5' as values; '-1e4', '-inf' and '-nan'
# would otherwise be taken for option names
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that takes every negative float literal as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="efimov-lab",
        description="Zero-range three-body collapse toolkit: hyperangular "
                    "eigenvalue branches, the attractive 1/rho^2 effective "
                    "potential, regularized geometric bound-state towers, and "
                    "mean-field stability of stabilized matter.")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="transcendental constants b and C at unitarity")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="root tolerance for the b equation (default 1e-10)")
    _add_common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("potential", help="tabulate nu^2(rho) and the effective potential")
    p.add_argument("--a", type=float, required=True,
                   help="scattering length ('inf' for unitarity; a < 0 binds the pair)")
    p.add_argument("--mu", type=float, default=0.5, help="reduced mass (default 0.5)")
    p.add_argument("--rho-min", type=float, required=True)
    p.add_argument("--rho-max", type=float, required=True)
    p.add_argument("--points", type=int, default=200, help="grid points (default 200)")
    p.add_argument("--branch", type=int, default=0, help="branch index (default 0)")
    p.add_argument("--regularization", choices=_SCHEMES, default="none")
    p.add_argument("--R", type=float, default=None, help="regularization radius")
    _add_common(p)
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("spectrum", help="bound levels of the regularized potential")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--R", type=float, required=True, help="regularization radius")
    p.add_argument("--rho-max", type=float, required=True, help="outer box radius")
    p.add_argument("--levels", type=int, default=8, help="maximum levels (default 8)")
    p.add_argument("--regularization", choices=_SCHEMES, default="hardwall")
    p.add_argument("--dt", type=float, default=DEFAULT_DT,
                   help="step h of the log grid t = ln(rho/R), below 0.048; each "
                        "level is extrapolated from its searches at h and 2h "
                        + _DT_DEFAULT)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL_E,
                   help=f"relative energy tolerance (default {DEFAULT_TOL_E:g})")
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("nodes", help="node geometry of a level or a cutoff sweep")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--rho-max", type=float, default=None)
    p.add_argument("--level", type=int, default=None,
                   help="level index, 0 = most bound (default: shallowest clean level)")
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--regularization", choices=_SCHEMES, default="hardwall")
    p.add_argument("--kappa-rho-max", type=float, default=0.2,
                   help="outer edge of the self-similar window (default 0.2)")
    p.add_argument("--wall-factor", type=float, default=2.0,
                   help="inner edge in units of R (default 2)")
    p.add_argument("--probe-E", type=float, default=None,
                   help="fixed negative energy: sweep the inner cutoff of the "
                        "unregularized potential instead of analysing a level")
    p.add_argument("--base-cutoff", type=float, default=1e-2)
    p.add_argument("--decades", type=int, default=4)
    p.add_argument("--per-decade", type=int, default=8)
    p.add_argument("--dt", type=float, default=DEFAULT_DT,
                   help="step h of the log grid of the level search or the cutoff "
                        "probe, below 0.048 " + _DT_DEFAULT)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL_E,
                   help="relative energy tolerance for the level search "
                        f"(default {DEFAULT_TOL_E:g})")
    _add_common(p)
    p.set_defaults(func=cmd_nodes)

    p = sub.add_parser("meanfield", help="equation of state and stability class")
    p.add_argument("--statistics", choices=("bose", "fermi"), required=True)
    p.add_argument("--t0", type=float, required=True, help="two-body coupling")
    p.add_argument("--stabilizer", choices=("none", "threebody", "dd"), default="none")
    p.add_argument("--t3", type=float, default=0.0, help="stabilizer strength (>= 0)")
    p.add_argument("--alpha", type=float, default=None,
                   help="density exponent for --stabilizer dd (term ~ n^(alpha+2))")
    p.add_argument("--c3", type=float, default=None,
                   help="stabilizer prefactor (default: documented convention)")
    p.add_argument("--n-min", type=float, default=1e-4)
    p.add_argument("--n-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-10,
                   help="gate on the saturation point: pressure residual within "
                        "sqrt(tol) of |epsilon| (default 1e-10)")
    _add_common(p)
    p.set_defaults(func=cmd_meanfield)

    p = sub.add_parser("branches", help="eigenvalue branches nu^2 at one x = rho/(sqrt(mu) a)")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--count", type=int, default=4, help="branches to solve (default 4)")
    _add_common(p)
    p.set_defaults(func=cmd_branches)
    return ap


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except UnregularizedPotentialError as exc:
        print(f"efimov-lab: forbidden: {exc}", file=sys.stderr)
        return 3
    except EfimovLabError as exc:
        print(f"efimov-lab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
