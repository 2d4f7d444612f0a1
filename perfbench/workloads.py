"""The benchmark workloads: seeded inputs, timed operations, oracles.

A workload is an endless, seed-determined sequence of groups; a group is
a list of operations over one stratified cycle of inputs.  The harness
runs whole groups, so every run sees the same mix of inputs.  Each
operation has a timed part (`fn` in process, or `argv` for a fresh CLI
process) and an untimed `check` that compares the output with the
oracles in `oracles.py` and returns an `Outcome`.

Why these four (each stresses a layer the others leave idle; BENCHMARK.json
lists the first three, see NOTES.md for why branch-table is not gated):
  cli-readme       fresh `python -m efimov_lab` per README command plus the
                   dimer-side spectrum and nodes runs; import, argparse and
                   output dominate, and it is the only workload where the
                   import, cli and meanfield layers show.
  unitarity-tower  find_spectrum (hard wall and cap) and collapse_probe at
                   a = inf; nu^2 is constant, so nearly all time is Numerov
                   kernel calls made by the radial bisection.
  dimer-spectrum   tabulate_branch + find_spectrum, and a collapse_probe, at
                   a drawn log-uniformly from [-1e5, -1e2]; about half the
                   time is the exact nu^2 re-solve behind
                   EffectivePotential.nu_squared_at, repeated per workspace.
  branch-table     tabulate_branch on 20k-point grids for branches 0-2 and a
                   sweep of solve_branches(x, 6); pure hyperangular, the
                   path that the other workloads spend at most 2% in.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import oracles as orc

KNOWN_NODES_DEFECT = "interior node(s) in the window"


@dataclass
class Outcome:
    """What the oracle made of one operation's output."""

    problems: list = field(default_factory=list)
    rel_err: float = 0.0
    above_threshold: int = 0
    nonzero_exit: bool = False
    output_bytes: int = 0


@dataclass
class Op:
    name: str
    check: Callable[[object], Outcome]
    fn: Callable[[], object] | None = None     # in-process call
    argv: list | None = None                   # CLI arguments after `-m efimov_lab`


class _Strata:
    """Seeded stratified draws in [0, 1).

    `cycle(n)` returns one draw from each of n equal strata, shuffled by
    the seed and jittered by it within the middle JITTER of the stratum.
    A group spans whole cycles, so every run covers the input range evenly
    whatever the seed.  The narrow jitter keeps the cost of a group nearly
    the same from seed to seed while the inputs themselves still change.
    """

    JITTER = 0.2

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def cycle(self, n: int) -> list[float]:
        u = [(k + 0.5 + self.JITTER * (self.rng.random() - 0.5)) / n for k in range(n)]
        self.rng.shuffle(u)
        return u


# ---------------------------------------------------------------- in-process

def _spectrum(a: float, R: float, rho_max: float, scheme_cls):
    from efimov_lab import hyperangular as ha, radial
    from efimov_lab.core import LogGrid, make_config
    branch = ha.tabulate_branch(make_config(a), LogGrid.make(R, rho_max, 512), 0)
    return branch, radial.find_spectrum(ha.effective_potential(branch, scheme_cls(R)), rho_max)


def _probe(a: float, E: float, base: float, decades: int, per_decade: int):
    """The CLI's probe recipe: a bare potential on a 400-point grid."""
    from efimov_lab import hyperangular as ha, radial
    from efimov_lab.core import LogGrid, make_config
    rho_out = 36.0 / math.sqrt(-2.0 * E)
    grid = LogGrid.make(base * 10.0 ** -decades, rho_out * (1.0 + 1e-12), 400)
    pot = ha.effective_potential(ha.tabulate_branch(make_config(a), grid, 0), None)
    return radial.collapse_probe(pot, E, base, decades, per_decade)


def _check_spectrum(spec, *, a, scheme, R) -> Outcome:
    out = Outcome()
    energies = [s.E for s in spec.states]
    flags = [s.box_limited for s in spec.states]
    out.rel_err, out.above_threshold = orc.check_levels(
        energies, flags, a=a, scheme=scheme, R=R, problems=out.problems)
    for k, s in enumerate(spec.states):
        if s.node_count != k:
            out.problems.append(f"level {k} carries {s.node_count} nodes")
    return out


class UnitarityTower:
    """Per stratum of rho_max / R: hard-wall and cap spectra, then a probe."""

    name = "unitarity-tower"
    STRATA = 4

    def __init__(self, seed: int):
        self.strata = _Strata(seed)

    def next_group(self) -> list[Op]:
        ops = []
        for k, (u, v) in enumerate(zip(self.strata.cycle(self.STRATA),
                                       self.strata.cycle(self.STRATA))):
            R = 10.0 ** (-0.3 + 0.6 * v)                  # 0.5 .. 2
            rho_max = R * 10.0 ** (6.0 + 4.0 * u)         # 1e6 .. 1e10 R
            ops += self._ops(R, rho_max, decades=4 + k % 3)
        return ops

    @staticmethod
    def _ops(R, rho_max, decades):
        from efimov_lab.hyperangular import Cap, HardWall

        def check_probe(probe):
            out = Outcome()
            orc.check_probe(probe.counts, decades, out.problems)
            return out

        return [
            Op("spectrum-hardwall", fn=lambda: _spectrum(math.inf, R, rho_max, HardWall)[1],
               check=lambda s: _check_spectrum(s, a=math.inf, scheme="hardwall", R=R)),
            Op("spectrum-cap", fn=lambda: _spectrum(math.inf, R, rho_max, Cap)[1],
               check=lambda s: _check_spectrum(s, a=math.inf, scheme="cap", R=R)),
            Op("probe", fn=lambda: _probe(math.inf, -0.5 / (R * R), 1e-2 * R, decades, 8),
               check=check_probe),
        ]


class DimerSpectrum:
    """Per stratum of log10|a| in [2, 5]: the spectrum at R = 1, rho_max = 1e8
    (tabulate_branch + find_spectrum), then a collapse_probe over 2 decades,
    one cutoff per decade, at twice the atom-dimer threshold energy.

    The two ops cost about the same, so the median op sits among many
    similar ones; an odd number of strata keeps it off a stratum edge."""

    name = "dimer-spectrum"
    STRATA = 5
    R = 1.0
    RHO_MAX = 1e8

    def __init__(self, seed: int):
        self.strata = _Strata(seed)

    def next_group(self) -> list[Op]:
        ops = []
        for u in self.strata.cycle(self.STRATA):
            a = -(10.0 ** (2.0 + 3.0 * u))
            ops += [self._spectrum(a, sorted(self.strata.rng.sample(range(512), 3))),
                    self._probe(a)]
        return ops

    def _spectrum(self, a, picks):
        from efimov_lab.hyperangular import HardWall

        def check(result):
            branch, spec = result
            out = _check_spectrum(spec, a=a, scheme="hardwall", R=self.R)
            xs = branch.grid.values[picks] / (math.sqrt(orc.MU) * a)
            err = orc.check_branch_values(xs, branch.nu_squared[picks], 0, out.problems)
            out.rel_err = max(out.rel_err, err)
            return out

        return Op("spectrum", fn=lambda: _spectrum(a, self.R, self.RHO_MAX, HardWall),
                  check=check)

    def _probe(self, a):
        def check(probe):
            out = Outcome()
            orc.check_probe(probe.counts, 2, out.problems)
            return out

        return Op("probe", fn=lambda: _probe(a, 2.0 * orc.threshold(a), 0.1 * self.R, 2, 1),
                  check=check)


class BranchTable:
    """Branches 0-2 tabulated on a 20k-point grid spanning
    x = rho / (sqrt(mu) a) from ~1e-3 to ~1e2..1e3, then a sweep of
    solve_branches(x, 6) over stratified x in [-30, 30].

    Groups alternate the sign of a; each pair of groups shares one
    stratified cycle of |a|, grid top and x, so two groups cover both signs
    and the whole x range."""

    name = "branch-table"
    POINTS = 20_000
    SWEEP = 12

    def __init__(self, seed: int):
        self.strata = _Strata(seed)
        self.pending = []

    def next_group(self) -> list[Op]:
        if not self.pending:
            xs = [60.0 * u - 30.0 for u in self.strata.cycle(2 * self.SWEEP)]
            self.pending = [(sign, m, t, xs[k::2]) for k, (sign, m, t) in enumerate(
                zip((-1.0, 1.0), self.strata.cycle(2), self.strata.cycle(2)))]
        sign, m, t, xs = self.pending.pop(0)
        a = sign * 10.0 ** (-1.0 + 2.0 * m)                # |a| in 0.1 .. 10
        picks = sorted(self.strata.rng.sample(range(self.POINTS), 4))
        return ([self._tabulate(a, 10.0 ** (2.0 + t), k, picks) for k in range(3)]
                + [self._sweep(x) for x in xs])

    def _tabulate(self, a, grid_top, k, picks):
        from efimov_lab import hyperangular as ha
        from efimov_lab.core import LogGrid, make_config
        grid = LogGrid.make(1e-3 * abs(a), grid_top * abs(a), self.POINTS)

        def check(branch):
            out = Outcome()
            x = grid.values[picks] / (math.sqrt(orc.MU) * a)
            out.rel_err = orc.check_branch_values(x, branch.nu_squared[picks], k, out.problems)
            return out

        return Op(f"tabulate-b{k}", fn=lambda: ha.tabulate_branch(make_config(a), grid, k),
                  check=check)

    @staticmethod
    def _sweep(x):
        from efimov_lab import hyperangular as ha

        def check(roots):
            out = Outcome()
            if [r.branch_index for r in roots] != list(range(6)):
                out.problems.append(f"solve_branches({x}, 6) returned branches "
                                    f"{[r.branch_index for r in roots]}")
            for k, r in enumerate(roots):
                err = orc.check_branch_values([x], [r.value], k, out.problems)
                out.rel_err = max(out.rel_err, err)
            return out

        return Op("solve_branches", fn=lambda: ha.solve_branches(x, 6), check=check)


# ---------------------------------------------------------------- CLI

def _schema_validator():
    import jsonschema
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "src/efimov_lab/schemas/cli_output.schema.json"
    schema = json.loads(path.read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(schema)


def _json_doc(text: str):
    """The JSON document in a CLI stream; warnings may precede it."""
    start = 0 if text.startswith("{") else text.index("\n{") + 1
    return json.loads(text[start:])


def _csv_rows(text: str) -> tuple[list, list]:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    return header, [[float(c) for c in line.split(",")] for line in lines[1:]]


class CliReadme:
    """Each README command, and the two dimer-side runs, as a fresh process.

    Dimer-side values are written `--a=-1e4`, because argparse takes
    `--a -1e4` for a missing value.  `nodes --a=-1e4 ...` exits 2 with
    "2 interior node(s) in the window" today; the op is kept, its exit
    counts in ops_failed_ratio, and it fails the oracle only if it ends any
    other way than that documented exit-2 message or a valid result.

    A group runs every command REPEATS times in seeded order.  Four
    commands cost about 1 s and five cost 1.3-3 s, so with one or two
    samples per command the median op fell in the gap between the two
    clusters and spread by up to 0.19 over ten runs.  With three, it is
    the middle sample of the cheapest slow command.
    """

    name = "cli-readme"
    REPEATS = 3
    COMMANDS = {
        "constants": ["constants", "--format", "json"],
        "potential": ["potential", "--a", "inf", "--rho-min", "1e-3", "--rho-max", "1e3",
                      "--points", "200"],
        "spectrum": ["spectrum", "--a", "inf", "--R", "1", "--rho-max", "1e8",
                     "--regularization", "hardwall"],
        "nodes": ["nodes", "--a", "inf", "--R", "1", "--rho-max", "1e8"],
        "nodes-probe": ["nodes", "--a", "inf", "--probe-E", "-0.5", "--decades", "4"],
        "meanfield": ["meanfield", "--statistics", "fermi", "--t0", "-4", "--stabilizer",
                      "dd", "--alpha", "1", "--t3", "1"],
        "branches": ["branches", "--x", "0", "--count", "4"],
        "spectrum-dimer": ["spectrum", "--a=-1e4", "--R", "1", "--rho-max", "1e8"],
        "nodes-dimer": ["nodes", "--a=-1e4", "--R", "1", "--rho-max", "1e8"],
    }

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.validator = _schema_validator()

    def next_group(self) -> list[Op]:
        names = list(self.COMMANDS) * self.REPEATS
        self.rng.shuffle(names)
        return [Op(n, argv=self.COMMANDS[n], check=self._checker(n)) for n in names]

    def _checker(self, name: str):
        body = getattr(self, "_check_" + name.replace("-", "_"))

        def check(proc) -> Outcome:
            out = Outcome(output_bytes=len(proc.stdout) + len(proc.stderr))
            if proc.returncode != 0:
                out.nonzero_exit = True
                if not (name == "nodes-dimer" and proc.returncode == 2
                        and KNOWN_NODES_DEFECT in proc.stderr):
                    out.problems.append(f"{name}: exit {proc.returncode}: "
                                        f"{proc.stderr.strip()[-300:]}")
                return out
            try:
                doc = _json_doc(proc.stdout if name == "constants" else proc.stderr)
                for err in self.validator.iter_errors(doc):
                    out.problems.append(f"{name}: schema: {err.message[:200]}")
                body(proc.stdout, doc, out)
            except (ValueError, KeyError, IndexError) as exc:
                out.problems.append(f"{name}: unreadable output: {exc!r}")
            return out

        return check

    @staticmethod
    def _err(out, got, want, rtol, what):
        err = orc.rel_err(got, want)
        out.rel_err = max(out.rel_err, err)
        if err > rtol:
            out.problems.append(f"{what}: {got!r} vs {want!r} (rel err {err:.2e})")

    def _check_constants(self, stdout, doc, out):
        b = orc.efimov_b()
        self._err(out, doc["b"], b, orc.CSV_RTOL, "b")
        self._err(out, doc["C"], b * b + 0.25, orc.CSV_RTOL, "C")
        self._err(out, doc["b"], orc.README_B, 1e-11, "b vs README")
        self._err(out, doc["C"], orc.README_C, 1e-11, "C vs README")

    def _check_potential(self, stdout, doc, out):
        header, rows = _csv_rows(stdout)
        if header != ["rho", "x", "nu_squared", "lambda", "v_eff"] or len(rows) != 200:
            out.problems.append(f"potential: header {header}, {len(rows)} rows")
            return
        s = -orc.efimov_b() ** 2
        for k, (rho, x, nu2, lam, v) in enumerate(rows):
            want_rho = 1e-3 * 10.0 ** (6.0 * k / 199)
            self._err(out, rho, want_rho, orc.CSV_RTOL, f"rho[{k}]")
            self._err(out, nu2, s, orc.CSV_RTOL, f"nu^2[{k}]")
            self._err(out, lam, s - 4.0, orc.CSV_RTOL, f"lambda[{k}]")
            self._err(out, v, (s - 0.25) / (2.0 * want_rho ** 2), orc.CSV_RTOL, f"v_eff[{k}]")
            if x != 0.0:
                out.problems.append(f"potential: x[{k}] = {x} at unitarity")

    def _spectrum_rows(self, stdout, out, a):
        header, rows = _csv_rows(stdout)
        if header != ["E_n", "kappa_n", "node_count", "ratio_to_next", "flag"]:
            out.problems.append(f"spectrum: header {header}")
            return
        energies = [r[0] for r in rows]
        flags = [bool(r[4]) for r in rows]
        err, out.above_threshold = orc.check_levels(
            energies, flags, a=a, scheme="hardwall", R=1.0, problems=out.problems)
        out.rel_err = max(out.rel_err, err)
        for k, r in enumerate(rows):
            if r[2] != k:
                out.problems.append(f"spectrum: level {k} carries {r[2]} nodes")

    def _check_spectrum(self, stdout, doc, out):
        self._spectrum_rows(stdout, out, math.inf)

    def _check_spectrum_dimer(self, stdout, doc, out):
        self._spectrum_rows(stdout, out, -1e4)

    def _check_nodes(self, stdout, doc, out):
        want = math.exp(math.pi / orc.efimov_b())
        got = doc["summary"]["fitted_ratio"]
        if orc.rel_err(got, want) > orc.NODE_RATIO_RTOL:
            out.problems.append(f"nodes: fitted ratio {got} vs exp(pi/b) = {want}")

    def _check_nodes_dimer(self, stdout, doc, out):
        self._check_nodes(stdout, doc, out)

    def _check_nodes_probe(self, stdout, doc, out):
        header, rows = _csv_rows(stdout)
        orc.check_probe([r[2] for r in rows], 4, out.problems)
        self._err(out, doc["summary"]["reference_slope"], orc.probe_slope(), 1e-9,
                  "probe reference slope")

    def _check_meanfield(self, stdout, doc, out):
        terms = orc.meanfield_terms("fermi", -4.0, 1.0, 1.0, 1.0 / 16.0)
        _, rows = _csv_rows(stdout)
        for n, eps, per in rows:
            scale = sum(abs(c) * n ** p for c, p in terms)
            want = sum(c * n ** p for c, p in terms)
            if abs(eps - want) > orc.CSV_RTOL * scale or \
                    abs(per - want / n) > orc.CSV_RTOL * scale / n:
                out.problems.append(f"meanfield: epsilon({n}) = {eps}, want {want}")
        rep = doc["report"]
        if rep["classification"] != "Saturating":
            out.problems.append(f"meanfield: classified {rep['classification']}")
            return
        n_sat, e_min = orc.meanfield_saturation(terms)
        self._err(out, rep["n_sat"], n_sat, 1e-8, "n_sat")
        self._err(out, rep["e_min"], e_min, 1e-8, "e_min")

    def _check_branches(self, stdout, doc, out):
        _, rows = _csv_rows(stdout)
        if [int(r[0]) for r in rows] != [0, 1, 2, 3]:
            out.problems.append(f"branches: rows {rows}")
            return
        for k, r in enumerate(rows):
            want = orc.branch_root(0.0, k)
            self._err(out, r[1], want, orc.CSV_RTOL, f"branch {k} nu^2")


WORKLOADS = {w.name: w for w in (CliReadme, UnitarityTower, DimerSpectrum, BranchTable)}


def run_cli(argv, env, spans_path=None):
    """One fresh CLI process; traced through traced_cli.py when asked."""
    from pathlib import Path
    if spans_path is None:
        cmd = [sys.executable, "-m", "efimov_lab", *argv]
    else:
        cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
               str(spans_path), "--", *argv]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
