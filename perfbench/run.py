"""End-to-end and per-layer benchmark of efimov-lab.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of cli-readme, unitarity-tower, dimer-spectrum (the workloads
BENCHMARK.json lists) or branch-table (runnable, not listed; see
NOTES.md); see workloads.py for what each stresses and why.  `all` runs
the listed ones.  One client runs whole groups of operations back to
back (a closed loop, no added threads, pinned to one CPU) until about S
seconds have passed, checks
every output against an exact oracle outside the timed region, prints a
report with every metric, its unit and the oracle verdict, and ends with
one JSON line {"correct", "attempted", "failed", "metrics"}.  The metric
names and units in that line are the ones BENCHMARK.json lists:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

End-to-end times are scaled to a nominal host speed.  Right after each
timed call a fixed reference task runs, and the call's time is
multiplied by the host's speed on that task, averaged over the runs just
before and just after the call.  In-process calls are referenced to a
pure-Python loop run for REF_SHARE of the call's time; fresh processes
(the CLI and the set-up imports) to a fresh interpreter importing numpy.
On a shared host whose speed drifts, this keeps a slow minute from
reading as a regression, while a change to the package still moves the
figure, since neither reference touches the package.

--trace 1 runs the seed's first group instead, each operation once
untraced and once under span tracing (spans.py), so its
counts repeat exactly for a seed and the two timings give the tracing
overhead.  EFIMOV_LAB_THREADS is cleared, so every library call runs at
the default single thread.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracles
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 5
TRACE_OPS = None          # traced ops per run: all of the first group
REF_SHARE = 0.3           # reference-loop time after an in-process call, per second of it
REF_FIRST_S = 0.2         # reference-loop time before the first call
REF_CHUNK_S = 2.0e-3      # nominal seconds of one reference-loop chunk
REF_CHILD_S = 0.2         # nominal seconds of the reference child process


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("EFIMOV_LAB_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def reference_chunk(n: int = 20_000) -> float:
    """A fixed float recurrence in pure Python, shaped like the pure Numerov
    loop: the work whose speed stands for the host's speed."""
    g, gm, out = 1.0, 0.0, [0.0] * 1000
    for i in range(n):
        gp = (2.0 - 0.999e-3) * g - gm
        if gp > 1e250 or gp < -1e250:
            g /= 2.0
            gp /= 2.0
        out[i % 1000] = gp
        gm, g = g, gp
    return g


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def loop_speed(seconds: float | None) -> float:
    """Host speed on reference chunks run for REF_SHARE of `seconds` (or
    REF_FIRST_S): REF_CHUNK_S over the mean chunk time, above 1.0 is faster."""
    budget = REF_FIRST_S if seconds is None else REF_SHARE * seconds
    t0, chunks = time.perf_counter(), 0
    while True:
        reference_chunk()
        chunks += 1
        spent = time.perf_counter() - t0
        if spent >= budget:
            return REF_CHUNK_S * chunks / spent


def child_speeds() -> tuple[float, float]:
    """Host speed on a fresh interpreter importing numpy, by (wall, CPU) time."""
    before, t0 = children_cpu(), time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=120)
    wall, cpu = time.perf_counter() - t0, children_cpu() - before
    return REF_CHILD_S / wall, REF_CHILD_S / max(cpu, 1e-6)


class HostClock:
    """Scales each timed call by the host speed measured on both sides of it;
    the reference run after one call is the one before the next.  `speed`
    maps the call's seconds (None before the first call) to a speed."""

    def __init__(self, speed):
        self.speed = speed
        self.last = speed(None)

    def scale(self, seconds: float) -> tuple[float, float]:
        """(scaled seconds, speed factor) for a call that just took `seconds`."""
        after = self.speed(seconds)
        factor = 0.5 * (self.last + after)
        self.last = after
        return seconds * factor, factor


def child_clock(cpu: bool) -> HostClock:
    """A clock for fresh processes, timed by wall or by CPU time."""
    return HostClock(lambda _seconds: child_speeds()[cpu])


def op_clock(wl) -> HostClock:
    return child_clock(cpu=False) if wl.name == "cli-readme" else HostClock(loop_speed)


def setup_seconds(env) -> tuple[float, float]:
    """(scaled, raw) median CPU time of a fresh interpreter importing the
    package: the set-up every workload pays before its first operation."""
    clock, scaled, raw = child_clock(cpu=True), [], []
    for _ in range(SETUP_REPEATS):
        before = children_cpu()
        subprocess.run([sys.executable, "-c", "import efimov_lab"], env=env,
                       check=True, capture_output=True, timeout=120)
        cpu = children_cpu() - before
        raw.append(cpu)
        scaled.append(clock.scale(cpu)[0])
    return statistics.median(scaled), statistics.median(raw)


def import_seconds(env) -> tuple[float, float]:
    """(package, scipy) import time from `-X importtime`, median of runs.

    The package figure is the cumulative time of the `efimov_lab` line;
    the scipy figure sums the self time of every scipy module.
    """
    totals, scipys = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import efimov_lab"],
                              env=env, check=True, capture_output=True, text=True,
                              timeout=120)
        total, scipy = 0.0, 0.0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            own, cumulative, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name == "efimov_lab":
                total = int(cumulative) * 1e-6
            if name == "scipy" or name.startswith("scipy."):
                scipy += int(own) * 1e-6
        totals.append(total)
        scipys.append(scipy)
    return statistics.median(totals), statistics.median(scipys)


def environment(cpu: int) -> dict:
    import numpy
    import efimov_lab
    from efimov_lab.radial import DEFAULT_DT
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    return {"kernel_backend": efimov_lab.KERNEL_BACKEND,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy, "nproc": os.cpu_count(), "pinned_cpu": cpu,
            "default_dt": DEFAULT_DT, "efimov_lab_threads": "cleared"}


def execute(op, env, spans_path=None):
    """Run one operation; return (result or exception, wall seconds, spans).

    Garbage left by the previous op's oracle (mpmath) is collected first,
    so a collection it triggers never lands inside the timed call."""
    gc.collect()
    if op.argv is not None:
        t0 = time.perf_counter()
        result = workloads.run_cli(op.argv, env, spans_path)
        wall = time.perf_counter() - t0
        recorded = json.loads(Path(spans_path).read_text()) if spans_path else None
        return result, wall, recorded
    tracer = spans.Tracer()
    with tracer.installed() if spans_path else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            result = op.fn()
        except Exception as exc:          # the op failed; keep the run going
            result = exc
        wall = time.perf_counter() - t0
    return result, wall, tracer.spans if spans_path else None


def judge(op, result):
    if isinstance(result, Exception):
        return workloads.Outcome(problems=[f"{op.name}: raised {result!r}"])
    try:
        return op.check(result)
    except Exception as exc:              # a crash in the check is a mismatch
        return workloads.Outcome(problems=[f"{op.name}: oracle could not read output: {exc!r}"])


class Tally:
    def __init__(self):
        self.outcomes = []

    def add(self, outcome):
        self.outcomes.append(outcome)

    @property
    def failed(self):
        return sum(1 for o in self.outcomes if o.problems)

    def correctness(self) -> dict:
        n = len(self.outcomes)
        bad = sum(1 for o in self.outcomes if o.problems or o.nonzero_exit)
        return {"ops_failed_ratio": bad / n if n else 0.0,
                "oracle_max_rel_err": max((o.rel_err for o in self.outcomes), default=0.0),
                "levels_above_threshold": sum(o.above_threshold for o in self.outcomes)}


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def tail(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"tail undefined for n={n} < 11"
    return f"tail p{100.0 * (n - 10) / n:.0f} of n={n}: {sorted(values)[n - 11]:.4f} s"


def run_timed(wl, env, seconds):
    clock, tally, walls, scaled, speeds = op_clock(wl), Tally(), [], [], []
    spent, groups = 0.0, 0
    while True:
        for op in wl.next_group():
            t0 = time.perf_counter()
            result, wall, _ = execute(op, env)
            one, speed = clock.scale(wall)
            spent += time.perf_counter() - t0
            tally.add(judge(op, result))
            walls.append(wall)
            speeds.append(speed)
            scaled.append(one)
        groups += 1
        # stop when one more group would overshoot the target by over half a group
        if spent + 0.5 * spent / groups > seconds:
            break
    metrics = {"ops_per_s": len(scaled) / sum(scaled),
               "op_s.p50": statistics.median(scaled),
               "peak_rss_mb": peak_rss_mb(wl.name != "cli-readme")}
    notes = {"ops_per_s": f"{len(scaled)} ops in {groups} groups, "
                          f"{sum(walls):.2f} s of raw op time",
             "op_s.p50": f"raw wall {statistics.median(walls):.4f} s, host speed "
                         f"{statistics.median(speeds):.3f} (median); {tail(scaled)}"}
    return tally, metrics, notes


def run_traced(wl, env):
    tally, spans_runs = Tally(), []
    plain = traced = 0.0
    plain_walls, output_bytes = [], 0
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        spans_path = Path(tmp) / "spans.json"
        for j, op in enumerate(wl.next_group()[:TRACE_OPS]):
            # alternate which pass goes first so neither is always warm
            for use_trace in ((False, True) if j % 2 == 0 else (True, False)):
                result, wall, op_spans = execute(op, env, spans_path if use_trace else None)
                outcome = judge(op, result)
                tally.add(outcome)
                if use_trace:
                    traced += wall
                    spans_runs.append(op_spans)
                    output_bytes += outcome.output_bytes
                else:
                    plain += wall
                    plain_walls.append(wall)
    metrics = spans.layer_metrics(spans.concat(spans_runs))
    metrics["import.s"], metrics["import.scipy_s"] = import_seconds(env)
    metrics["cli.output_bytes"] = output_bytes
    metrics["trace.overhead_ratio"] = traced / plain
    metrics.update(tally.correctness())
    p50 = statistics.median(plain_walls)
    notes = {
        "trace.overhead_ratio": f"{traced:.3f} s traced / {plain:.3f} s untraced, same inputs",
        "kernel.s": f"{metrics['kernel.s'] / traced:.1%} of traced op time",
        "hyperangular.resolve_s": f"{metrics['hyperangular.resolve_s'] / traced:.1%} "
                                  "of traced op time",
        "hyperangular.tabulate_s": f"{metrics['hyperangular.tabulate_s'] / traced:.1%} "
                                   "of traced op time",
        "import.s": f"{metrics['import.s'] / p50:.1%} of the untraced median op wall time "
                    f"({p50:.4f} s)",
    }
    return tally, metrics, notes


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    if not (SRC / "efimov_lab" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    os.environ.pop("EFIMOV_LAB_THREADS", None)
    # one CPU for the op, its children and the reference loop alike
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    if ns.workload == "all":
        status = 0
        for name in names:
            proc = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(ns.seed), "--seconds", str(ns.seconds),
                                   "--trace", str(ns.trace)], timeout=900)
            status = status or proc.returncode
        return status

    sys.path.insert(0, str(SRC))
    env_info = environment(cpu)
    oracles.efimov_b()
    oracles.kib_zeros()
    wl = workloads.WORKLOADS[ns.workload](ns.seed)

    if ns.trace:
        tally, metrics, notes = run_traced(wl, env)
        wanted = spec["per_layer"]
    else:
        setup, setup_raw = setup_seconds(env)
        tally, metrics, notes = run_timed(wl, env, ns.seconds)
        metrics["setup_s"] = setup
        notes["setup_s"] = (f"median of {SETUP_REPEATS} fresh-interpreter imports, "
                            f"CPU time; raw {setup_raw:.4f} s")
        wanted = spec["end_to_end"]

    print(f"workload {ns.workload}  seed {ns.seed}  seconds {ns.seconds:g}  trace {ns.trace}")
    print("env " + json.dumps(env_info))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<36} {shown:>14} {units[name]}{note}")
    problems = [p for o in tally.outcomes for p in o.problems]
    verdict = "PASS" if not problems else "FAIL"
    print(f"oracle verdict: {verdict} ({tally.failed} of {len(tally.outcomes)} ops failed)")
    for p in problems[:20]:
        print(f"  mismatch: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(tally.outcomes),
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
