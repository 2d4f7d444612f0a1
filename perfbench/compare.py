"""Compare saved benchmark reports of two commits, workload by workload.

Usage (from the repository root):
    python3 perfbench/compare.py --base BASE_REPORT... --new NEW_REPORT...

Each report is the standard output of one untraced run.py run.  Only its
`env` line and its last line (the JSON result) are read.  For every
metric BENCHMARK.json gates, the medians and quartiles of both sides are
shown with the change, counted positive when it is a regression, and
checked against the metric's bound.  Reports whose kernel backends differ
are refused: the pure and compiled Numerov kernels differ by 30-50x, so
such a comparison would say nothing about the change itself.  Exit
status: 0 no regression beyond a bound, 1 regression, 2 refused (mixed
backends, or a report that is not comparable).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class NotComparable(Exception):
    pass


def read_report(path) -> tuple[str, dict, dict]:
    """(workload, env, metric values) from one saved run.py output."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    try:
        workload = lines[0].split()[1]
        env = json.loads(next(ln[4:] for ln in lines if ln.startswith("env ")))
        result = json.loads(lines[-1])
    except (IndexError, StopIteration, json.JSONDecodeError) as exc:
        raise NotComparable(f"{path}: not a run.py report") from exc
    if not result["correct"]:
        raise NotComparable(f"{path}: run reported incorrect output")
    return workload, env, {k: m["value"] for k, m in result["metrics"].items()}


def summary(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    ns = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs = {}
    try:
        for side in ("base", "new"):
            for path in getattr(ns, side):
                workload, env, values = read_report(path)
                runs.setdefault(workload, {"base": [], "new": []})[side].append((env, values))
    except NotComparable as exc:
        print(f"refused: {exc}")
        return 2

    status = 0
    for workload, sides in sorted(runs.items()):
        backends = {env["kernel_backend"] for side in sides.values() for env, _ in side}
        if len(backends) > 1:
            print(f"{workload}: refused, kernel backends differ ({sorted(backends)})")
            return 2
        if not sides["base"] or not sides["new"]:
            print(f"{workload}: reports on one side only; skipped")
            continue
        print(f"{workload} ({backends.pop()} kernel, {len(sides['base'])} base and "
              f"{len(sides['new'])} new runs)")
        for m in spec["end_to_end"]:
            base = [v[m["name"]] for _, v in sides["base"] if m["name"] in v]
            new = [v[m["name"]] for _, v in sides["new"] if m["name"] in v]
            if not base or not new:
                continue
            change = statistics.median(new) / statistics.median(base) - 1.0
            worse = change if m["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            status = status or int(verdict != "ok")
            print(f"  {m['name']:<16} {summary(base):>34} -> {summary(new):>34}"
                  f" {worse:+8.1%} worse  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
