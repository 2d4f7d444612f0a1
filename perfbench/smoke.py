"""Smoke check of the benchmark itself (about two and a half minutes on two cores).

Usage (from the repository root): python3 perfbench/smoke.py

1. One tiny untraced and one tiny traced pass per workload (branch-table
   too, which BENCHMARK.json does not list) through
   run.main: the last line must carry every metric BENCHMARK.json lists,
   each with its unit, and every oracle must pass.
2. A second traced pass of dimer-spectrum on the same seed must give the
   same kernel.calls, kernel.steps, radial.integrations and
   hyperangular.resolve_points.
3. With the hard-wall oracle corrupted by one part in 1e5, the hard-wall
   spectra of unitarity-tower must be reported as failed ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import oracles
import run
import workloads

COUNTS = ("kernel.calls", "kernel.steps", "radial.integrations",
          "hyperangular.resolve_points")


def last_line(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    if code != 0:
        raise AssertionError(f"run.py {' '.join(argv)} exited {code}")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.TRACE_OPS = 1
    traced = {}
    for name in workloads.WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            res = last_line(["--workload", name, "--seed", "7", "--seconds", "0.01",
                             "--trace", str(trace)])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            got = res["metrics"]
            assert set(got) == {m["name"] for m in wanted}, sorted(got)
            for m in wanted:
                assert got[m["name"]]["unit"] == m["unit"], (m, got[m["name"]])
                assert isinstance(got[m["name"]]["value"], (int, float)), m
            if trace:
                traced[name] = got
            print(f"ok  {name} trace={trace}: {len(got)} metrics, "
                  f"{res['attempted']} ops", flush=True)

    again = last_line(["--workload", "dimer-spectrum", "--seed", "7", "--seconds", "0.01",
                       "--trace", "1"])["metrics"]
    for name in COUNTS:
        first, second = traced["dimer-spectrum"][name]["value"], again[name]["value"]
        assert first == second and first > 0, (name, first, second)
    print("ok  counts repeat exactly on the same seed: "
          + ", ".join(f"{n}={again[n]['value']}" for n in COUNTS), flush=True)

    original = oracles.kib_zeros
    oracles.kib_zeros = lambda count=10: tuple(z * (1.0 + 1e-5) for z in original(count))
    try:
        tally, _, _ = run.run_timed(workloads.UnitarityTower(7), run.child_env(), 0.0)
    finally:
        oracles.kib_zeros = original
    failed = [o for o in tally.outcomes if o.problems]
    # one group holds one hard-wall spectrum per stratum, and only those fail
    assert len(failed) == workloads.UnitarityTower.STRATA, failed
    assert all(o.problems[0].startswith("level 0:") for o in failed), failed
    print(f"ok  corrupted oracle reported: {failed[0].problems[0][:90]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
