"""CSV bodies must stay byte-identical to the frozen files in tests/golden.

Each case runs one CLI command in-process through `efimov_lab.cli.main`
and compares its stdout with `tests/golden/<name>.csv` byte for byte.
The cases are the README command set plus a dimer-side spectrum, a
capped spectrum and a finite-a potential table.  The README's `constants --format json` runs
here as CSV: its JSON manifest carries a timestamp.

A change that alters output on purpose rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

and says so in its change record.
"""

import pathlib
import sys

import pytest

from efimov_lab.cli import main

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

CASES = {
    "constants": ["constants"],
    "potential_unitarity": ["potential", "--a", "inf", "--rho-min", "1e-3",
                            "--rho-max", "1e3", "--points", "200"],
    "spectrum_unitarity": ["spectrum", "--a", "inf", "--R", "1", "--rho-max", "1e8",
                           "--regularization", "hardwall"],
    "nodes_unitarity": ["nodes", "--a", "inf", "--R", "1", "--rho-max", "1e8"],
    "nodes_probe": ["nodes", "--a", "inf", "--probe-E", "-0.5", "--decades", "4"],
    "meanfield_fermi_dd": ["meanfield", "--statistics", "fermi", "--t0", "-4",
                           "--stabilizer", "dd", "--alpha", "1", "--t3", "1"],
    "branches_x0": ["branches", "--x", "0", "--count", "4"],
    "spectrum_dimer": ["spectrum", "--a=-1e4", "--R", "1", "--rho-max", "1e8"],
    "spectrum_cap_unitarity": ["spectrum", "--a", "inf", "--R", "1", "--rho-max", "1e8",
                               "--regularization", "cap"],
    "potential_finite_a": ["potential", "--a", "-2.5", "--rho-min", "0.01",
                           "--rho-max", "1e3", "--points", "80"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_body_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    got = capsys.readouterr().out
    want = (GOLDEN_DIR / f"{name}.csv").read_bytes().decode("utf-8")
    assert got == want


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 0
        body = out.getvalue()
        (GOLDEN_DIR / f"{name}.csv").write_bytes(body.encode("utf-8"))
        print(f"wrote {name}.csv ({len(body)} bytes)", file=sys.stderr)
