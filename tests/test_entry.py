"""The process entry point `efimov_lab.cli.run`.

`python -m efimov_lab` and the `efimov-lab` console script run `run()`,
which runs `main()`, flushes stdout and freezes the collector before the
interpreter exits.  These tests run it in a fresh interpreter and hold it
to what in-process `main()` gives: the same CSV bodies, files, messages
and exit codes.  A reader that closes stdout early gets exit code 1 and an
empty stderr, and `main()` itself never freezes.
"""

import gc
import json
import pathlib
import subprocess
import sys

from efimov_lab.cli import main
from test_golden import CASES, GOLDEN_DIR

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def _child(*args, **kwargs):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, **kwargs)


def test_golden_bodies_through_the_process_entry_point():
    for name in ("spectrum_dimer", "nodes_probe"):
        proc = _child("-m", "efimov_lab", *CASES[name])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8")
        assert json.loads(proc.stderr)["manifest"]["command"] == CASES[name][0]


def test_output_file_and_sidecar_through_the_process_entry_point(tmp_path, schema_validator):
    path = tmp_path / "spectrum.csv"
    proc = _child("-m", "efimov_lab", *CASES["spectrum_dimer"], "--output", str(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == proc.stderr == ""
    assert path.read_bytes() == (GOLDEN_DIR / "spectrum_dimer.csv").read_bytes()
    side = json.loads((tmp_path / "spectrum.csv.manifest.json").read_text(encoding="utf-8"))
    schema_validator.validate(side)
    assert side["manifest"]["parameters"]["output"] == str(path)
    assert side["E_threshold"] < 0.0


def test_refusals_match_in_process_main(capsys):
    for argv, code in (
            (["meanfield", "--statistics", "bose", "--t0", "-1", "--n-min", "5",
              "--n-max", "1"], 2),
            (["spectrum", "--a", "inf", "--R", "1", "--rho-max", "1e4",
              "--regularization", "none"], 3)):
        assert main(argv) == code
        want = capsys.readouterr()
        proc = _child("-m", "efimov_lab", *argv)
        assert proc.returncode == code
        assert (proc.stdout, proc.stderr) == (want.out, want.err)
        assert proc.stderr.startswith("efimov-lab: ")


def test_closed_stdout_exits_1_with_an_empty_stderr():
    # 200,000 rows are about 18 MB, far more than a pipe holds, so the child
    # is still writing when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "efimov_lab", "potential", "--a", "inf",
         "--rho-min", "1e-3", "--rho-max", "1e3", "--points", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline() == "rho,x,nu_squared,lambda,v_eff\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert err == ""


def test_only_run_freezes_the_collector(capsys):
    assert main(["constants"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == 0
    # the atexit handler reports the count at exit, so it also shows that
    # the interpreter still runs atexit handlers after run() returns
    proc = _child("-c", "import atexit, gc, sys\n"
                        "from efimov_lab.cli import run\n"
                        "atexit.register(lambda: print('frozen', gc.get_freeze_count(),"
                        " file=sys.stderr))\n"
                        "sys.exit(run())\n", "constants")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN_DIR / "constants.csv").read_text(encoding="utf-8")
    last = proc.stderr.splitlines()[-1].split()
    assert last[0] == "frozen" and int(last[1]) > 0, proc.stderr


def test_console_script_names_run():
    # read as text: Python 3.10 has no tomllib
    assert 'efimov-lab = "efimov_lab.cli:run"' in PYPROJECT.read_text(encoding="utf-8")
