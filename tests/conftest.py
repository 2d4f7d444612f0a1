import json
import pathlib
import subprocess
import sys

import pytest

SCHEMA_PATH = (pathlib.Path(__file__).resolve().parents[1]
               / "src" / "efimov_lab" / "schemas" / "cli_output.schema.json")


def run_cli(args, expect=0):
    """Run the CLI in a fresh interpreter and assert its exit code."""
    proc = subprocess.run([sys.executable, "-m", "efimov_lab", *args],
                          capture_output=True, text=True)
    assert proc.returncode == expect, (
        f"exit {proc.returncode}, expected {expect}, for args {args}\n"
        f"--- stdout ---\n{proc.stdout[-1200:]}\n"
        f"--- stderr ---\n{proc.stderr[-1200:]}")
    return proc


@pytest.fixture(scope="session")
def cli():
    return run_cli


@pytest.fixture(scope="session")
def schema_validator():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)
