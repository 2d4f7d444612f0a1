"""Run one efimov-lab command with span tracing, then write the spans.

Usage: python perfbench/traced_cli.py SPANS_PATH -- CLI_ARGS...
(with PYTHONPATH pointing at the package source).  Behaves like
`python -m efimov_lab CLI_ARGS...`, including the exit code; the spans go
to SPANS_PATH as JSON once the command has finished.
"""

import sys

from spans import Tracer


def main() -> int:
    path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_PATH -- CLI_ARGS...")
    from efimov_lab import cli

    tracer = Tracer()
    try:
        with tracer.installed():
            code = cli.main(argv)
    finally:
        tracer.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
