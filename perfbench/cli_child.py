"""Traced stand-in for ``python -m rccs``: the same CLI, with spans.

Usage: ``python perfbench/cli_child.py SPANS_JSON ARGS...`` with ``src`` on
``PYTHONPATH``.  Runs ``rccs.cli.main(ARGS)`` with the benchmark's tracer
installed, writes the spans to SPANS_JSON and exits with main's code.
Every wrapped module is imported before ``main`` runs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def run(spans_path: str, argv: list[str]) -> int:
    from rccs.cli import main

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        code = main(argv)
    finally:
        tracer.op = None
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(Path(spans_path))
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
