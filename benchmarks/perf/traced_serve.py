"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python traced_serve.py <span file> serve <index> [serve flags]``.
Installs the wrappers of :mod:`spans`, hands the remaining arguments to the
program's normal CLI entry point, and — once the server has drained and
returned after SIGTERM — writes the spans it recorded to ``<span file>``.
The program itself is untouched; the traced pass of ``serve_http`` starts
its server through this file to see the engine layers inside the server.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.cli import main as repro_main
from spans import Tracer


def main() -> int:
    span_file = Path(sys.argv[1])
    tracer = Tracer()
    tracer.install()
    try:
        return repro_main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(span_file)


if __name__ == "__main__":
    sys.exit(main())
