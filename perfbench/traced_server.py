"""Run ``python -m repro <args>`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/traced_server.py TRACE_OUT serve --port 0``.
The spans and counters are written to ``TRACE_OUT`` once the command
returns (for ``serve``: after a drain or shutdown).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402


def main() -> int:
    from repro.__main__ import main as repro_main
    tracer = Tracer().install()
    try:
        return repro_main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
