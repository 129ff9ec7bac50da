"""Run the endecascan command line with spans around its module calls.

    python3 perfbench/traced_cli.py SPANS_FILE <endecascan arguments>

Behaves like ``python -m endecascan.cli <arguments>`` and also writes
the spans of this process to SPANS_FILE when the command returns.
"""

import sys
import time
from pathlib import Path

import tracing


def main() -> int:
    tracer = tracing.Tracer()
    start = time.perf_counter_ns()
    import endecascan.cli as cli
    tracer.record("cli.import", start, time.perf_counter_ns())
    tracing.install_cli(tracer)
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.write(Path(sys.argv[1]))


if __name__ == "__main__":
    sys.exit(main())
