"""Run one psiest CLI command with the tracer installed, as a cold process.

Usage: python3 perfbench/traced_cli.py TRACE_JSON {timing,counting} ARGV...

The counterpart of `python -m psiest.cli ARGV...` for the traced run of the
cli_cold workload: stdout and the exit code are the CLI's own, and the
tracer's state is written to TRACE_JSON.  The second argument picks the
pass (see tracing.py).  psiest must be importable (the harness puts the
checkout's src/ on PYTHONPATH).
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    trace_path, kind, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import psiest.cli

    tracer = Tracer(counting=kind == "counting")
    tracer.install()
    try:
        code = psiest.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.state(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
