"""Run the ``repro`` CLI with the benchmark's span wrappers installed.

Usage::

    python3 perfbench/launch.py --trace-out spans.json -- serve ARGS...

The wrappers are installed before the command starts, so they are live
in the server process (and inherited by processes it forks).  The spans
are written to ``--trace-out`` when the command returns, which for
``serve`` is after the SIGTERM drain.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    recorder = tracer.Recorder()
    tracer.install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(command)
    finally:
        recorder.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
