#!/usr/bin/env python3
"""Run ``repro serve`` in this process, optionally with the layer trace installed.

    python3 perf/serve.py --trace 1 --out OUT.json serve --port 0 --port-file P ...

Everything after the launcher's own flags goes to ``repro.cli.main``
unchanged, so the server runs in the same process layout as
``python -m repro serve``.  With ``--trace 1`` the library and server
wrappers from ``perf/trace.py`` are installed first, and each ``SIGUSR1``
takes them off or puts them back; after each switch the launcher writes
the number of switches so far to ``OUT.json.switches``.  The client only
switches while no request is in flight.  When the server stops,
``OUT.json`` receives the process's peak RSS and every recorded span.
"""

from __future__ import annotations

import argparse
import resource
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import the benchmark package and the source tree from the checkout, not
# from this script's directory (which would shadow the stdlib ``trace``).
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perf import trace  # noqa: E402


def main() -> int:
    """Serve until shutdown, then write the output file; return the CLI's exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="where to write peak RSS and spans")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="arguments for repro.cli.main")
    args = parser.parse_args()

    from repro.cli import main as cli_main

    recorder = trace.Recorder()
    layers = trace.LIBRARY_LAYERS + trace.SERVER_LAYERS
    undo = trace.install(recorder, layers) if args.trace else None
    switches = 0

    def switch(signum, frame) -> None:
        nonlocal undo, switches
        if undo is None:
            undo = trace.install(recorder, layers)
        else:
            trace.uninstall(undo)
            undo = None
        switches += 1
        Path(f"{args.out}.switches").write_text(f"{switches}\n")

    if args.trace:
        signal.signal(signal.SIGUSR1, switch)
    try:
        code = cli_main(args.cli)
    finally:
        if undo is not None:
            trace.uninstall(undo)
    recorder.dump(
        args.out, peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
