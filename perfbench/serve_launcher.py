"""Run the ``repro serve`` daemon in this process, optionally traced.

    python3 perfbench/serve_launcher.py --port P --cache-size N \\
        --report FILE [--trace]

The daemon is the program's own ``repro serve`` command.  ``--trace``
installs the layer wrappers of ``layers.py`` in this process first, so the
spans are recorded where the daemon does its work.  On SIGTERM the daemon
shuts down and the launcher writes FILE (JSON): this process's peak RSS
and, when traced, the recorded spans and plan-cache snapshots.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import own_peak_rss_mb

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--cache-size", type=int, required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    from repro.cli import main as repro_main

    recorder = None
    if args.trace:
        from layers import Recorder

        recorder = Recorder().install()
    try:
        code = repro_main([
            "serve", "--host", "127.0.0.1", "--port", str(args.port),
            "--cache-size", str(args.cache_size),
        ])
    finally:
        if recorder is not None:
            recorder.uninstall()
    report = {"exit": code, "peak_rss_mb": own_peak_rss_mb()}
    if recorder is not None:
        report.update(recorder.export())
    partial = args.report + ".partial"
    with open(partial, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    os.replace(partial, args.report)
    return code


if __name__ == "__main__":
    sys.exit(main())
