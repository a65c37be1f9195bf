"""Server-process launcher: ``repro.cli.main`` with optional span recording.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/launcher.py <repro.cli arguments...>

The traced and untraced benchmark runs both start the server through
this file, so they launch it the same way.  ``PERFBENCH_OUT`` names the
file that signals write to:

* ``SIGUSR1`` installs the server-side span wrappers and counters, then
  writes ``<out>.on`` so the benchmark knows tracing is live;
* ``SIGUSR2`` writes the spans, counters and process usage (peak RSS,
  CPU time) to ``<out>``;
* on exit (after the CLI's ``SIGINT`` checkpoint) the same record goes
  to ``<out>.exit``.
"""

from __future__ import annotations

import os
import signal
import sys

import spans


def main(argv: list[str]) -> int:
    from repro import cli

    out = os.environ["PERFBENCH_OUT"]
    recorder = spans.Recorder()

    def start_tracing(_signum, _frame) -> None:
        recorder.install(spans.server_targets())
        recorder.install_counters()
        spans.write_json(out + ".on", {"pid": os.getpid()})

    def dump(_signum, _frame) -> None:
        recorder.dump(out)

    signal.signal(signal.SIGUSR1, start_tracing)
    signal.signal(signal.SIGUSR2, dump)
    try:
        return cli.main(argv)
    finally:
        recorder.dump(out + ".exit")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
