"""Run ``python -m repro serve ...`` with its spans teed to a JSONL file.

Usage: python traced_serve.py <spans.jsonl> serve <serve args...>

Run it with ``REPRO_TRACE=1``.  The server is the unmodified CLI; this
wrapper only installs the program's own trace sink first and turns
SIGTERM into a clean shutdown, so the sink is flushed when the
benchmark stops the server.
"""

import signal
import sys


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    from repro.cli import main as cli_main
    from repro.obs.trace import set_trace_sink

    sink, argv = sys.argv[1], sys.argv[2:]
    set_trace_sink(sink)
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return cli_main(argv)
    except KeyboardInterrupt:
        return 0
    finally:
        set_trace_sink(None)


if __name__ == "__main__":
    raise SystemExit(main())
