"""Run ``repro-pecan serve`` in this process, optionally recording spans.

    python perfbench/serve_entry.py [--ledger PATH] serve --bundle NAME=PATH ...

Without ``--ledger`` this is exactly ``python -m repro.cli serve ...``.  With
it, :func:`hooks.install` wraps each layer's entry point before the server
or any engine is built, and the spans are written to PATH when the server
exits.  SIGTERM stops a single server cleanly; a pool replaces the handler
with its own drain.

Pool workers are spawned and re-import this file as their main module, so
nothing here may run at import time.
"""

import signal
import sys


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv):
    ledger = None
    if argv[:1] == ["--ledger"]:
        ledger, argv = argv[1], argv[2:]
    signal.signal(signal.SIGTERM, _interrupt)
    recorder = None
    if ledger is not None:
        import hooks

        recorder = hooks.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if recorder is not None:
            recorder.dump(ledger)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
