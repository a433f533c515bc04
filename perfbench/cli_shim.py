"""Run one rosslercrypt CLI command with the layer tracer installed.

Usage: python cli_shim.py SPANS_OUT -- <rosslercrypt arguments>

Imports the CLI, installs the wrappers, calls ``rosslercrypt.cli.main(argv)``,
then writes the spans to SPANS_OUT as JSON, with the monotonic time at which
``cli.main`` was entered and the seconds spent importing and installing the
tracer. The reader subtracts the latter, so that start-up time is the
program's own. Exits with main's return code.
"""

from __future__ import annotations

import sys
import time

sys.dont_write_bytecode = True


def run(spans_out: str, argv: list[str]) -> int:
    from rosslercrypt import cli

    start = time.monotonic()
    import json

    import tracer  # the benchmark's own module, next to this file

    tr = tracer.Tracer()
    tr.install()
    entry = time.monotonic()
    try:
        return cli.main(argv)
    finally:
        tr.uninstall()
        with open(spans_out, "w") as f:
            json.dump({"entry_monotonic": entry, "tracer_setup_s": entry - start,
                       "spans": tr.spans}, f)


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: cli_shim.py SPANS_OUT -- <rosslercrypt arguments>")
    sys.exit(run(sys.argv[1], sys.argv[3:]))
