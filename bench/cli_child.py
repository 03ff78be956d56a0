"""One traced gelshoot command line.

    PYTHONPATH=src python3 bench/cli_child.py <trace.json> <subcommand> [options]

Runs the command line in this process, as `python -m gelshoot.cli` would,
with the layer tracer installed and active, then writes the tracer's
aggregates and spans to <trace.json> and exits with the command's code.
"""

import json
import sys

from gelshoot import cli

import tracing

if __name__ == "__main__":
    tr = tracing.Tracer()
    tr.install()
    tr.active = True
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tr.active = False
        tr.uninstall()
        with open(sys.argv[1], "w") as fh:
            json.dump({"raw": tr.snapshot(), "spans": tr.spans}, fh)
    sys.exit(code)
