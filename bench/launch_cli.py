"""Traced ``postdl`` command line: python3 launch_cli.py SPANS_JSON ARGS...

Imports postdl.cli (timing the import), wraps the layer functions, runs
``postdl.cli.main(ARGS)`` and writes the import time, spans and counts to
SPANS_JSON.  The exit code is the CLI's.
"""

import json
import sys
from time import perf_counter

start = perf_counter()
import postdl.cli  # noqa: E402

import_ms = (perf_counter() - start) * 1000

from tracing import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return postdl.cli.main(argv)
    finally:
        tracer.uninstall()
        record = tracer.take()
        record["import_ms"] = import_ms
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
