"""One traced cold run: time ``import aamcba``, wrap the layers, run the CLI.

Launched by run.py under ``python -X importtime`` as

    traced_cli.py SRC_DIR SPANS_FILE SPAWN_MONOTONIC run --out DIR

SPAWN_MONOTONIC is the parent's ``time.monotonic()`` just before the
spawn; Linux's monotonic clock is shared by all processes, so the gap to
this script's first line is the interpreter start-up. The remaining
arguments go to ``aamcba.cli.main``; with none, only the import is timed.
Exit code is the CLI's.
"""
import time

_STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    src, spans_file, spawned = sys.argv[1], Path(sys.argv[2]), float(sys.argv[3])
    cli_args = sys.argv[4:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import aamcba.cli  # noqa: F401  (the import being timed)
    import_s = time.perf_counter() - t0

    import tracing

    tracer = tracing.Tracer()
    code = 0
    if cli_args:
        tracing.install(tracer)
        tracer.op_id = "cold"
        root = tracer.begin("op")
        try:
            code = aamcba.cli.main(cli_args)
        finally:
            tracer.end(root)
    tracer.dump(spans_file)
    with open(spans_file.with_suffix(".process.json"), "w") as handle:
        json.dump({"startup_s": _STARTED - spawned, "import_s": import_s}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
