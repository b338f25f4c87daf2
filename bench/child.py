"""One crprime CLI run inside the benchmark's child interpreter.

    python3 bench/child.py MODE -- run <suite> --format json --seed N

MODE is `plain` (the CLI as `python -m crprime` runs it), `trace` (with the
per-layer spans of tracing.py) or `setup` (stop at the first call into a
suite, which is where set-up ends).  The report goes to stdout untouched.
The last line on stderr is RECORD_PREFIX plus a JSON record: the
`time.monotonic()` at which set-up ended and, in trace mode, the spans.
CLOCK_MONOTONIC is shared by all processes, so the parent subtracts its own
spawn time from it.
"""

from __future__ import annotations

import json
import os
import sys

RECORD_PREFIX = "crprime-bench-record "

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _emit(record):
    sys.stdout.flush()
    sys.stderr.write(RECORD_PREFIX + json.dumps(record, sort_keys=True) + "\n")
    sys.stderr.flush()


def main(mode, argv) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import crprime.cli as cli
    import tracing

    if mode == "trace":
        tracer = tracing.install(cli)
    else:
        tracer = tracing.Tracer()
        tracing.install_suite_spans(cli, tracer, timed=False)
    if mode == "setup":
        mark = tracer.mark_setup_end

        def stop_at_setup_end():
            mark()
            _emit({"setup_end": tracer.setup_end})
            os._exit(0)

        tracer.mark_setup_end = stop_at_setup_end
    rc = cli.main(argv)
    record = {"setup_end": tracer.setup_end}
    if mode == "trace":
        record["trace"] = tracer.snapshot()
    _emit(record)
    return rc


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] not in ("plain", "trace", "setup") or sys.argv[2] != "--":
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[3:]))
