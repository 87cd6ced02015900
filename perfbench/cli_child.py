"""Run one cheaptalk CLI command under the tracer and save its spans.

Usage: python cli_child.py SPAN_FILE SPAWN_TIME -- CLI_ARGS...

SPAWN_TIME is the parent's time.perf_counter() just before it started
this process; the monotonic clock is shared across processes on Linux,
so interpreter start-up becomes the `import.startup` span. The import of
cheaptalk.cli is the `import.cheaptalk` span, and the command itself
runs through `cheaptalk.cli.entry`, wrapped like every other target.
"""

import time

_MAIN = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracer as tracing  # noqa: E402


def main() -> int:
    span_file, spawn = sys.argv[1], float(sys.argv[2])
    if sys.argv[3] != "--":
        raise SystemExit("usage: cli_child.py SPAN_FILE SPAWN_TIME -- CLI_ARGS...")
    tracer = tracing.Tracer()
    tracer.enabled = True
    tracer.close(tracer.open("import.startup", spawn), _MAIN)
    frame = tracer.open("import.cheaptalk")
    import cheaptalk.cli
    tracer.close(frame)
    tracer.install()
    try:
        return cheaptalk.cli.entry(sys.argv[4:])
    finally:
        sys.stdout.flush()
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main())
