"""Run one ``repro`` CLI command with the benchmark's tracer installed.

Usage: ``python perfbench/traced.py TRACE_DIR REPRO_ARG...`` — the same as
``python -m repro REPRO_ARG...``, except that every layer entry point is
wrapped (see ``tracer.py``) and the spans of this process and of its pool
workers are written under ``TRACE_DIR`` when they end.
"""

import sys

import tracer


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    spans = tracer.install(trace_dir, role="cli")
    from repro.cli import main as repro_main
    try:
        return repro_main(argv)
    finally:
        spans.dump()


if __name__ == "__main__":
    raise SystemExit(main())
