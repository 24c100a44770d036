"""Run ``repro serve`` with layer spans recorded in the server process.

    python3 perfbench/launch.py SPANS.json serve --port 8707 ...

Wraps the same public calls the in-process workloads trace (see
:func:`tracing.install_layer_spans`), then hands the remaining arguments to
``repro.cli.main``. When the server exits (SIGTERM is a graceful stop) the
spans are written to ``SPANS.json``. Subprocess shards, when the router
spawns them, run untraced; their numbers come from ``/stats``.
"""

from __future__ import annotations

import sys

import common
import tracing


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: launch.py SPANS.json serve [options]", file=sys.stderr)
        return 2
    if not common.ensure_source_tree():
        print(f"error: no source tree under {common.SRC}", file=sys.stderr)
        return 2
    from repro.cli import main as repro_main

    tracer = tracing.Tracer()
    tracing.install_layer_spans(tracer, server_side=True)
    try:
        return repro_main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
