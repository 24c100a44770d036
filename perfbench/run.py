"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 25 --trace 0

Prints the full result record (provenance, per-step tables, notes) as one
JSON line, then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics, from a traced pass run after
an untraced one (layers a workload does not reach read 0).
"""

from __future__ import annotations

import argparse
import json
import sys

import common

WORKLOADS = {
    "paper_sweep": "paper_sweep",
    "serve_mixed": "serving",
    "shard_publish": "serving",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not common.ensure_source_tree():
        print(f"error: no repro source tree under {common.SRC}",
              file=sys.stderr)
        return 2
    with open(common.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    module = __import__(WORKLOADS[args.workload])
    result = module.run(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    metrics = result["metrics"]
    out = {}
    for entry in wanted:
        value, _unit = metrics.get(entry["name"], (0.0, entry["unit"]))
        out[entry["name"]] = (value, entry["unit"])
    if not args.trace:
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            print(f"error: end-to-end metrics not measured: {missing}",
                  file=sys.stderr)
            return 1
    common.emit(
        result["record"],
        correct=result["correct"],
        attempted=result["attempted"],
        failed=result["failed"],
        metrics=out,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
