"""End-to-end IM-GRN benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload sparse-paper --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run records
spans (written to ``perfbench/out/`` as a Chrome trace) and the metrics
are the per-layer ones. Workloads, metrics and the layer map are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("sparse-paper", "dense-refine")


def metric_units(group: str) -> dict[str, str]:
    """``{name: unit}`` of one metric group declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[group]}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(
            f"no IM-GRN sources under {ROOT / 'src'}; run from a full checkout"
        )
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    # These modules import the program, so they load after the path is set.
    import probes
    import workloads as wl
    from tracing import Recorder, write_chrome_trace

    OUT.mkdir(exist_ok=True)
    recorder = Recorder() if args.trace else None
    if recorder is not None:
        recorder.install()
    try:
        shape = wl.SPARSE if args.workload == "sparse-paper" else wl.DENSE
        row = wl.query_workload(shape, args.seed, args.seconds, recorder)
        if recorder is not None:
            probes.fill(row, recorder, ROOT, OUT, args.workload)
            trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
            write_chrome_trace(row["spans"], trace_file)
    finally:
        if recorder is not None:
            recorder.uninstall()
    row["e2e"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return row


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    row = run(args)
    if args.trace:
        units = metric_units("per_layer")
        values = row["layers"]
    else:
        values = row["e2e"]
        units = metric_units("end_to_end")
    for problem in row["problems"]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    correct = not row["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": row["attempted"],
                "failed": row["failed"],
                "metrics": {
                    name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
