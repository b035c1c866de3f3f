"""Run one workload of the repository's benchmark and print its metrics.

    python3 perfbench/run.py --workload mix3 --seed 0 --seconds 20 --trace 0

``--trace 0`` repeats the workload's cycles for ``--seconds`` seconds
with tracing off and prints the end-to-end metrics.  ``--trace 1`` times
untraced cycles for half the time, then runs the traced pass (spans and
the profiler on) and prints the per-layer metrics.  Metric names and
units come from ``BENCHMARK.json``.  Human-readable lines go first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Everything the run writes stays under ``.perfbench/`` in the checkout:
stores, queue directories, worker logs, temporary files, and the spans
and layer profile of a traced run (``.perfbench/traces/``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bootstrap(work_dir: Path) -> None:
    """Make the checkout's ``src`` importable here and in every child
    process, and keep temporary files and git lookups in the checkout."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"error: no program sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    existing = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(src) + (os.pathsep + existing
                                           if existing else "")
    tmp = work_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    tempfile.tempdir = str(tmp)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in contract["workloads"]}:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    work_dir = WORK / f"run-{os.getpid()}"
    bootstrap(work_dir)
    try:
        from perfbench.measure import run
        outcome = run(args.workload, args.seed, args.seconds,
                      bool(args.trace), work_dir, WORK / "traces")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": outcome.metrics[m["name"]],
                           "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    print(json.dumps({"correct": outcome.checks.failed == 0,
                      "attempted": outcome.checks.attempted,
                      "failed": outcome.checks.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
