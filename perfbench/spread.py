"""Run one workload over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload serve-mixed --seeds 1-10 [--trace 0]

The spread of a metric is the distance between the first and third
quartile of its values (``statistics.quantiles(values, n=4)``) as a share
of their median; ``BENCHMARK.json`` bounds it for every end-to-end metric
but ``setup_s``.  Runs are sequential, each with ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        command = list(spec["command"]) + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=600
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + json.dumps(
            {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        ), flush=True)
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread < bound / 3 else ("within bound" if spread < bound else "TOO WIDE")
        print(f"{name:28s} median {median:12.4f}  spread {spread:7.4f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
