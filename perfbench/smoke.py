"""Smoke test of the benchmark itself, at TPC-H scale 0.0005.

Usage (from the repository root)::

    python3 perfbench/smoke.py

Runs every workload for a few seconds, untraced and traced, and asserts
that the result line names every metric of ``BENCHMARK.json`` with its
unit, that every correctness check of the workload ran and passed, and
that a copy of the benchmark without the program sources fails without
printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.0005"
#: long enough for serve-mixed's first refresh batch (due at 2.5 s).
SECONDS = "3"

EXPECTED_CHECKS = {
    "tsens-cyclic": {"answers_equal_reference"},
    "tsens-acyclic": {"answers_equal_reference"},
    "maintain-refresh": {"final_count", "final_sensitivity", "final_probe"},
    "serve-mixed": {
        "head_count", "head_sensitivity", "head_probe", "all_batches_acked", "rounds_intact"
    },
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_workload(spec, workload: str, trace: int) -> None:
    done = run(ROOT, workload, trace)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, (workload, report["checks"])
    assert result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}, result["metrics"]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], (metric, emitted)
        assert isinstance(emitted["value"], (int, float)), emitted
    assert set(report["checks"]) == EXPECTED_CHECKS[workload], report["checks"]
    assert report["stamp"]["tpch_scale"] == float(SCALE)
    print(f"ok  {workload:18s} trace={trace} ops={result['attempted']}", flush=True)


def check_bare_copy() -> None:
    """Without ``src/`` the benchmark must fail and print no result."""
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run(bare, "tsens-cyclic", 0)
        assert done.returncode != 0 and not done.stdout.strip(), done
    finally:
        shutil.rmtree(bare)
    print("ok  bare copy fails without a result", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(EXPECTED_CHECKS)
    for workload in EXPECTED_CHECKS:
        for trace in (0, 1):
            check_workload(spec, workload, trace)
    check_bare_copy()
    return 0


if __name__ == "__main__":
    sys.exit(main())
