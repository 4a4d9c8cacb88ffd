"""Layered TSens benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tsens-cyclic --seed 1 --seconds 15 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics (``setup_s`` and ``op_p50_norm_ms`` rescaled to a reference host
speed by the kernel runs of ``calibrate.py``; the report also holds the
times as measured); ``--trace 1`` measures the first third untraced and the rest
with spans around every layer's entry points, and reports the per-layer
metrics.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the full report,
stamped with the host and the inputs, is printed above it and written
whole to ``perfbench/results/<workload>-seed<n>-trace<t>.json`` (a traced
run also writes its raw spans beside it, ``...-trace1-spans.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

from calibrate import REFERENCE_MS
from spans import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: per-layer time metric -> (span key, field); seconds per op.
LAYER_TIMES = {
    "query.plan_s": ("query.plan", "self_s"),
    "evaluation.bind_s": ("evaluation.bind", "self_s"),
    "evaluation.botjoins_s": ("evaluation.botjoins", "self_s"),
    "evaluation.topjoins_s": ("evaluation.topjoins", "self_s"),
    "evaluation.tables_s": ("evaluation.tables", "self_s"),
    "engine.table_join_s": ("engine.join_all@evaluation.tables", "total_s"),
    "engine.table_group_s": ("engine.group_by@evaluation.tables", "total_s"),
    "evaluation.compact_s": ("evaluation.compact", "self_s"),
    "evaluation.apply_batch_s": ("evaluation.apply_batch", "self_s"),
    "evaluation.probe_s": ("evaluation.probe", "self_s"),
    "core.path_s": ("core.path", "self_s"),
    "core.witness_s": ("core.tsens", "self_s"),
}
#: per-layer row counts -> (span key, field); rows per op.
LAYER_ROWS = {
    "evaluation.bind_rows": ("evaluation.bind", "rows"),
    "evaluation.botjoins_rows": ("evaluation.botjoins", "rows"),
    "evaluation.topjoins_rows": ("evaluation.topjoins", "rows"),
    "evaluation.table_rows": ("evaluation.tables", "rows"),
    "evaluation.table_join_rows": ("engine.join_all@evaluation.tables", "rows"),
    "evaluation.delta_rows": ("evaluation.apply_batch", "rows"),
}
#: serve-layer metric -> the outcome's extra field holding it.
SERVE_LAYER = {
    "serve.stale_reads": "stale_reads",
    "serve.coalesce_ratio": "coalesce_ratio",
    "serve.read_dedup_ratio": "read_dedup_ratio",
    "serve.epoch_rtt_ms": "epoch_rtt_ms",
}
#: sub-step timings that get their own p50/p90 in the report.
OP_PARTS = ("apply", "probe", "sensitivity")
#: a p90 needs at least this many samples.
P90_MIN_SAMPLES = 100


def git_sha():
    """The commit of a git checkout, read from ``.git`` (None outside one)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(args, outcome) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tpch_scale": args.scale,
        "backend": "columnar",
        "workers": 1,
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "params": outcome.params,
    }


def _ms(values):
    return 1e3 * statistics.median(values)


def _p90_ms(values):
    return 1e3 * statistics.quantiles(values, n=10)[-1]


def _rescaled(seconds, kernel_runs):
    """``seconds`` measured beside ``kernel_runs``, at the reference host
    speed (one kernel run in ``REFERENCE_MS``): the host's speed moves
    every timing alike, and the kernel measures it."""
    return seconds * REFERENCE_MS / _ms(kernel_runs)


def op_metrics(outcome, ops) -> dict:
    """End-to-end figures over ``ops`` (all of them, or the untraced ones)."""
    done = [op for op in ops if op.ok]
    window = max(op.end for op in ops) - outcome.start
    report = {
        "setup_raw_s": statistics.median(outcome.setup_s),
        "setup_s": _rescaled(statistics.median(outcome.setup_s), outcome.setup_calibration_s),
        "setup_kernel_p50_ms": _ms(outcome.setup_calibration_s),
        "setup_rss_mb": outcome.setup_rss_mb,
        "peak_rss_mb": outcome.peak_rss_mb,
        "ops_per_s": len(done) / window,
        "samples": len(done),
    }
    if done:
        report["op_p50_ms"] = _ms([op.latency for op in done])
        report["kernel_p50_ms"] = _ms(outcome.calibration_s)
        report["op_p50_norm_ms"] = _rescaled(report["op_p50_ms"], outcome.calibration_s)
    name = outcome.op_name
    if name and done:
        report[f"{name}_p50_ms"] = report["op_p50_ms"]
        if len(done) >= P90_MIN_SAMPLES:
            report[f"{name}_p90_ms"] = _p90_ms([op.latency for op in done])
    for part in OP_PARTS:
        samples = [op.parts[part] for op in done if part in op.parts]
        if samples:
            report[f"{part}_p50_ms"] = _ms(samples)
            report[f"{part}_samples"] = len(samples)
            if len(samples) >= P90_MIN_SAMPLES:
                report[f"{part}_p90_ms"] = _p90_ms(samples)
    return report


def layer_metrics(outcome, summary) -> dict:
    """Per-layer figures over the traced ops; 0 for a layer not reached."""
    traced = [op for op in outcome.ops if op.traced]
    untraced = [op for op in outcome.ops if not op.traced and op.ok]
    per_op = max(1, len(traced))
    report = {}
    for name, (key, fld) in {**LAYER_TIMES, **LAYER_ROWS}.items():
        report[name] = summary.get(key, {}).get(fld, 0) / per_op
    for name, key in SERVE_LAYER.items():
        report[name] = outcome.extra.get(key, 0)
    reads = [op for op in traced if op.ok and op.kind != "apply"]
    base = [op for op in untraced if op.kind != "apply"]
    report["trace.overhead_frac"] = (
        _ms([op.latency for op in reads]) / _ms([op.latency for op in base]) - 1.0
        if reads and base
        else 0.0
    )
    report["trace.ops"] = len(traced)
    return report


def load_declared():
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=None, help="TPC-H scale (default: per workload)"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import scenarios

    if args.workload not in scenarios.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.scale is None:
        args.scale = scenarios.SCALES[args.workload]
    cfg = scenarios.Config(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    outcome = scenarios.WORKLOADS[args.workload](cfg)

    end_to_end, per_layer = load_declared()
    checks_ok = all(outcome.checks.values())
    attempted = len(outcome.ops)
    failed = sum(not op.ok for op in outcome.ops)
    if not checks_ok:
        # A wrong final state puts every op of the run in doubt.
        failed = attempted
    measured = [op for op in outcome.ops if not op.traced]
    report = {
        "stamp": stamp(args, outcome),
        "checks": outcome.checks,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": op_metrics(outcome, measured),
        "extra": outcome.extra,
        "setup_runs_s": outcome.setup_s,
        "op_ms": [round(1e3 * op.latency, 3) for op in measured],
        "kernel_ms": [round(1e3 * c, 3) for c in outcome.calibration_s],
    }
    if args.trace:
        report["span_summary"] = summarize(outcome.spans)
        report["per_layer"] = layer_metrics(outcome, report["span_summary"])
    report["end_to_end"]["failed_frac"] = failed / attempted

    source = report["per_layer"] if args.trace else report["end_to_end"]
    declared = per_layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in declared}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if args.trace:
        # Raw spans: [id, parent id, name, start s, end s, rows].
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(outcome.spans) + "\n")
    print(json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": checks_ok and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
