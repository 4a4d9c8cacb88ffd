#!/usr/bin/env python
"""Render every BENCH_*.json timing artifact as trajectory tables.

The benchmark conftest writes ``benchmarks/BENCH_<backend>.json`` whole
after every successful pytest run, and ``bench_serving.py`` writes
``BENCH_<backend>_serve.json`` in script mode.  Every artifact carries a
``stamp``: git commit, core count, python and numpy versions, TPC-H
scale and seed.  Timings only compare when they were measured at the
same scale on the same kind of host, so artifacts are grouped by
:data:`GROUP_KEYS` and each group prints as its own table — one row per
benchmark, one column per artifact.  Runs whose stamps differ never
share a row; artifacts without a stamp form their own group.

Run with::

    python benchmarks/trend.py [--json]

``--json`` emits the loaded artifacts, stamps included, for machine
consumption (the CI artifact upload keeps the raw files as well).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

#: Stamp fields that must agree for two artifacts to share a table.
GROUP_KEYS = ("tpch_scale", "cpu_count", "python", "numpy")


def load_reports() -> dict:
    """``artifact name -> payload`` from every readable BENCH file."""
    reports = {}
    for path in sorted(BENCH_DIR.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text())
        except (ValueError, OSError) as error:
            print(f"warning: skipping {path.name}: {error}", file=sys.stderr)
            continue
        reports[payload.get("backend", path.stem.replace("BENCH_", ""))] = payload
    return reports


def group_key(payload: dict) -> tuple | None:
    """The comparability key of one artifact (``None``: unstamped)."""
    stamp = payload.get("stamp")
    if not stamp:
        return None
    return tuple(stamp.get(key) for key in GROUP_KEYS)


def render_table(timings: dict) -> str:
    """One row per benchmark, one column per artifact of the group."""
    names = sorted(timings)
    tests = sorted({node for report in timings.values() for node in report})
    if not tests:
        return "(no timings)"
    name_width = max(len(t) for t in tests)
    col_width = max(10, max(len(n) for n in names))
    header = f"{'benchmark':<{name_width}}" + "".join(
        f"  {n:>{col_width}}" for n in names
    )
    show_ratio = {"python", "columnar"} <= set(names)
    if show_ratio:
        header += f"  {'py/col':>7}"
    lines = [header, "-" * len(header)]
    for test in tests:
        row = f"{test:<{name_width}}"
        for name in names:
            seconds = timings[name].get(test)
            row += (f"  {seconds:>{col_width}.3f}" if seconds is not None
                    else f"  {'-':>{col_width}}")
        if show_ratio:
            py = timings["python"].get(test)
            col = timings["columnar"].get(test)
            if py is not None and col:
                row += f"  {py / col:>6.1f}x"
            else:
                row += f"  {'-':>7}"
        lines.append(row)
    for name in names:
        total = sum(timings[name].values())
        lines.append(f"total {name}: {total:.2f}s over "
                     f"{len(timings[name])} benchmarks")
    return "\n".join(lines)


def render(reports: dict) -> str:
    if not reports:
        return "no BENCH_<backend>.json files found — run the benchmarks first"
    groups: dict = {}
    for name, payload in reports.items():
        groups.setdefault(group_key(payload), {})[name] = payload
    blocks = []
    for key in sorted(groups, key=repr):
        members = groups[key]
        if key is None:
            title = "unstamped"
        else:
            title = "  ".join(f"{k}={v}" for k, v in zip(GROUP_KEYS, key))
            shas = sorted({
                str(p["stamp"].get("git_sha"))[:10]
                + ("+dirty" if p["stamp"].get("git_dirty") else "")
                for p in members.values()
            })
            title += f"  git={','.join(shas)}"
        timings = {
            name: payload.get("timings_seconds", {})
            for name, payload in members.items()
        }
        blocks.append(f"== {title}\n{render_table(timings)}")
    return "\n\n".join(blocks)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", action="store_true", help="emit the loaded artifacts instead"
    )
    args = parser.parse_args()
    reports = load_reports()
    if args.json:
        print(json.dumps(reports, indent=1, sort_keys=True))
    else:
        print(render(reports))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
