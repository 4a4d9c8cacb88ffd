"""Set two benchmark results side by side.

Usage (from the repository root)::

    python3 perfbench/compare.py BEFORE AFTER

``BEFORE`` and ``AFTER`` are result files written by ``run.py`` or
directories of them (paired by file name).  A pair is refused, with exit
code 2, when the two runs differ in workload, TPC-H scale, seed, run
length or core count: their numbers would not measure the same thing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: stamp fields two comparable runs must share.
MUST_MATCH = ("workload", "tpch_scale", "seed", "seconds", "trace", "cpu_count")


def pairs(before: Path, after: Path):
    if before.is_dir():
        for path in sorted(before.glob("*.json")):
            other = after / path.name
            if other.exists():
                yield path, other
    else:
        yield before, after


def compare(before: Path, after: Path) -> int:
    old = json.loads(before.read_text())
    new = json.loads(after.read_text())
    differ = [
        f"{k}: {old['stamp'].get(k)!r} vs {new['stamp'].get(k)!r}"
        for k in MUST_MATCH
        if old["stamp"].get(k) != new["stamp"].get(k)
    ]
    if differ:
        print(f"refused {before.name} vs {after.name}: " + "; ".join(differ), file=sys.stderr)
        return 2
    print(
        f"{before.name}: {old['stamp'].get('git_sha')} -> {new['stamp'].get('git_sha')}"
    )
    for section in ("end_to_end", "per_layer"):
        for name, value in old.get(section, {}).items():
            other = new.get(section, {}).get(name)
            if not isinstance(value, (int, float)) or not isinstance(other, (int, float)):
                continue
            ratio = f"{other / value:8.3f}x" if value else "        -"
            print(f"  {name:30s} {value:14.4f} {other:14.4f} {ratio}")
    return 0


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    status = 0
    for before, after in pairs(Path(argv[0]), Path(argv[1])):
        status = max(status, compare(before, after))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
