"""Experiment E4 — Table 1: Facebook queries, sensitivity and runtime.

One row per Facebook query (q4, qw, q◦, q★) with the local sensitivity
from TSens, the Elastic upper bound, and the three wall-clock times —
exactly the columns of the paper's Table 1.  Shape claims: TSens is tighter
on every query (×3 up to ×80k), slower than Elastic, but comparable to
query-evaluation time.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from repro.experiments.reporting import format_table, ratio
from repro.experiments.runner import best_measurement, facebook_database
from repro.workloads.facebook_queries import facebook_workloads

#: Runs per workload; each timing is the best of them.  One wall-clock
#: timing of a few milliseconds on the small ego network can move by 2x
#: on a shared host, enough to reorder Elastic and TSens.
_REPETITIONS = 3


def run(
    seed: int = 0, queries: Optional[Sequence[str]] = None
) -> List[Mapping[str, object]]:
    """Run all four Facebook workloads; each timing is the best of three
    runs."""
    base = facebook_database(seed)
    rows: List[Mapping[str, object]] = []
    for workload in facebook_workloads():
        if queries is not None and workload.name not in queries:
            continue
        m = best_measurement(workload, base, _REPETITIONS)
        rows.append(
            {
                "query": workload.name,
                "tsens_ls": m.tsens_ls,
                "elastic_ls": m.elastic_ls,
                "elastic_over_tsens": ratio(m.elastic_ls, m.tsens_ls),
                "tsens_seconds": m.tsens_seconds,
                "elastic_seconds": m.elastic_seconds,
                "evaluation_seconds": m.evaluation_seconds,
                "output_count": m.count,
            }
        )
    return rows


def report(rows: Sequence[Mapping[str, object]]) -> str:
    """Text rendering of Table 1."""
    return format_table(
        rows,
        columns=[
            "query",
            "tsens_ls",
            "elastic_ls",
            "elastic_over_tsens",
            "tsens_seconds",
            "elastic_seconds",
            "evaluation_seconds",
            "output_count",
        ],
        title="Table 1 — Facebook queries: local sensitivity and runtime",
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
