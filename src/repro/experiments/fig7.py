"""Experiment E3 — Figure 7: runtime vs scale for q1, q2, q3.

Reproduces the paper's timing series: TSens, Elastic and query-evaluation
wall-clock times across TPC-H scales.  The paper's shape claims: TSens
tracks query-evaluation time within a small constant (~1.8× for q1, ~0.9×
for q2, ~4.2× for q3), while Elastic is much faster than both (it never
touches the join).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from repro.experiments.fig6a import DEFAULT_SCALES, Q3_MAX_SCALE
from repro.experiments.reporting import format_table, ratio
from repro.experiments.runner import best_measurement, tpch_database
from repro.workloads.tpch_queries import tpch_workloads


def run(
    scales: Sequence[float] = DEFAULT_SCALES,
    seed: int = 0,
    queries: Optional[Sequence[str]] = None,
    repetitions: int = 3,
) -> List[Mapping[str, object]]:
    """Run the timing sweep; times are the min over ``repetitions`` runs
    (:func:`~repro.experiments.runner.best_measurement`)."""
    rows: List[Mapping[str, object]] = []
    for scale in scales:
        base = tpch_database(scale, seed)
        for workload in tpch_workloads():
            if queries is not None and workload.name not in queries:
                continue
            if workload.name == "q3" and scale > Q3_MAX_SCALE:
                continue
            best = best_measurement(workload, base, repetitions)
            rows.append(
                {
                    "scale": scale,
                    "query": workload.name,
                    "tsens_seconds": best.tsens_seconds,
                    "elastic_seconds": best.elastic_seconds,
                    "evaluation_seconds": best.evaluation_seconds,
                    "tsens_over_evaluation": ratio(
                        best.tsens_seconds, best.evaluation_seconds
                    ),
                }
            )
    return rows


def report(rows: Sequence[Mapping[str, object]]) -> str:
    """Text rendering of the Fig. 7 series."""
    return format_table(
        rows,
        columns=[
            "scale",
            "query",
            "tsens_seconds",
            "elastic_seconds",
            "evaluation_seconds",
            "tsens_over_evaluation",
        ],
        title="Figure 7 — runtime vs scale (TPC-H)",
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
