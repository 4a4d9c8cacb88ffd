"""Shared experiment plumbing: timing, caching, and workload execution.

Experiments repeatedly need the same three measurements for a workload on a
database — TSens local sensitivity, Elastic sensitivity, and the query
evaluation count — each with wall-clock timings.  :func:`measure_workload`
bundles them; dataset construction is memoised per (kind, scale, seed) so a
sweep does not regenerate data per query.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

from repro.engine.database import Database
from repro.evaluation.yannakakis import count_query
from repro.baselines.elastic import elastic_sensitivity
from repro.core.result import SensitivityResult
from repro.session import prepare
from repro.datasets.facebook import generate_ego_network
from repro.datasets.tpch import generate_tpch
from repro.workloads.base import Workload


@dataclass
class WorkloadMeasurement:
    """One workload's sensitivity/runtime measurements on one database."""

    workload: str
    tsens_ls: int
    elastic_ls: int
    count: int
    tsens_seconds: float
    elastic_seconds: float
    evaluation_seconds: float
    result: SensitivityResult


@lru_cache(maxsize=16)
def tpch_database(scale: float, seed: int = 0) -> Database:
    """Memoised TPC-H instance."""
    return generate_tpch(scale, seed=seed)


@lru_cache(maxsize=4)
def facebook_database(seed: int = 0) -> Database:
    """Memoised Facebook ego-network instance."""
    return generate_ego_network(seed=seed)


def timed(fn: Callable[[], object]) -> Tuple[object, float]:
    """Run ``fn`` and return (value, elapsed wall-clock seconds)."""
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def measure_workload(
    workload: Workload, base: Database
) -> WorkloadMeasurement:
    """TSens vs Elastic vs query evaluation for one workload.

    Matches the paper's measurement protocol: Elastic pre-processing (max
    frequencies) is *included* in its timing, both analyses use the same
    join order (post-order of the workload's decomposition), and query
    evaluation uses the count-only Yannakakis pass.  TSens runs through
    the session surface — one prepare step whose planning time counts
    towards the TSens measurement, exactly like the one-shot call it
    replaces.
    """
    db = workload.prepared(base)
    session, prepare_seconds = timed(
        lambda: prepare(workload.query, db, tree=workload.tree)
    )
    result, sensitivity_seconds = timed(
        lambda: session.sensitivity(skip_relations=workload.skip_relations)
    )
    tsens_seconds = prepare_seconds + sensitivity_seconds
    elastic_ls, elastic_seconds = timed(
        lambda: elastic_sensitivity(workload.query, db, tree=session.tree)
    )
    count, evaluation_seconds = timed(
        lambda: count_query(workload.query, db, tree=workload.tree)
    )
    return WorkloadMeasurement(
        workload=workload.name,
        tsens_ls=result.local_sensitivity,
        elastic_ls=int(elastic_ls),
        count=int(count),
        tsens_seconds=tsens_seconds,
        elastic_seconds=elastic_seconds,
        evaluation_seconds=evaluation_seconds,
        result=result,
    )


def best_measurement(
    workload: Workload, base: Database, repetitions: int
) -> WorkloadMeasurement:
    """:func:`measure_workload` run ``repetitions`` times (at least once),
    each timing taken as its minimum over the runs (min is the standard
    low-noise estimator for wall-clock micro-timings)."""
    best = measure_workload(workload, base)
    for _ in range(repetitions - 1):
        m = measure_workload(workload, base)
        best.tsens_seconds = min(best.tsens_seconds, m.tsens_seconds)
        best.elastic_seconds = min(best.elastic_seconds, m.elastic_seconds)
        best.evaluation_seconds = min(best.evaluation_seconds, m.evaluation_seconds)
    return best
