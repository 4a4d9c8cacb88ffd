"""Ablation — empirical complexity of Algorithm 1 (Theorem 4.1).

Runs ``LSPathJoin`` on TPC-H q1 at geometrically growing scales and checks
that runtime grows sub-quadratically in the input size — the observable
consequence of the ``O(n log n)`` bound on this hash-join substrate.
"""

import time

import pytest

from repro.core import local_sensitivity
from repro.datasets import generate_tpch
from repro.workloads import q1_workload

SCALES = (0.0002, 0.0008, 0.0032)


@pytest.mark.parametrize("scale", SCALES)
def test_scaling_path_algorithm(benchmark, scale):
    workload = q1_workload()
    db = workload.prepared(generate_tpch(scale, seed=0))
    n = db.total_tuples()
    benchmark.extra_info["n"] = n
    benchmark.pedantic(
        lambda: local_sensitivity(workload.query, db, method="path"),
        rounds=3,
        iterations=1,
    )


def test_scaling_is_subquadratic():
    """4× more data must cost clearly less than 16× more time (amortised
    over two growth steps; generous 8× threshold absorbs timer noise)."""
    workload = q1_workload()
    timings = []
    for scale in SCALES:
        db = workload.prepared(generate_tpch(scale, seed=0))
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            local_sensitivity(workload.query, db, method="path")
            best = min(best, time.perf_counter() - start)
        timings.append((db.total_tuples(), best))
    for (n1, t1), (n2, t2) in zip(timings, timings[1:]):
        growth = n2 / n1
        assert t2 / t1 < 2 * growth ** 2, (timings,)
    # End-to-end: 16× the data in far less than 256× the time.
    n_ratio = timings[-1][0] / timings[0][0]
    t_ratio = timings[-1][1] / timings[0][1]
    assert t_ratio < n_ratio ** 2 / 2
