"""Ablation — the top-k approximation of Sec. 5.4.

Sweeps k on the path query qw and records the looseness of the resulting
upper bound relative to exact TSens.  Checks the monotone-in-k tightening
and exactness for large k.
"""

import pytest

from repro import prepare
from repro.core import local_sensitivity
from repro.workloads import path_workload

KS = (1, 8, 64, 4096)
_state = {}


def _exact(db, workload):
    if "exact" not in _state:
        _state["exact"] = local_sensitivity(
            workload.query, db, method="tsens"
        ).local_sensitivity
    return _state["exact"]


@pytest.mark.parametrize("k", KS)
def test_topk_ablation(benchmark, facebook_base, k):
    workload = path_workload()
    db = workload.prepared(facebook_base)
    exact = _exact(db, workload)

    result = benchmark.pedantic(
        lambda: prepare(workload.query, db).top_k(k),
        rounds=2,
        iterations=1,
    )
    bound = result.local_sensitivity
    benchmark.extra_info["bound"] = bound
    benchmark.extra_info["looseness"] = bound / max(1, exact)
    assert bound >= exact
    _state.setdefault("bounds", {})[k] = bound
    if len(_state["bounds"]) == len(KS):
        bounds = [_state["bounds"][k] for k in KS]
        assert bounds == sorted(bounds, reverse=True)
        assert bounds[-1] == exact
