"""Ablation — join-tree root choice (the ``d`` parameter of Theorem 5.1).

Algorithm 2's cost depends on the tree shape: re-rooting a chain at its
middle halves the topjoin depth but the degree stays ≤ 2, so runtimes stay
comparable; the local sensitivity must be identical for every rooting.
"""

import pytest

from repro.core import tsens
from repro.query import gyo_join_tree
from repro.workloads import path_workload


@pytest.mark.parametrize("root_index", [0, 1, 3])
def test_rerooted_tree_same_result(benchmark, facebook_base, root_index):
    workload = path_workload()
    db = workload.prepared(facebook_base)
    tree = gyo_join_tree(workload.query)
    new_root = sorted(tree.node_ids)[root_index]
    rerooted = tree.rerooted(new_root)

    result = benchmark.pedantic(
        lambda: tsens(workload.query, db, tree=rerooted),
        rounds=2,
        iterations=1,
    )
    benchmark.extra_info["root"] = new_root
    benchmark.extra_info["ls"] = result.local_sensitivity
    baseline = tsens(workload.query, db, tree=tree)
    assert result.local_sensitivity == baseline.local_sensitivity
