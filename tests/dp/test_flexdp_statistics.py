"""FlexDP reads each relation's statistics once per release, and the
default join plan covers disconnected queries.

``smooth_elastic_sensitivity`` scans distances until its patience runs
out.  Each relation's base expression (size and one max frequency per
variable) is built once; each distance walks the join plan with only the
protected relation's size and frequencies shifted.
"""

import numpy as np
import pytest

from repro.baselines import elastic
from repro.baselines.elastic import default_plan, plan_from_tree
from repro.dp import run_flex_dp
from repro.query import auto_decompose, parse_query


@pytest.mark.parametrize("backend", ["python", "columnar"])
def test_one_base_expression_per_relation(monkeypatch, fig1_query, fig1_db, backend):
    calls = []
    original = elastic._base_expression

    def spy(query, db, relation):
        calls.append(relation)
        return original(query, db, relation)

    monkeypatch.setattr(elastic, "_base_expression", spy)
    outcome = run_flex_dp(
        fig1_query,
        fig1_db.with_backend(backend),
        primary="R1",
        epsilon=1.0,
        rng=np.random.default_rng(0),
    )
    assert sorted(calls) == sorted(fig1_query.relation_names)
    assert outcome.smooth_sensitivity > 0


def test_connected_default_plan_is_the_tree_plan(fig1_query, triangle_query):
    for query in (fig1_query, triangle_query):
        assert default_plan(query) == plan_from_tree(auto_decompose(query))


def test_disconnected_default_plan_chains_components():
    plan = default_plan(parse_query("R(A,B), S(B,C), T(D)"))
    assert plan[1] == "T"
    assert sorted(plan[0]) == ["R", "S"]
