"""Query evaluation over decomposition trees (Yannakakis-style)."""

from repro.evaluation.incremental import PROBE_ATTRIBUTE, IncrementalEvaluator
from repro.evaluation.joinstate import JoinState
from repro.evaluation.yannakakis import (
    BoundTree,
    bind,
    compute_botjoins,
    compute_topjoins,
    count_bound,
    count_query,
    default_tree,
    evaluate_bound,
    evaluate_query,
    naive_join,
    semijoin_reduce,
)

__all__ = [
    "BoundTree",
    "IncrementalEvaluator",
    "JoinState",
    "PROBE_ATTRIBUTE",
    "bind",
    "compute_botjoins",
    "compute_topjoins",
    "count_bound",
    "count_query",
    "default_tree",
    "evaluate_bound",
    "evaluate_query",
    "naive_join",
    "semijoin_reduce",
]
