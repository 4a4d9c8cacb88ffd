"""Ablation — early-aggregating multiplicity tables vs join-then-group.

A table factor is ``γ_keep(⋈ parts)`` (paper Eqn. 6).  The reference
computes it as written, ``group_by(join_all(parts), keep)``: join in
layout order, group once at the end.  q3's root tables for R and N then
pair ``K(gOC)[NK,OK]`` with ``K(gSP)[NK,SK,PK]`` on NK alone, a join
far larger than any input part or output factor.
:func:`~repro.evaluation.joinstate.join_aggregate` joins in UES-bound
order and sums out each attribute once nothing later needs it.

For every table component the q3 workload builds, both sides run over
the same maintained parts (topjoins materialised first, so neither side
pays the topjoin pass).  The bench asserts exact agreement on every
component, and that the R and N tables together build ≥5× faster than
the reference: on columnar at TPC-H 0.005, on python at 0.001.
"""

import time

from repro.datasets.tpch import generate_tpch
from repro.engine.operators import group_by, join_all
from repro.evaluation.joinstate import JoinState, join_aggregate
from repro.workloads.tpch_queries import q3_workload

#: TPC-H scale per backend: the python reference's dict join needs the
#: smaller one (114,200 rows per gated table at 0.001).
SCALES = {"columnar": 0.005, "python": 0.001}
SEED = 0
#: The tables whose written-order join blows up; the speedup gate covers them.
GATED = ("R", "N")
ROUNDS = 3


def _components(backend):
    """``(relation, keep, parts)`` of every table component q3 builds."""
    workload = q3_workload()
    db = workload.prepare(generate_tpch(SCALES[backend], seed=SEED, backend=backend))
    state = JoinState(workload.query, workload.tree, db)
    state.topjoins()
    out = []
    for relation in workload.query.relation_names:
        if relation in workload.skip_relations:
            continue
        for component in state.layout(relation).components:
            parts = [state._part_value(part) for part in component.parts]
            out.append((relation, component.effective, parts))
    return out


def test_tables_vs_join_then_group(benchmark, backend):
    components = _components(backend)
    reference_seconds = 0.0
    for relation, keep, parts in components:
        start = time.perf_counter()
        reference = group_by(join_all(parts), keep)
        if relation in GATED:
            reference_seconds += time.perf_counter() - start
        # Exact agreement on every component: same schema, same counts.
        assert join_aggregate(parts, keep) == reference, relation

    gated = [(keep, parts) for relation, keep, parts in components if relation in GATED]

    def early_aggregating():
        for keep, parts in gated:
            join_aggregate(parts, keep)

    benchmark.pedantic(early_aggregating, rounds=ROUNDS, iterations=1)
    early_seconds = benchmark.stats.stats.min

    speedup = reference_seconds / max(early_seconds, 1e-9)
    benchmark.extra_info["scale"] = SCALES[backend]
    benchmark.extra_info["reference_seconds"] = reference_seconds
    benchmark.extra_info["early_seconds"] = early_seconds
    benchmark.extra_info["reference_vs_early_speedup"] = speedup

    # The acceptance bar: q3's R and N tables build at least 5x faster
    # than join-then-group on both backends.
    assert speedup >= 5.0
