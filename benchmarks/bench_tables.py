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

q3's O table ``γ_{CK,OK}(J(gOC)[NK,OK] ⋈ C[NK,CK])`` sums nothing, as C
is unique on CK, so :func:`~repro.evaluation.joinstate.build_table`
keeps it as its two parts (a :class:`~repro.core.result.KeyedFactor`)
instead of materialising it (3.3M rows at TPC-H 0.01).  A second test
checks that the kept factor answers exactly as the materialised
``join_aggregate(parts, keep)`` — argmax value and tuple,
``distinct_count``, ``total_count`` and lookups of sampled present and
absent keys — on columnar at 0.01 and on python at 0.001, and that on
columnar it builds ≥10× faster than materialising.
"""

import time

import numpy as np

from repro.core.result import KeyedFactor
from repro.datasets.tpch import generate_tpch
from repro.engine.operators import group_by, join_all
from repro.evaluation.joinstate import JoinState, build_table, join_aggregate
from repro.workloads.tpch_queries import q3_workload

#: TPC-H scale per backend: the python reference's dict join needs the
#: smaller one (114,200 rows per gated table at 0.001).
SCALES = {"columnar": 0.005, "python": 0.001}
SEED = 0
#: The tables whose written-order join blows up; the speedup gate covers them.
GATED = ("R", "N")
ROUNDS = 3
#: TPC-H scale per backend for the O table gate.
O_SCALES = {"columnar": 0.01, "python": 0.001}
#: Sampled present and absent O-table keys looked up on both sides.
O_LOOKUPS = 64


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


def _o_table_keys(parts, attributes, rng):
    """Keys of the O table: a row of each part meeting on their shared
    value (present), and rows meeting on none (absent if the
    materialised table says so)."""
    first, second = ([dict(zip(p.attributes, row)) for row in p.counts] for p in parts)
    shared = [a for a in parts[0].attributes if a in parts[1].schema]
    by_value = {}
    for row in second:
        by_value.setdefault(tuple(row[a] for a in shared), []).append(row)
    keys = []
    for i in rng.choice(len(first), size=O_LOOKUPS, replace=False).tolist():
        row = first[i]
        value = tuple(row[a] for a in shared)
        for match in (by_value.get(value), second):
            if match:
                pick = {**match[int(rng.integers(len(match)))], **row}
                keys.append(tuple(pick[a] for a in attributes))
    return keys


def test_o_table_keyed_vs_materialised(benchmark, backend):
    workload = q3_workload()
    db = workload.prepare(generate_tpch(O_SCALES[backend], seed=SEED, backend=backend))
    state = JoinState(workload.query, workload.tree, db)
    state.topjoins()
    layout = state.layout("O")
    (component,) = layout.components
    parts = [state._part_value(part) for part in component.parts]

    start = time.perf_counter()
    reference = join_aggregate(parts, component.effective)
    reference_seconds = time.perf_counter() - start
    (factor,) = build_table(layout, state._part_value).factors
    assert isinstance(factor, KeyedFactor)
    assert factor.argmax_count() == reference.argmax_count()
    assert factor.distinct_count() == reference.distinct_count()
    assert factor.total_count() == reference.total_count()
    keys = _o_table_keys(parts, factor.attributes, np.random.default_rng(SEED))
    expected = reference.multiplicities(keys)
    assert any(expected) and not all(expected)
    assert factor.multiplicities(keys) == expected
    support = reference.distinct_count()
    del reference, factor

    benchmark.pedantic(
        lambda: build_table(layout, state._part_value), rounds=ROUNDS, iterations=1
    )
    keyed_seconds = benchmark.stats.stats.min
    speedup = reference_seconds / max(keyed_seconds, 1e-9)
    benchmark.extra_info["scale"] = O_SCALES[backend]
    benchmark.extra_info["o_table_rows"] = support
    benchmark.extra_info["materialised_seconds"] = reference_seconds
    benchmark.extra_info["keyed_seconds"] = keyed_seconds
    benchmark.extra_info["materialised_vs_keyed_speedup"] = speedup

    if backend == "columnar":
        # The acceptance bar: q3's O table, kept as its parts, builds at
        # least 10x faster than materialising it.
        assert speedup >= 10.0
