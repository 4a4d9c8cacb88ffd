"""Ablation — refresh folds: ``patch`` vs whole-relation union/monus, and
lookup and range joins vs the sort path.

A warm q3 session, with its multiplicity tables built as the maintained
sensitivity reads keep them, absorbs three TPC-H-style refresh batches:
new orders with their lineitems (RF1) and deleted orders with theirs
(RF2).  Every maintained relation — database relation, atom, botjoin,
topjoin, materialised table factor — takes its delta through
:func:`~repro.engine.operators.patch`, which on columnar locates the
delta rows in the relation's code-order key and copies only the arrays it
changes.  Before, a fold concatenated and regrouped the whole relation
(``union_all``) or matched it whole against the delta (monus).

The bench times every patch call the folds make — a batch's one patch of
each database relation, a selected atom's patches, and each level's and
table factor's one patch at the end of the batch — then runs the
whole-relation reference on the same ``(relation, plus, minus)`` inputs:
``union_all`` with ``plus``, then the monus kernel ``difference`` ran
before it became the minus side of ``patch``.  It asserts that the two
agree on every input, and on columnar that the inputs on relations of
≥100k rows patch ≥3× faster than the reference.
That gate runs at TPC-H 0.02, where Lineitem (~120k rows), the topjoin
J(gOC) and the botjoin K(gSP) cross 100k rows.  At 0.005 only q3's O
table factor did, and it is now kept as its two parts (a keyed factor)
and never patched.  On python at 0.001 (no relation reaches 100k rows)
the ratio over all inputs is recorded only.

The joins that carry a delta past a node are timed the same way.  When
every attribute of a join's larger operand is a join attribute — a
maintained atom, botjoin, topjoin or table factor probed by a delta —
the columnar ``join`` looks the smaller operand up in the larger one's
cached row key.  The bench records every such join the three batches
make, runs the sort path on the same operands (``_pack_keys`` +
``_match_pairs``, same output assembly), asserts exact agreement, and
on columnar asserts that the joins whose keyed side has ≥10k rows run
≥5× faster in total.

A larger operand with attributes outside the join key is range-searched
instead when it carries a row key led by exactly the join attributes,
as every patched relation does: a delta joined into Lineitem
``L(OK,SK,PK)`` on ``OK`` reads one run of rows per delta row.  The
third gate records those joins at TPC-H 0.02, where Lineitem has ~120k
rows, checks each against the sort path and asserts that the ones into
sides of ≥10k rows run ≥5× faster in total.  Lookups and range searches
are columnar kernels, so the python run skips both join gates.
"""

import time

import numpy as np
import pytest

from repro.datasets.tpch import generate_tpch
from repro.engine import ColumnarRelation, Relation, patch, union_all
from repro.engine import columnar
from repro.evaluation import incremental, joinstate
from repro.session import prepare
from repro.workloads.tpch_queries import q3_workload

SCALES = {"columnar": 0.005, "python": 0.001}
#: The patch gate's scale: the smallest at which columnar folds patch
#: relations of ≥ LARGE_ROWS rows.
PATCH_SCALES = {"columnar": 0.02, "python": 0.001}
SEED = 1
BATCHES = 3
ORDERS_PER_BATCH = 8
MAX_LINES_PER_ORDER = 7
#: Relations at least this large carry the patch speedup gate.
LARGE_ROWS = 100_000
#: Keyed join sides at least this large carry the join speedup gate.
LARGE_KEYED_ROWS = 10_000
ROUNDS = 3


def _refresh_batches(db, rng):
    """RF1 + RF2 update streams over q3's views ``C``, ``O``, ``L``, ``PS``.

    Each batch inserts new orders on existing customers with 1-7
    lineitems on existing partsupp pairs, and deletes orders that existed
    before the first batch together with all their lineitems."""
    customers = sorted(db.relation("C").counts)
    partsupp = sorted(db.relation("PS").counts)
    customer_of = {ok: ck for ck, ok in db.relation("O").counts}
    lines = {}
    for row, count in db.relation("L").items():
        lines.setdefault(row[0], []).extend([row] * count)
    live = sorted(customer_of)
    next_ok = max(live) + 1
    batches = []
    for _ in range(BATCHES):
        victims = [live[i] for i in rng.choice(len(live), ORDERS_PER_BATCH, replace=False)]
        batch = []
        for ok in range(next_ok, next_ok + ORDERS_PER_BATCH):
            batch.append(("insert", "O", (customers[rng.integers(len(customers))][1], ok)))
            for _ in range(rng.integers(1, MAX_LINES_PER_ORDER + 1)):
                batch.append(("insert", "L", (ok, *partsupp[rng.integers(len(partsupp))])))
        next_ok += ORDERS_PER_BATCH
        for ok in victims:
            batch.extend(("delete", "L", line) for line in lines[ok])
            batch.append(("delete", "O", (customer_of[ok], ok)))
            live.remove(ok)
        batches.append(batch)
    return batches


def _warm_session(backend, scale):
    workload = q3_workload()
    db = workload.prepare(generate_tpch(scale, seed=SEED, backend=backend))
    session = prepare(workload.query, db, tree=workload.tree)
    session.sensitivity(skip_relations=workload.skip_relations)
    return session, _refresh_batches(session.db, np.random.default_rng(SEED))


def _whole_relation_monus(left, right):
    """``left ∸ right`` as ``difference`` computed it before ``patch``:
    every row of ``left`` is matched against ``right`` and the count
    vector masked whole."""
    if left.schema.arity == 0:
        remaining = left.total_count() - right.total_count()
        return type(left)(left.schema, {(): remaining} if remaining > 0 else {})
    if isinstance(left, ColumnarRelation):
        left, right = columnar._aligned(left, right)
        lkey, rkey = columnar._pack_keys(left._codes, right._codes)
        lidx, ridx = columnar._match_pairs(lkey, rkey)
        mult = left._mult.copy()
        mult[lidx] -= right._mult[ridx]
        keep = mult > 0
        return ColumnarRelation._from_parts(
            left.schema, [c[keep] for c in left._codes], mult[keep], vocab=left._vocab
        )
    counts = {}
    for row, cnt in left.items():
        remaining = cnt - right.multiplicity(row)
        if remaining > 0:
            counts[row] = remaining
    return Relation._from_counts(left.schema, counts)


def _reference(relation, plus, minus):
    """``(relation ⊎ plus) ∸ minus`` by whole relations: ``union_all``,
    then :func:`_whole_relation_monus`."""
    if plus is not None:
        relation = union_all([relation, plus])
    if minus is not None:
        relation = _whole_relation_monus(relation, minus)
    return relation


def _keyed_side(left, right):
    """The operand a columnar join looks the other up in — the larger one
    (the right one on a tie), when its attributes are all join attributes
    — or ``None``."""
    larger = right if right.distinct_count() >= left.distinct_count() else left
    common = left.schema.common(right.schema)
    return larger if common and larger.schema.arity == len(common) else None


def _range_side(left, right):
    """The operand a columnar join range-searches in its cached row key
    although it has attributes outside the join key — the larger one (the
    right one on a tie) — or ``None``."""
    larger = right if right.distinct_count() >= left.distinct_count() else left
    common = left.schema.common(right.schema)
    if common and larger.schema.arity > len(common):
        return larger if columnar._range_searchable(larger, common) else None
    return None


def _sort_path_join(left, right):
    """The join on the sort path: pack both keys, sort the smaller, scan
    the larger, then assemble the output as ``join`` does."""
    left, right = columnar._aligned(left, right)
    common = left.schema.common(right.schema)
    lkey, rkey = columnar._pack_keys(
        [left._codes[p] for p in left.schema.project_positions(common)],
        [right._codes[p] for p in right.schema.project_positions(common)],
    )
    lidx, ridx = columnar._match_pairs(lkey, rkey)
    return columnar._joined(left, right, lidx, ridx)


def _same_bag(left, right):
    """Exact bag equality.  Columnar bags are regrouped into code order
    under one vocabulary and compared array by array, which is far
    cheaper than decoding ~810k rows into tuples."""
    if not isinstance(left, ColumnarRelation):
        return left == right
    left = union_all([left])
    right = union_all([columnar._aligned(left, right)[1]])
    return left.schema == right.schema and all(
        np.array_equal(a, b)
        for a, b in zip((*left._codes, left._mult), (*right._codes, right._mult))
    )


def _seconds(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def test_refresh_fold_patch_vs_union(benchmark, backend):
    """The reference runs right after each patch on the same input and
    only timings are kept, so no superseded relation outlives its fold.
    pytest-benchmark's own timing therefore covers folds plus checks; the
    gate reads the per-call timings."""
    rounds = []  # per round: (relation rows, patch seconds, reference seconds)

    def checked_patch(relation, plus=None, minus=None):
        out, seconds = _seconds(patch, relation, plus, minus)
        expected, reference = _seconds(_reference, relation, plus, minus)
        assert _same_bag(out, expected), relation.attributes
        rounds[-1].append((relation.distinct_count(), seconds, reference))
        return out

    def setup():
        rounds.append([])
        return _warm_session(backend, PATCH_SCALES[backend]), {}

    def fold(session, batches):
        for batch in batches:
            session.apply(batch)

    with pytest.MonkeyPatch.context() as spy:
        spy.setattr(joinstate, "patch", checked_patch)
        spy.setattr(incremental, "patch", checked_patch)
        benchmark.pedantic(fold, setup=setup, rounds=ROUNDS, iterations=1)

    large = LARGE_ROWS if backend == "columnar" else 0
    gated = [[call for call in calls if call[0] >= large] for calls in rounds]
    patch_seconds = min(sum(call[1] for call in calls) for calls in gated)
    reference_seconds = min(sum(call[2] for call in calls) for calls in gated)
    speedup = reference_seconds / max(patch_seconds, 1e-9)
    benchmark.extra_info["scale"] = PATCH_SCALES[backend]
    benchmark.extra_info["patch_calls_per_round"] = len(rounds[-1])
    benchmark.extra_info["gated_rows_at_least"] = large
    benchmark.extra_info["gated_calls_per_round"] = len(gated[-1])
    benchmark.extra_info["patch_seconds"] = patch_seconds
    benchmark.extra_info["reference_seconds"] = reference_seconds
    benchmark.extra_info["reference_vs_patch_speedup"] = speedup

    if backend == "columnar":
        # The acceptance bar: q3's large maintained relations absorb a
        # refresh batch at least 3x faster than whole-relation union/monus.
        assert gated[-1]
        assert speedup >= 3.0


def test_refresh_fold_keyed_joins_lookup_vs_sort(benchmark, backend):
    """Times only the joins the folds make, as the patch bench does, each
    followed by the sort path on the same operands."""
    if backend != "columnar":
        pytest.skip("the lookup join is a columnar kernel")
    rounds = []  # per round: (keyed rows, join seconds, sort-path seconds)
    folding = []
    real_join = columnar.join

    def checked_join(left, right):
        keyed = _keyed_side(left, right) if folding else None
        if keyed is None:
            return real_join(left, right)
        out, seconds = _seconds(real_join, left, right)
        expected, reference = _seconds(_sort_path_join, left, right)
        assert _same_bag(out, expected), (left.attributes, right.attributes)
        rounds[-1].append((keyed.distinct_count(), seconds, reference))
        return out

    def setup():
        rounds.append([])
        return _warm_session(backend, SCALES[backend]), {}

    def fold(session, batches):
        folding.append(True)
        try:
            for batch in batches:
                session.apply(batch)
        finally:
            folding.clear()

    with pytest.MonkeyPatch.context() as spy:
        spy.setattr(columnar, "join", checked_join)
        benchmark.pedantic(fold, setup=setup, rounds=ROUNDS, iterations=1)

    gated = [[call for call in calls if call[0] >= LARGE_KEYED_ROWS] for calls in rounds]
    join_seconds = min(sum(call[1] for call in calls) for calls in gated)
    reference_seconds = min(sum(call[2] for call in calls) for calls in gated)
    speedup = reference_seconds / max(join_seconds, 1e-9)
    benchmark.extra_info["scale"] = SCALES[backend]
    benchmark.extra_info["keyed_joins_per_round"] = len(rounds[-1])
    benchmark.extra_info["gated_keyed_rows_at_least"] = LARGE_KEYED_ROWS
    benchmark.extra_info["gated_joins_per_round"] = len(gated[-1])
    benchmark.extra_info["lookup_seconds"] = join_seconds
    benchmark.extra_info["sort_path_seconds"] = reference_seconds
    benchmark.extra_info["sort_path_vs_lookup_speedup"] = speedup

    # The acceptance bar: fold joins probing keyed sides of ≥10k rows run
    # at least 5x faster as lookups than on the sort path.
    assert gated[-1]
    assert speedup >= 5.0


def test_refresh_fold_range_joins_vs_sort(benchmark, backend):
    """Times the fold joins the range search serves, as the keyed-join
    bench times lookups, each followed by the sort path on the same
    operands."""
    if backend != "columnar":
        pytest.skip("the range search is a columnar kernel")
    rounds = []  # per round: (searched rows, join seconds, sort-path seconds)
    folding = []
    real_join = columnar.join

    def checked_join(left, right):
        searched = _range_side(left, right) if folding else None
        if searched is None:
            return real_join(left, right)
        out, seconds = _seconds(real_join, left, right)
        expected, reference = _seconds(_sort_path_join, left, right)
        assert _same_bag(out, expected), (left.attributes, right.attributes)
        rounds[-1].append((searched.distinct_count(), seconds, reference))
        return out

    def setup():
        rounds.append([])
        return _warm_session(backend, PATCH_SCALES[backend]), {}

    def fold(session, batches):
        folding.append(True)
        try:
            for batch in batches:
                session.apply(batch)
        finally:
            folding.clear()

    with pytest.MonkeyPatch.context() as spy:
        spy.setattr(columnar, "join", checked_join)
        benchmark.pedantic(fold, setup=setup, rounds=ROUNDS, iterations=1)

    gated = [[call for call in calls if call[0] >= LARGE_KEYED_ROWS] for calls in rounds]
    join_seconds = min(sum(call[1] for call in calls) for calls in gated)
    reference_seconds = min(sum(call[2] for call in calls) for calls in gated)
    speedup = reference_seconds / max(join_seconds, 1e-9)
    benchmark.extra_info["scale"] = PATCH_SCALES[backend]
    benchmark.extra_info["range_joins_per_round"] = len(rounds[-1])
    benchmark.extra_info["gated_searched_rows_at_least"] = LARGE_KEYED_ROWS
    benchmark.extra_info["gated_joins_per_round"] = len(gated[-1])
    benchmark.extra_info["range_seconds"] = join_seconds
    benchmark.extra_info["sort_path_seconds"] = reference_seconds
    benchmark.extra_info["sort_path_vs_range_speedup"] = speedup

    # The acceptance bar: fold joins range-searching sides of ≥10k rows
    # run at least 5x faster than on the sort path.
    assert gated[-1]
    assert speedup >= 5.0
