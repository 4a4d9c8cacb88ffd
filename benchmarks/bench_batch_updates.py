"""Ablation — batched update streams: one compacted apply vs a loop.

The claim behind the batched :meth:`~repro.session.PreparedQuery.apply`:
folding a stream as whole per-relation signed delta relations costs a
constant number of vectorized passes per touched relation, while the
one-at-a-time loop pays the full leaf-to-root fold (plus a fork of the
join state and cache invalidation) once per element.  Both sides are
*maintained* sessions — the baseline here is already the winner of
``bench_session_updates.py`` — so the measured gap isolates the
batching/compaction layer itself.

The workload is the broom-shaped acyclic query shared with the session
bench, with a 1000-element stream (≈1/6 deletes, duplicates guaranteed
by the narrow key domain, so compaction genuinely coalesces).  The bench
asserts the batched session lands on exactly the same count and database
as the sequential one, and is ≥ 3× faster on either backend.
"""

import time

import numpy as np

from repro.datasets import random_update_stream
from repro.engine import Database, Relation
from repro.query import parse_query
from repro.query.jointree import join_tree_from_parents
from repro.session import prepare

UPDATES = 1000
#: Smaller tables than the rebuild bench: both sides are maintained, so
#: the contrast is per-element fold overhead, not rebuild cost.
ROWS = {"python": 2000, "columnar": 20000}
DOMAIN = 400
SEED = 7

QUERY = parse_query(
    "Q(A,B,C,D,E,F,G) :- Hub(A,B), S1(A,C), S2(A,D), S3(A,E), T1(B,F), T2(F,G)"
)
TREE = join_tree_from_parents(
    QUERY,
    "Hub",
    {"S1": "Hub", "S2": "Hub", "S3": "Hub", "T1": "Hub", "T2": "T1"},
)


def _broom_database(backend: str, rng: np.random.Generator) -> Database:
    n_rows = ROWS[backend]

    def table(attrs):
        rows = rng.integers(0, DOMAIN, size=(n_rows, len(attrs)))
        return Relation(attrs, [tuple(int(v) for v in row) for row in rows])

    return Database(
        {
            "Hub": table(["A", "B"]),
            "S1": table(["A", "C"]),
            "S2": table(["A", "D"]),
            "S3": table(["A", "E"]),
            "T1": table(["B", "F"]),
            "T2": table(["F", "G"]),
        },
        backend=backend,
    )


def test_batched_apply_vs_sequential_loop(benchmark, backend):
    rng = np.random.default_rng(SEED)
    db = _broom_database(backend, rng)
    stream = random_update_stream(QUERY, db, rng, UPDATES)

    def batched_stream():
        session = prepare(QUERY, db, tree=TREE)
        session.count()  # maintained state built on both sides
        return session.apply(stream), session.db

    (batched_count, batched_db) = benchmark.pedantic(
        batched_stream, rounds=2, iterations=1
    )
    batched_seconds = benchmark.stats.stats.min

    sequential = prepare(QUERY, db, tree=TREE)
    sequential.count()
    start = time.perf_counter()
    for update in stream:
        sequential_count = sequential.apply([update])
    sequential_seconds = time.perf_counter() - start

    # Exact agreement: same final count, same final database bag.
    assert batched_count == sequential_count
    for relation in QUERY.relation_names:
        assert batched_db.relation(relation).same_bag(
            sequential.db.relation(relation)
        )

    speedup = sequential_seconds / max(batched_seconds, 1e-9)
    benchmark.extra_info["updates"] = UPDATES
    benchmark.extra_info["batched_seconds"] = batched_seconds
    benchmark.extra_info["sequential_seconds"] = sequential_seconds
    benchmark.extra_info["batched_vs_sequential_speedup"] = speedup

    # The acceptance bar of the batched apply: one compacted batch beats
    # the element-by-element loop by at least 3x.
    assert speedup >= 3.0
