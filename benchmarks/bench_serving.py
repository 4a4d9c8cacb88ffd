"""Benchmark — coalesced admission vs request-at-a-time serving.

The serving subsystem's throughput claim: concurrent probe requests
pinned to the same epoch are merged by the :class:`AdmissionQueue` into
one probe-id-tagged vectorized pass, so N in-flight requests cost a few
engine passes instead of N.  The baseline is the same
:class:`EpochManager` read path executing the identical requests one at
a time — exactly what a non-coalescing server loop would do — so the
measured gap isolates the admission layer, not the epoch machinery.

The workload is the broom-shaped acyclic query shared with the batch
bench: many small probes (16 rows each) against the hub relation, the
regime a deployment-style "what would this insert cost?" endpoint sees.
Every run asserts the coalesced futures resolve to exactly the serial
answers and that coalescing genuinely happened (fewer passes than
requests); the ≥3× throughput bar applies on the columnar backend,
where a pass is a constant number of kernels regardless of row count.

The module doubles as a standalone script recording the serving
trajectory for :mod:`benchmarks.trend`::

    PYTHONPATH=src python benchmarks/bench_serving.py --backend columnar

writes ``benchmarks/BENCH_<backend>_serve.json`` whole (payload
``backend`` key ``"<backend>_serve"``, stamped like every BENCH
artifact), rendered by ``trend.py`` in its own table: its broom-shaped
data is not TPC-H, so it never shares a row with the fig-7 timings.
"""

import time

import numpy as np

from repro.engine import Database, Relation
from repro.query import parse_query
from repro.query.jointree import join_tree_from_parents
from repro.serve import AdmissionQueue, EpochManager
from repro.session import prepare

#: Concurrent probe requests per measured round, and rows per request.
N_REQUESTS = 32
ROWS_PER_PROBE = 16
ROWS = {"python": 2000, "columnar": 20000}
DOMAIN = 400
SEED = 11

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


def _probe_requests(rng: np.random.Generator):
    """N_REQUESTS probe payloads of ROWS_PER_PROBE hypothetical Hub rows."""
    return [
        [
            (int(a), int(b))
            for a, b in rng.integers(0, DOMAIN, size=(ROWS_PER_PROBE, 2))
        ]
        for _ in range(N_REQUESTS)
    ]


def _serial_pass(manager, lease, requests):
    """Request-at-a-time baseline: one manager read per probe request."""
    return [manager.read(lease, lambda s: s.probe("Hub", rows)) for rows in requests]


def _coalesced_pass(admission, lease, requests):
    """All requests in flight at once; the dispatcher merges them."""
    futures = [
        admission.submit_probe(lease, "Hub", rows) for rows in requests
    ]
    return [future.result() for future in futures]


def test_coalesced_vs_serial_probe_throughput(benchmark, backend):
    rng = np.random.default_rng(SEED)
    db = _broom_database(backend, rng)
    requests = _probe_requests(rng)

    with prepare(QUERY, db, tree=TREE) as session:
        session.count()  # maintained state built before timing
        with EpochManager(session) as manager:
            admission = AdmissionQueue(manager)
            lease = manager.acquire()
            try:
                serial = _serial_pass(manager, lease, requests)
                coalesced = benchmark.pedantic(
                    _coalesced_pass,
                    args=(admission, lease, requests),
                    rounds=3,
                    iterations=1,
                )
                coalesced_seconds = benchmark.stats.stats.min

                start = time.perf_counter()
                _serial_pass(manager, lease, requests)
                serial_seconds = time.perf_counter() - start

                stats = admission.stats()
            finally:
                lease.release()
                admission.close()

    # Exact agreement request-by-request, and genuine coalescing.
    assert coalesced == serial
    assert stats["probe_passes"] < stats["probe_requests"]

    speedup = serial_seconds / max(coalesced_seconds, 1e-9)
    benchmark.extra_info["requests"] = N_REQUESTS
    benchmark.extra_info["rows_per_probe"] = ROWS_PER_PROBE
    benchmark.extra_info["probe_passes"] = stats["probe_passes"]
    benchmark.extra_info["serial_seconds"] = serial_seconds
    benchmark.extra_info["coalesced_seconds"] = coalesced_seconds
    benchmark.extra_info["coalesced_vs_serial_speedup"] = speedup

    # Acceptance bar: on columnar a pass costs a constant number of
    # kernels, so merging 32 requests must win by at least 3x.  The
    # python backend pays per-row either way; only direction is claimed.
    if backend == "columnar":
        assert speedup >= 3.0
    else:
        assert speedup > 0.5  # coalescing must never be a regression cliff


# --------------------------------------------------------------- script mode
def _best_of(fn, rounds):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_comparison(backend, seed, rounds):
    """Serial vs coalesced wall times, with agreement checks."""
    rng = np.random.default_rng(seed)
    db = _broom_database(backend, rng)
    requests = _probe_requests(rng)

    with prepare(QUERY, db, tree=TREE) as session:
        session.count()
        with EpochManager(session) as manager:
            admission = AdmissionQueue(manager)
            lease = manager.acquire()
            try:
                serial = _serial_pass(manager, lease, requests)
                coalesced = _coalesced_pass(admission, lease, requests)
                assert coalesced == serial, "coalesced answers diverged"
                results = {
                    "serial_seconds": _best_of(
                        lambda: _serial_pass(manager, lease, requests), rounds
                    ),
                    "coalesced_seconds": _best_of(
                        lambda: _coalesced_pass(admission, lease, requests),
                        rounds,
                    ),
                }
                stats = admission.stats()
            finally:
                lease.release()
                admission.close()

    results["speedup"] = (
        results["serial_seconds"] / max(results["coalesced_seconds"], 1e-9)
    )
    results["probe_passes"] = stats["probe_passes"]
    results["probe_requests"] = stats["probe_requests"]
    return results


def write_bench_report(path, backend, seed, results):
    """Write BENCH_<backend>_serve.json whole from this run, for trend.py."""
    import json

    from conftest import bench_stamp

    payload = {
        "backend": f"{backend}_serve",
        "stamp": bench_stamp(None, seed),
        "requests": N_REQUESTS,
        "rows_per_probe": ROWS_PER_PROBE,
        "timings_seconds": {
            "bench_serving.py::probe::coalesced": round(
                results["coalesced_seconds"], 6
            ),
            "bench_serving.py::probe::serial": round(
                results["serial_seconds"], 6
            ),
        },
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import argparse
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent))

    parser = argparse.ArgumentParser(
        description="Coalesced admission vs serial serving throughput."
    )
    parser.add_argument(
        "--backend", default="columnar", choices=("python", "columnar")
    )
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--no-report", action="store_true",
        help="skip writing benchmarks/BENCH_<backend>_serve.json",
    )
    args = parser.parse_args()

    print(
        f"serving bench  backend={args.backend}  requests={N_REQUESTS}"
        f"  rows/probe={ROWS_PER_PROBE}  seed={args.seed}"
    )
    results = run_comparison(args.backend, args.seed, args.rounds)
    print(
        f"  probe: serial={results['serial_seconds']*1e3:8.2f}ms"
        f"  coalesced={results['coalesced_seconds']*1e3:8.2f}ms"
        f"  speedup={results['speedup']:.2f}x"
        f"  passes={results['probe_passes']}/{results['probe_requests']}"
    )
    print("  exact agreement: every future matches its serial answer")

    if not args.no_report:
        out = Path(__file__).resolve().parent / (
            f"BENCH_{args.backend}_serve.json"
        )
        write_bench_report(out, args.backend, args.seed, results)
        print(f"wrote {out}")
