#!/usr/bin/env python
"""Serving quickstart: one prepared session shared by many clients.

Boots the NDJSON session server on an ephemeral port over the paper's
running join, then drives it like a deployment would: epoch-pinned
reads, a hypothetical-insert probe, an atomic update batch that moves
the epoch head, a budget-accounted DP release, and finally a burst of
concurrent probes that the admission queue coalesces into a handful of
vectorized passes.

Run with::

    python examples/serve_quickstart.py
"""

import threading

from repro import prepare
from repro.engine import Database, Relation
from repro.query import parse_query
from repro.serve import ServeClient, serve


def main() -> None:
    query = parse_query("Q(A,B,C) :- R(A,B), S(B,C)")
    db = Database(
        {
            "R": Relation(["A", "B"], [(1, 2), (3, 2), (4, 7)]),
            "S": Relation(["B", "C"], [(2, 9), (7, 5)]),
        }
    )
    # The server owns the session: it is epoch 0's, and each batch folds
    # into a fork of the head, so it is never mutated.
    server = serve(prepare(query, db), default_epsilon=2.0).start_background()
    print(f"serving {query.name} on {server.host}:{server.port}")

    with ServeClient(server.host, server.port, tenant="alice") as client:
        # Reads carry the epoch they executed at.
        print(f"|Q(D)| = {client.count()}  (epoch {client.last_epoch})")
        sens = client.sensitivity()
        print(
            f"local sensitivity = {sens['local_sensitivity']}"
            f"  witness in {sens['witness']['relation']}"
        )
        # "What would this insert cost?" without committing anything.
        for row, w in zip([(2, 0), (9, 9)], client.probe("S", [(2, 0), (9, 9)])):
            print(f"probe S{row}: inserting it changes the count by {w}")

        # One atomic batch; the head moves to a fresh immutable epoch.
        applied = client.apply(
            [("insert", "R", (5, 2)), ("delete", "S", (7, 5))]
        )
        print(
            f"after batch: |Q(D)| = {applied['count']}"
            f"  (epoch {client.last_epoch})"
        )

        # A noisy release, charged to alice's server-side budget.
        outcome = client.release(1.0, mechanism="tsensdp", primary="R", ell=10)
        print(
            f"TSensDP release: answer = {outcome['answer']:.2f}"
            f"  (true count {outcome['true_count']}, epsilon 1.0)"
        )

    # A burst of concurrent clients: probes admitted at the same epoch
    # ride one probe-id-tagged pass instead of one pass per request.
    def probe_once() -> None:
        with ServeClient(server.host, server.port) as c:
            c.probe("S", [(2, 41), (2, 42)])

    burst = [threading.Thread(target=probe_once) for _ in range(8)]
    for t in burst:
        t.start()
    for t in burst:
        t.join()

    with ServeClient(server.host, server.port) as client:
        admission = client.stats()["admission"]
        print(
            f"coalescing: {admission['probe_requests']} probe requests"
            f" -> {admission['probe_passes']} vectorized passes"
        )

    server.stop()
    print("server drained and stopped")


if __name__ == "__main__":
    main()
