"""Serving == fresh evaluation at the pinned epoch, under concurrency.

The serving layer's whole contract is *epoch consistency*: a reader that
acquired a lease observes answers equal to a fresh one-shot session over
the database exactly as it stood at that epoch — no matter how many
writer batches fold into newer epochs meanwhile, and whether the epoch
is still the head or superseded: every epoch answers from its own
session, forked from the previous head, which no batch folds into once
published.  Three properties pin it, on both execution backends:

* **Concurrent readers** — N reader threads racing a writer that commits
  a random batch stream: every observed ``(epoch, count, LS)`` triple
  matches a fresh :func:`~repro.session.prepare` over that epoch's
  replayed database.
* **Writer failure atomicity** — a batch that dies mid-apply (unknown
  relation after valid elements) advances nothing: the head epoch id,
  and every answer served from it, stays bit-identical to the pre-batch
  epoch.
* **Coalescing transparency** — answers produced through the admission
  queue (merged probe passes, deduplicated reads) equal the same
  requests issued serially against the session.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import prepare
from repro.datasets import (
    random_acyclic_query,
    random_database,
    random_update_stream,
)
from repro.exceptions import UnknownRelationError
from repro.serve import AdmissionQueue, EpochManager

seeds = st.integers(min_value=0, max_value=10_000)

BACKENDS = ("python", "columnar")

N_READERS = 4


def _replayed(db, stream):
    for op, relation, row in stream:
        db = (
            db.add_tuple(relation, row)
            if op == "insert"
            else db.remove_tuple(relation, row)
        )
    return db


def _batched(stream, rng):
    """Split a stream into random 1–3 element batches (epoch granularity)."""
    batches = []
    cursor = 0
    while cursor < len(stream):
        size = int(rng.integers(1, 4))
        batches.append(stream[cursor : cursor + size])
        cursor += size
    return batches


@pytest.mark.parametrize("backend", BACKENDS)
class TestConcurrentEpochConsistency:
    @given(seeds, st.integers(min_value=1, max_value=12))
    @settings(max_examples=6, deadline=None)
    def test_racing_readers_match_fresh_evaluation_at_their_epoch(
        self, backend, seed, n_updates
    ):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=2)
        db = random_database(query, rng, backend=backend)
        session = prepare(query, db)
        stream = random_update_stream(query, db, rng, n_updates)
        batches = _batched(stream, rng)

        # Epoch i is the database after the first i batches, replayed
        # immutably — the ground truth every observation is judged by.
        epoch_dbs = [db]
        for batch in batches:
            epoch_dbs.append(_replayed(epoch_dbs[-1], batch))

        manager = EpochManager(session)
        pinned = manager.acquire()  # stays at epoch 0 throughout
        observations = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                lease = manager.acquire()
                try:
                    count = manager.read(lease, lambda s: s.count())
                    ls = manager.read(lease, lambda s: s.sensitivity()).local_sensitivity
                    observations.append((lease.epoch_id, count, ls))
                finally:
                    lease.release()

        threads = [threading.Thread(target=reader) for _ in range(N_READERS)]
        for thread in threads:
            thread.start()
        # A short switch interval interleaves the readers' lazy builds
        # with the writer's fold far more often than the default 5 ms.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for batch in batches:
                manager.apply(batch)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join()

        # The epoch-0 lease survived every swap: its answers still come
        # from epoch 0's session, which no batch folded into.
        assert manager.head.epoch_id == len(batches)
        assert manager.read(pinned, lambda s: s.count()) == prepare(query, db).count()

        expected = {}
        for epoch_id, count, ls in observations:
            if epoch_id not in expected:
                fresh = prepare(query, epoch_dbs[epoch_id])
                expected[epoch_id] = (
                    fresh.count(),
                    fresh.sensitivity().local_sensitivity,
                )
            assert (count, ls) == expected[epoch_id], (
                f"epoch {epoch_id}: served ({count}, {ls}), "
                f"fresh {expected[epoch_id]}"
            )
        pinned.release()
        manager.close()
        session.close()


@pytest.mark.parametrize("backend", BACKENDS)
class TestWriterFailureAtomicity:
    @given(seeds, st.integers(min_value=0, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_failed_batch_leaves_epoch_bit_identical(
        self, backend, seed, n_updates
    ):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=2)
        db = random_database(query, rng, backend=backend)
        session = prepare(query, db)
        stream = random_update_stream(query, db, rng, n_updates)
        manager = EpochManager(session)
        if stream:
            manager.apply(stream)

        lease = manager.acquire()
        before = (
            manager.read(lease, lambda s: s.count()),
            manager.read(lease, lambda s: s.sensitivity()).local_sensitivity,
            manager.head.epoch_id,
        )
        relation = query.relation_names[0]
        arity = len(query.atoms[0].variables)
        poison = [
            ("insert", relation, tuple(0 for _ in range(arity))),
            ("insert", "NoSuchRelation", (1,)),
        ]
        with pytest.raises(UnknownRelationError):
            manager.apply(poison)

        # Nothing advanced, nothing committed — including the valid
        # prefix of the poisoned batch.
        assert manager.head.epoch_id == before[2]
        assert not lease.epoch.superseded
        after = (
            manager.read(lease, lambda s: s.count()),
            manager.read(lease, lambda s: s.sensitivity()).local_sensitivity,
            manager.head.epoch_id,
        )
        assert after == before
        fresh = prepare(query, _replayed(db, stream))
        assert after[0] == fresh.count()
        assert after[1] == fresh.sensitivity().local_sensitivity

        # The writer thread survived the failure: a good batch commits.
        applied = manager.apply([("insert", relation, tuple(0 for _ in range(arity)))])
        assert applied.epoch_id == before[2] + 1
        lease.release()
        manager.close()
        session.close()


@pytest.mark.parametrize("backend", BACKENDS)
class TestCoalescingTransparency:
    @given(seeds, st.integers(min_value=1, max_value=16))
    @settings(max_examples=8, deadline=None)
    def test_coalesced_probes_equal_serial_probes(
        self, backend, seed, n_requests
    ):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=2)
        db = random_database(query, rng, allow_empty=False, backend=backend)
        session = prepare(query, db)
        relation = query.relation_names[int(rng.integers(len(query.relation_names)))]
        arity = len(
            next(a for a in query.atoms if a.relation == relation).variables
        )
        requests = [
            [
                tuple(int(rng.integers(0, 4)) for _ in range(arity))
                for _ in range(int(rng.integers(1, 4)))
            ]
            for _ in range(n_requests)
        ]
        serial = [session.probe(relation, rows) for rows in requests]

        manager = EpochManager(session)
        queue = AdmissionQueue(manager)
        lease = manager.acquire()
        futures = [
            queue.submit_probe(lease, relation, rows) for rows in requests
        ]
        coalesced = [future.result(timeout=60) for future in futures]
        assert coalesced == serial
        # Coalescing happened at all: fewer engine passes than requests
        # whenever several requests landed in one dispatch round.
        stats = queue.stats()
        assert stats["probe_requests"] == n_requests
        assert 1 <= stats["probe_passes"] <= n_requests
        lease.release()
        queue.close()
        manager.close()
        session.close()

    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_deduplicated_reads_equal_direct_reads(self, backend, seed):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=2)
        db = random_database(query, rng, backend=backend)
        session = prepare(query, db)
        direct_count = session.count()
        direct_ls = session.sensitivity().local_sensitivity

        manager = EpochManager(session)
        queue = AdmissionQueue(manager)
        lease = manager.acquire()
        count_futures = [
            queue.submit_read(lease, "count") for _ in range(6)
        ]
        sens_futures = [
            queue.submit_read(lease, "sensitivity", method="auto")
            for _ in range(6)
        ]
        assert all(f.result(timeout=60) == direct_count for f in count_futures)
        assert all(
            f.result(timeout=60).local_sensitivity == direct_ls
            for f in sens_futures
        )
        lease.release()
        queue.close()
        manager.close()
        session.close()
