"""Unit tests for the epoch manager: leases, swaps, retirement, writer."""

import threading
import time

import pytest

from repro.engine import Database, Relation
from repro.exceptions import OverloadedError, ServeError, UnknownRelationError
from repro.query import parse_query
from repro.serve import AppliedBatch, EpochManager
from repro.session import prepare


def _session(backend="python"):
    query = parse_query("Q(A,B,C) :- R(A,B), S(B,C)")
    db = Database(
        {
            "R": Relation(["A", "B"], [(1, 2), (3, 2)]),
            "S": Relation(["B", "C"], [(2, 4)]),
        },
        backend=backend,
    )
    return prepare(query, db)


@pytest.fixture()
def manager():
    session = _session()
    manager = EpochManager(session)
    yield manager
    manager.close()
    session.close()


class TestLeases:
    def test_head_starts_at_epoch_zero(self, manager):
        assert manager.head.epoch_id == 0
        assert not manager.head.superseded

    def test_acquire_pins_and_release_unpins(self, manager):
        lease = manager.acquire()
        assert lease.epoch is manager.head
        assert manager.head.refcount == 1
        lease.release()
        assert manager.head.refcount == 0

    def test_release_is_idempotent(self, manager):
        lease = manager.acquire()
        lease.release()
        lease.release()
        assert manager.head.refcount == 0

    def test_read_through_released_lease_raises(self, manager):
        lease = manager.acquire()
        lease.release()
        with pytest.raises(ServeError):
            manager.count(lease)

    def test_lease_context_manager(self, manager):
        with manager.acquire() as lease:
            assert manager.count(lease) == 2
        assert manager.head.refcount == 0


class TestWriter:
    def test_apply_advances_one_epoch_per_batch(self, manager):
        first = manager.apply([("insert", "R", (5, 2))])
        second = manager.apply([("insert", "S", (2, 9))])
        assert isinstance(first, AppliedBatch)
        assert (first.epoch_id, second.epoch_id) == (1, 2)
        assert manager.head.epoch_id == 2
        assert first.count == 3 and second.count == 6
        assert manager.session.updates_applied == 2

    def test_submit_futures_resolve_in_order(self, manager):
        futures = [
            manager.submit([("insert", "R", (10 + i, 2))]) for i in range(4)
        ]
        epochs = [f.result(timeout=60).epoch_id for f in futures]
        assert epochs == [1, 2, 3, 4]

    def test_failed_batch_does_not_advance(self, manager):
        lease = manager.acquire()
        future = manager.submit([("insert", "Nope", (1,))])
        with pytest.raises(UnknownRelationError):
            future.result(timeout=60)
        assert manager.head.epoch_id == 0
        assert not lease.epoch.superseded
        assert manager.count(lease) == 2
        stats = manager.stats()
        assert stats["batches_failed"] == 1
        assert stats["batches_applied"] == 0
        lease.release()

    def test_writer_survives_failure(self, manager):
        with pytest.raises(UnknownRelationError):
            manager.apply([("insert", "Nope", (1,))])
        assert manager.apply([("insert", "R", (5, 2))]).epoch_id == 1

    def test_full_queue_rejects_instead_of_blocking(self):
        session = _session()
        manager = EpochManager(session, max_queue=1)
        outcome = {}

        def third_submit():
            try:
                manager.submit([("insert", "R", (7, 2))])
            except OverloadedError as exc:
                outcome["error"] = exc

        try:
            with session.lock:  # the writer stalls on its first batch
                first = manager.submit([("insert", "R", (5, 2))])
                deadline = time.monotonic() + 10
                while manager.stats()["queued_batches"]:
                    assert time.monotonic() < deadline, "writer never dequeued"
                    time.sleep(0.01)
                second = manager.submit([("insert", "R", (6, 2))])  # fills it
                submitter = threading.Thread(target=third_submit, daemon=True)
                submitter.start()
                submitter.join(timeout=1.0)
                blocked = submitter.is_alive()
            assert not blocked, "submit blocked on a full writer queue"
            assert isinstance(outcome.get("error"), OverloadedError)
            assert manager.stats()["batches_rejected"] == 1
            assert first.result(timeout=60).epoch_id == 1
            assert second.result(timeout=60).epoch_id == 2
            assert manager.session.updates_applied == 2
        finally:
            manager.close()
            session.close()

    def test_submit_is_accepted_again_once_the_writer_drains(self):
        session = _session()
        manager = EpochManager(session, max_queue=1)
        try:
            with session.lock:  # the writer stalls on its first batch
                first = manager.submit([("insert", "R", (5, 2))])
                deadline = time.monotonic() + 10
                while manager.stats()["queued_batches"]:
                    assert time.monotonic() < deadline, "writer never dequeued"
                    time.sleep(0.01)
                manager.submit([("insert", "R", (6, 2))])
                with pytest.raises(OverloadedError):
                    manager.submit([("insert", "R", (7, 2))])
            first.result(timeout=60)
            # The rejected batch left nothing behind; the next one queues.
            applied = manager.apply([("insert", "R", (8, 2))])
            assert applied.epoch_id == 3
            assert applied.count == 5
            stats = manager.stats()
            assert (stats["batches_applied"], stats["batches_rejected"]) == (3, 1)
        finally:
            manager.close()
            session.close()


class TestEpochPinning:
    def test_superseded_lease_reads_frozen_snapshot(self, manager):
        old = manager.acquire()
        manager.apply([("insert", "R", (5, 2))])
        new = manager.acquire()
        assert old.epoch.superseded
        assert manager.count(old) == 2
        assert manager.count(new) == 3
        assert manager.probe(old, "S", [(2, 0)]) == [2]
        assert manager.probe(new, "S", [(2, 0)]) == [3]
        assert (
            manager.sensitivity(old).local_sensitivity
            <= manager.sensitivity(new).local_sensitivity
        )
        old.release()
        new.release()

    def test_session_stats_reflect_pinned_epoch(self, manager):
        old = manager.acquire()
        manager.apply([("insert", "R", (5, 2))])
        stats_old = manager.session_stats(old)
        assert stats_old["relation_cardinalities"]["R"] == 2
        new = manager.acquire()
        stats_new = manager.session_stats(new)
        assert stats_new["relation_cardinalities"]["R"] == 3
        old.release()
        new.release()


class TestRetirement:
    def test_drained_superseded_epoch_retires(self, manager):
        lease = manager.acquire()
        epoch = lease.epoch
        manager.apply([("insert", "R", (5, 2))])
        assert not epoch.retired  # still pinned
        manager.count(lease)  # builds the frozen fork
        lease.release()
        assert epoch.retired
        assert epoch.epoch_id not in manager.stats()["live_epochs"]
        assert manager.stats()["retired_epochs"] == 1

    def test_head_never_retires_unpinned(self, manager):
        lease = manager.acquire()
        lease.release()
        assert not manager.head.retired

    def test_read_after_retirement_raises(self, manager):
        lease = manager.acquire()
        other = manager.acquire()
        manager.apply([("insert", "R", (5, 2))])
        other.release()  # epoch still pinned by `lease`
        lease.release()  # now retired
        with pytest.raises(ServeError):
            manager.count(lease)


class TestLifecycle:
    def test_close_refuses_new_work(self):
        session = _session()
        manager = EpochManager(session)
        manager.close()
        with pytest.raises(ServeError):
            manager.acquire()
        with pytest.raises(ServeError):
            manager.submit([("insert", "R", (1, 1))])
        manager.close()  # idempotent
        session.close()

    def test_context_manager(self):
        session = _session()
        with EpochManager(session) as manager:
            with manager.acquire() as lease:
                assert manager.count(lease) == 2
        assert manager.closed
        session.close()

    def test_stats_shape(self, manager):
        stats = manager.stats()
        assert stats["head_epoch"] == 0
        assert stats["live_epochs"] == {0: 0}
        assert stats["queued_batches"] == 0
        assert stats["batches_rejected"] == 0
        assert stats["closed"] is False
