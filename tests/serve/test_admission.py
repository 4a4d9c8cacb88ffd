"""Unit tests for the coalescing admission queue."""

import threading

import pytest

from repro.engine import Database, Relation
from repro.exceptions import ServeError, UnknownRelationError
from repro.query import parse_query
from repro.serve import AdmissionQueue, EpochManager
from repro.session import prepare


def _stack(max_batch=4096):
    query = parse_query("Q(A,B,C) :- R(A,B), S(B,C)")
    db = Database(
        {
            "R": Relation(["A", "B"], [(1, 2), (3, 2)]),
            "S": Relation(["B", "C"], [(2, 4)]),
        }
    )
    session = prepare(query, db)
    manager = EpochManager(session)
    queue = AdmissionQueue(manager, max_batch=max_batch)
    return session, manager, queue


@pytest.fixture()
def stack():
    session, manager, queue = _stack()
    yield session, manager, queue
    queue.close()
    manager.close()
    session.close()


class TestProbes:
    def test_probe_answers_match_direct_session_probe(self, stack):
        session, manager, queue = stack
        rows = [(2, 0), (2, 1), (9, 9)]
        expected = session.probe("S", rows)
        with manager.acquire() as lease:
            assert queue.submit_probe(lease, "S", rows).result(timeout=60) == expected

    def test_concurrent_probes_coalesce_into_fewer_passes(self, stack):
        _session, manager, queue = stack
        n_requests = 24
        barrier = threading.Barrier(n_requests)
        results = [None] * n_requests
        lease = manager.acquire()

        def submit(i):
            barrier.wait()
            results[i] = queue.submit_probe(lease, "S", [(2, i)])

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(n_requests)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(f.result(timeout=60) == [2] for f in results)
        stats = queue.stats()
        assert stats["probe_requests"] == n_requests
        assert stats["probe_passes"] < n_requests
        lease.release()

    def test_max_batch_chunks_large_groups(self):
        session, manager, queue = _stack(max_batch=2)
        try:
            with manager.acquire() as lease:
                futures = [
                    queue.submit_probe(lease, "S", [(2, i), (2, i + 100)])
                    for i in range(5)
                ]
                assert all(
                    f.result(timeout=60) == [2, 2] for f in futures
                )
            assert queue.stats()["probe_passes"] >= 1
        finally:
            queue.close()
            manager.close()
            session.close()

    def test_probe_error_propagates_to_every_future(self, stack):
        _session, manager, queue = stack
        with manager.acquire() as lease:
            future = queue.submit_probe(lease, "Nope", [(1, 1)])
            with pytest.raises(UnknownRelationError):
                future.result(timeout=60)

    def test_released_lease_fails_the_future_not_the_queue(self, stack):
        _session, manager, queue = stack
        lease = manager.acquire()
        lease.release()
        with pytest.raises(ServeError):
            queue.submit_probe(lease, "S", [(2, 0)]).result(timeout=60)
        # The dispatcher survived; a fresh lease still works.
        with manager.acquire() as fresh:
            assert queue.submit_probe(fresh, "S", [(2, 0)]).result(timeout=60) == [2]


class TestReads:
    def test_all_kinds_execute(self, stack):
        session, manager, queue = stack
        with manager.acquire() as lease:
            assert queue.submit_read(lease, "count").result(timeout=60) == 2
            sens = queue.submit_read(lease, "sensitivity").result(timeout=60)
            assert sens.local_sensitivity == session.sensitivity().local_sensitivity
            topk = queue.submit_read(lease, "top_k", k=2).result(timeout=60)
            assert topk.local_sensitivity >= sens.local_sensitivity
            explain = queue.submit_read(lease, "explain").result(timeout=60)
            assert explain.local_sensitivity == sens.local_sensitivity
            stats = queue.submit_read(lease, "stats").result(timeout=60)
            assert stats["backend"] == "python"

    def test_duplicate_reads_execute_once(self, stack):
        _session, manager, queue = stack
        n_requests = 16
        barrier = threading.Barrier(n_requests)
        futures = [None] * n_requests
        lease = manager.acquire()

        def submit(i):
            barrier.wait()
            futures[i] = queue.submit_read(
                lease, "sensitivity", method="auto", skip_relations=[]
            )

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(n_requests)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        results = [f.result(timeout=60) for f in futures]
        assert len({id(r) for r in results}) < n_requests  # shared objects
        stats = queue.stats()
        assert stats["read_requests"] == n_requests
        assert stats["read_executions"] < n_requests
        lease.release()

    def test_list_and_tuple_parameters_share_a_group(self, stack):
        _session, manager, queue = stack
        with manager.acquire() as lease:
            a = queue.submit_read(lease, "explain", skip_relations=["S"])
            b = queue.submit_read(lease, "explain", skip_relations=("S",))
            assert (
                a.result(timeout=60).local_sensitivity
                == b.result(timeout=60).local_sensitivity
            )

    def test_unknown_kind_raises_immediately(self, stack):
        _session, manager, queue = stack
        with manager.acquire() as lease:
            with pytest.raises(ServeError):
                queue.submit_read(lease, "release")

    def test_reads_run_methods_wrapped_after_import(self, monkeypatch):
        """A tracer wraps session methods after ``repro.serve`` was
        imported; every admitted read must run the wrapper, so the queue
        looks each method up when it runs, never from a table it built
        at import time."""
        from repro.session import PreparedQuery

        calls = []
        for name in ("sensitivity", "probe"):
            method = getattr(PreparedQuery, name)

            def traced(self, *args, _method=method, _name=name, **kwargs):
                calls.append(_name)
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(PreparedQuery, name, traced)
        session, manager, queue = _stack()
        try:
            with manager.acquire() as lease:
                sens = queue.submit_read(lease, "sensitivity", skip_relations=["R"])
                probe = queue.submit_probe(lease, "S", [(2, 0)])
                assert sens.result(timeout=60).per_relation["R"].sensitivity == 1
                assert probe.result(timeout=60) == [2]
        finally:
            queue.close()
            manager.close()
        assert sorted(calls) == ["probe", "sensitivity"]


class TestLifecycle:
    def test_close_refuses_new_submissions(self):
        session, manager, queue = _stack()
        lease = manager.acquire()
        queue.close()
        with pytest.raises(ServeError):
            queue.submit_probe(lease, "S", [(2, 0)])
        with pytest.raises(ServeError):
            queue.submit_read(lease, "count")
        queue.close()  # idempotent
        lease.release()
        manager.close()
        session.close()

    def test_close_drains_pending_work(self):
        session, manager, queue = _stack()
        with manager.acquire() as lease:
            futures = [
                queue.submit_probe(lease, "S", [(2, i)]) for i in range(8)
            ]
            queue.close()
            assert all(f.result(timeout=60) == [2] for f in futures)
        manager.close()
        session.close()

    def test_invalid_max_batch(self):
        session = prepare(
            parse_query("Q(A,B) :- R(A,B)"),
            Database({"R": Relation(["A", "B"], [(1, 2)])}),
        )
        manager = EpochManager(session)
        with pytest.raises(ServeError):
            AdmissionQueue(manager, max_batch=0)
        manager.close()
        session.close()
