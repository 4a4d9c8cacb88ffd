"""End-to-end tests: asyncio server + blocking client over a real socket."""

import threading

import pytest

from repro.engine import Database, Relation
from repro.exceptions import (
    MechanismConfigError,
    PrivacyBudgetError,
    ProtocolError,
    ServeError,
    TenantError,
    UnknownRelationError,
)
from repro.query import parse_query
from repro.serve import ServeClient, SessionServer, serve
from repro.session import prepare

BACKENDS = ("python", "columnar")


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
def server():
    session = _session()
    server = SessionServer(session, default_epsilon=10.0).start_background()
    yield server
    server.stop()
    session.close()


@pytest.fixture()
def client(server):
    with ServeClient(server.host, server.port, tenant="alice") as client:
        yield client


@pytest.mark.parametrize("backend", BACKENDS)
class TestCoreFlowBothBackends:
    def test_read_update_read(self, backend):
        session = _session(backend)
        with SessionServer(session, default_epsilon=5.0) as server:
            with ServeClient(server.host, server.port, tenant="t0") as client:
                assert client.count() == 2
                assert client.last_epoch == 0
                assert client.probe("S", [(2, 9), (7, 7)]) == [2, 0]
                sens = client.sensitivity()
                assert sens["local_sensitivity"] == 2
                assert sens["witness"]["relation"] in ("R", "S")
                assert client.insert("R", (5, 2)) == 3
                assert client.last_epoch == 1
                assert client.count() == 3
                outcome = client.release(
                    0.5, mechanism="tsensdp", primary="R", ell=10
                )
                assert outcome["mechanism_outcome"] == "TSensDPOutcome"
                assert outcome["true_count"] == 3
        session.close()


class TestEndpoints:
    def test_top_k_and_explain(self, client):
        topk = client.top_k(2)
        assert topk["method"].startswith("tsens-top")
        explain = client.explain()
        assert explain["local_sensitivity"] == 2
        assert explain["nodes"]  # node profiles serialised

    def test_epoch_endpoint_tracks_applies(self, client):
        assert client.epoch()["epoch"] == 0
        client.apply([("insert", "S", (2, 5)), ("delete", "S", (2, 4))])
        info = client.epoch()
        assert info["epoch"] == 1
        assert info["updates_applied"] == 2

    def test_stats_endpoint_shape(self, client):
        client.count()
        client.probe("S", [(2, 0)])
        stats = client.stats()
        assert stats["protocol"] == 1
        assert stats["requests_served"] >= 2
        assert stats["session"]["backend"] == "python"
        assert stats["session"]["relation_cardinalities"] == {"R": 2, "S": 1}
        assert stats["epochs"]["head_epoch"] == 0
        assert stats["admission"]["probe_requests"] >= 1

    def test_batch_is_atomic_over_the_wire(self, client):
        with pytest.raises(UnknownRelationError):
            client.apply(
                [("insert", "R", (9, 2)), ("insert", "Nope", (1,))]
            )
        assert client.count() == 2  # valid prefix rolled back too
        assert client.epoch()["epoch"] == 0


class TestErrors:
    def test_unknown_op_is_protocol_error(self, client):
        with pytest.raises(ProtocolError):
            client.call("drop_tables")

    def test_malformed_params(self, client):
        with pytest.raises(ProtocolError):
            client.call("probe", relation="S")  # rows missing
        with pytest.raises(ProtocolError):
            client.call("top_k", k=0)
        with pytest.raises(ProtocolError):
            client.call("top_k", k=True)  # a bool is an int, never a k
        with pytest.raises(ProtocolError):
            client.call("release", tenant="alice")  # epsilon missing

    def test_unknown_relation_raises_client_side(self, client):
        with pytest.raises(UnknownRelationError):
            client.probe("Nope", [(1, 1)])

    def test_sensitivity_frame_with_top_k_names_the_top_k_op(self, client):
        """The bound has one route; a ``top_k`` left on a ``sensitivity``
        frame is refused instead of answered with the exact LS."""
        with pytest.raises(ProtocolError, match="top_k op"):
            client.call("sensitivity", top_k=2)
        assert client.top_k(2)["method"] == "tsens-top2"

    @pytest.mark.parametrize("op", ["sensitivity", "top_k", "explain"])
    def test_skip_relations_must_be_names(self, client, op):
        params = {"k": 2} if op == "top_k" else {}
        for skip in ([1], [["S"]], "S"):
            with pytest.raises(ProtocolError, match="skip_relations"):
                client.call(op, skip_relations=skip, **params)
        with pytest.raises(UnknownRelationError, match="Nope"):
            client.call(op, skip_relations=["Nope"], **params)

    def test_unknown_frame_keys_are_refused(self, client):
        """A misspelt ``skip_relations`` (``skip``) used to answer S's
        unskipped witness; every op now names the key it does not take
        and the keys it does."""
        assert client.sensitivity(skip_relations=["S"])["local_sensitivity"] == 1
        with pytest.raises(ProtocolError, match="sensitivity takes no 'skip'") as raised:
            client.call("sensitivity", skip=["S"])
        assert "'method', 'skip_relations'" in str(raised.value)
        for op, params in [
            ("count", {"skip_relations": []}),
            ("probe", {"relation": "S", "rows": [[2, 4]], "row": [2, 4]}),
            ("top_k", {"k": 2, "skip": ["S"]}),
            ("explain", {"skip": ["S"]}),
            ("release", {"epsilon": 0.5, "primary": "R", "ell": 5, "mechanisms": "tsensdp"}),
            ("apply", {"batch": [], "atomic": True}),
            ("stats", {"verbose": True}),
            ("epoch", {"since": 3}),
        ]:
            with pytest.raises(ProtocolError, match=f"^{op} takes no "):
                client.call(op, **params)
        assert client.count() == 2
        assert client.epoch()["epoch"] == 0

    def test_every_client_method_round_trips(self, client):
        assert client.count() == 2
        assert client.probe("S", [(2, 4)]) == [2]
        assert client.sensitivity(method="tsens", skip_relations=["S"])["local_sensitivity"] == 1
        assert client.top_k(2, skip_relations=["S"])["method"] == "tsens-top2"
        assert client.explain(skip_relations=["S"])["local_sensitivity"] == 1
        outcome = client.release(0.5, mechanism="tsensdp", primary="R", ell=5, delta=1e-6)
        assert outcome["true_count"] == 2
        assert client.insert("S", (2, 5)) == 4
        assert client.delete("S", (2, 5)) == 2
        assert client.apply([("insert", "R", (9, 2))])["count"] == 3
        assert client.stats()["session"]["relation_cardinalities"]["R"] == 3
        assert client.epoch()["epoch"] == 3

    def test_release_without_tenant(self, server):
        with ServeClient(server.host, server.port) as anonymous:
            with pytest.raises(ServeError):
                anonymous.release(0.5, mechanism="tsensdp", primary="R", ell=5)
            with pytest.raises(TenantError):
                anonymous.call(
                    "release", epsilon=0.5, tenant="", mechanism="tsensdp",
                    primary="R", ell=5,
                )

    def test_server_survives_bad_requests(self, client):
        for _ in range(3):
            with pytest.raises(ProtocolError):
                client.call("drop_tables")
        assert client.count() == 2


class TestTenants:
    def test_budget_isolation_over_the_wire(self):
        session = _session()
        server = serve(
            session, tenant_budgets={"alice": 1.0, "bob": 1.0}
        ).start_background()
        try:
            with ServeClient(server.host, server.port) as client:
                kwargs = dict(mechanism="tsensdp", primary="R", ell=10)
                client.release(1.0, tenant="alice", **kwargs)
                with pytest.raises(PrivacyBudgetError):
                    client.release(0.1, tenant="alice", **kwargs)
                # Bob is unaffected by Alice's exhaustion.
                client.release(0.5, tenant="bob", **kwargs)
                tenants = {
                    t["tenant_id"]: t for t in client.stats()["tenants"]
                }
                assert tenants["alice"]["remaining_epsilon"] == pytest.approx(0.0)
                assert tenants["bob"]["remaining_epsilon"] == pytest.approx(0.5)
                # Strict registry: unknown tenants are rejected.
                with pytest.raises(TenantError):
                    client.release(0.1, tenant="mallory", **kwargs)
        finally:
            server.stop()
            session.close()

    @pytest.mark.parametrize(
        "config",
        [
            dict(mechanism="tsensdp", ell=10.0),
            dict(mechanism="privsql", max_threshold=64.0),
            dict(mechanism="flexdp", delta="0.1"),
        ],
        ids=["ell", "max_threshold", "delta"],
    )
    def test_bad_release_config_spends_nothing(self, config):
        session = _session()
        server = serve(session, tenant_budgets={"t": 2.0}).start_background()
        try:
            with ServeClient(server.host, server.port, tenant="t") as client:
                with pytest.raises(MechanismConfigError):
                    client.release(0.5, primary="R", **config)
                (tenant,) = client.stats()["tenants"]
                assert tenant["spent_epsilon"] == 0
                assert tenant["ledger"] == {}
        finally:
            server.stop()
            session.close()


class TestConcurrency:
    def test_concurrent_clients_get_epoch_consistent_answers(self, server):
        n_clients, n_rounds = 4, 5
        observations = []
        errors = []

        def worker():
            try:
                with ServeClient(server.host, server.port) as client:
                    for _ in range(n_rounds):
                        count = client.count()
                        observations.append((client.last_epoch, count))
            except Exception as exc:  # surfaces in the main thread
                errors.append(exc)

        writers = [threading.Thread(target=worker) for _ in range(n_clients)]
        for t in writers:
            t.start()
        with ServeClient(server.host, server.port) as updater:
            for i in range(4):
                updater.apply([("insert", "R", (100 + i, 2))])
        for t in writers:
            t.join()
        assert not errors
        # count at epoch e is 2 + e (each batch inserts one joining row)
        for epoch, count in observations:
            assert count == 2 + epoch


class TestOverload:
    def test_full_writer_queue_answers_overloaded_without_stalling(
        self, monkeypatch
    ):
        """A full writer queue rejects the next ``apply`` at once; the
        event loop keeps answering instead of blocking on the queue."""
        import time

        import repro.serve.server as server_module
        from repro.exceptions import OverloadedError
        from repro.serve.epochs import EpochManager

        monkeypatch.setattr(
            server_module,
            "EpochManager",
            lambda session: EpochManager(session, max_queue=1),
        )
        session = _session()
        server = SessionServer(session).start_background()
        try:
            manager = server.manager
            with session.lock:  # the writer stalls on its first batch
                first = manager.submit([("insert", "R", (5, 2))])
                deadline = time.monotonic() + 10
                while manager.stats()["queued_batches"]:
                    assert time.monotonic() < deadline, "writer never dequeued"
                    time.sleep(0.01)
                second = manager.submit([("insert", "R", (6, 2))])  # fills it
                with ServeClient(server.host, server.port, timeout=5) as client:
                    with pytest.raises(OverloadedError):
                        client.apply([("insert", "R", (7, 2))])
                    assert client.epoch()["epoch"] == 0
            assert first.result(timeout=60).epoch_id == 1
            assert second.result(timeout=60).epoch_id == 2
            with ServeClient(server.host, server.port) as client:
                assert client.count() == 4  # the rejected batch never ran
                assert client.stats()["epochs"]["batches_rejected"] == 1
        finally:
            server.stop()
            session.close()


class TestLifecycle:
    def test_shutdown_via_client(self):
        session = _session()
        server = SessionServer(session).start_background()
        with ServeClient(server.host, server.port) as client:
            assert client.shutdown() == {"shutting_down": True}
        server.wait(timeout=60)
        assert server.manager.closed
        session.close()

    def test_double_start_raises(self, server):
        with pytest.raises(ServeError):
            server.start_background()

    def test_stop_is_graceful_and_idempotent(self):
        session = _session()
        server = SessionServer(session).start_background()
        server.stop()
        server.stop()
        assert server.manager.closed
        session.close()
