"""Unit tests for the PrivSQL-style baseline."""

import numpy as np
import pytest

from repro.dp import affected_relations, run_privsql
from repro.dp.privsql import _truncate_by_frequency
from repro.engine import Database, ForeignKey, Relation
from repro.query import parse_query


@pytest.fixture
def keyed_db():
    """Customer -> Orders chain with one heavy customer."""
    customers = [(ck,) for ck in range(5)]
    orders = [(0, ok) for ok in range(10)] + [(ck, 100 + ck) for ck in range(1, 5)]
    return Database(
        {
            "C": Relation(["CK"], customers),
            "O": Relation(["CK", "OK"], orders),
        },
        primary_keys={"C": ("CK",)},
        foreign_keys=[ForeignKey("O", ("CK",), "C", ("CK",))],
    )


@pytest.fixture
def query():
    return parse_query("Q(CK,OK) :- C(CK), O(CK,OK)")


class TestPolicy:
    def test_affected_relations_bfs(self, keyed_db):
        edges = affected_relations(keyed_db, "C")
        assert [fk.child for fk in edges] == ["O"]

    def test_affected_relations_chain(self):
        db = Database(
            {
                "A": Relation(["K"], [(1,)]),
                "B": Relation(["K", "L"], [(1, 2)]),
                "C": Relation(["L", "M"], [(2, 3)]),
            },
            foreign_keys=[
                ForeignKey("B", ("K",), "A", ("K",)),
                ForeignKey("C", ("L",), "B", ("L",)),
            ],
        )
        edges = affected_relations(db, "A")
        assert [fk.child for fk in edges] == ["B", "C"]

    def test_no_foreign_keys_no_truncation(self, query):
        db = Database(
            {
                "C": Relation(["CK"], [(1,)]),
                "O": Relation(["CK", "OK"], [(1, 2)]),
            }
        )
        out = run_privsql(
            query, db, primary="C", epsilon=1.0, rng=np.random.default_rng(0)
        )
        assert out.thresholds == {}
        assert out.bias == 0


class TestFrequencyTruncation:
    def test_drops_whole_groups(self):
        rel = Relation(["CK", "OK"], [(0, 1), (0, 2), (0, 3), (1, 9)])
        out = _truncate_by_frequency(rel, ("CK",), threshold=2)
        assert dict(out.items()) == {(1, 9): 1}

    def test_threshold_at_max_keeps_all(self):
        rel = Relation(["CK", "OK"], [(0, 1), (0, 2), (1, 9)])
        assert _truncate_by_frequency(rel, ("CK",), 2).total_count() == 3


class TestMechanism:
    def test_outcome_fields(self, query, keyed_db):
        out = run_privsql(
            query, keyed_db, primary="C", epsilon=1.0,
            rng=np.random.default_rng(1),
        )
        assert out.true_count == 14
        assert out.global_sensitivity >= 1
        assert "O" in out.thresholds
        assert sum(out.ledger.values()) == pytest.approx(1.0)

    def test_deterministic_under_seed(self, query, keyed_db):
        a = run_privsql(
            query, keyed_db, primary="C", epsilon=1.0,
            rng=np.random.default_rng(3),
        )
        b = run_privsql(
            query, keyed_db, primary="C", epsilon=1.0,
            rng=np.random.default_rng(3),
        )
        assert a.answer == b.answer and a.thresholds == b.thresholds

    def test_clamps_negative(self, query, keyed_db):
        for seed in range(10):
            out = run_privsql(
                query, keyed_db, primary="C", epsilon=0.01,
                rng=np.random.default_rng(seed),
            )
            assert out.answer >= 0.0

    def test_large_epsilon_learns_max_frequency(self, query, keyed_db):
        out = run_privsql(
            query, keyed_db, primary="C", epsilon=200.0,
            rng=np.random.default_rng(4),
        )
        # The heavy customer has 10 orders; with negligible noise the SVT
        # stops at the first threshold where no group overflows.
        assert out.thresholds["O"] == 10
        assert out.bias == 0


@pytest.mark.parametrize("backend", ["python", "columnar"])
class TestCountsPerRelease:
    """A session release reuses the session's maintained count, and counts
    only the instance a foreign key leaving the primary truncated."""

    @staticmethod
    def _release(workload, base, monkeypatch):
        from repro.dp import privsql
        from repro.session import prepare

        calls = []
        real = privsql.count_query

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        db = workload.prepared(base)
        session = prepare(workload.query, db, tree=workload.tree)
        monkeypatch.setattr(privsql, "count_query", spy)
        outcome = session.release(
            1.0, mechanism="privsql", primary=workload.primary,
            rng=np.random.default_rng(0),
        )
        return outcome, len(calls), session.count()

    def test_untruncated_instance_counts_nothing(self, backend, tiny_facebook, monkeypatch):
        from repro.workloads.facebook_queries import triangle_workload

        outcome, calls, count = self._release(
            triangle_workload(), tiny_facebook.with_backend(backend), monkeypatch
        )
        assert calls == 0
        assert outcome.thresholds == {}
        assert outcome.true_count == outcome.truncated_count == count

    def test_truncated_instance_counts_once(self, backend, tiny_tpch, monkeypatch):
        from repro.workloads.tpch_queries import q1_workload

        outcome, calls, count = self._release(
            q1_workload(), tiny_tpch.with_backend(backend), monkeypatch
        )
        assert calls == 1
        assert outcome.thresholds
        assert outcome.true_count == count
