"""Batched apply == one-at-a-time == fresh session, under compaction.

:meth:`PreparedQuery.apply` compacts a stream into per-relation signed
delta relations and folds them into every maintained structure in one
vectorized pass per relation.  Three observable contracts pin that down:

* **Stream equivalence** — one ``apply(stream)`` call commits exactly the
  same session state as replaying the stream element-by-element through
  :meth:`insert`/:meth:`delete`, and both match a session prepared fresh
  on the final database.  Compaction (duplicate inserts coalescing,
  insert-then-delete pairs cancelling, absent-row deletes clamping to
  no-ops) is an execution strategy, never a semantic change — in
  particular :attr:`updates_applied` advances by the raw stream length.
* **Shape coverage** — the contract holds for acyclic queries, cyclic
  (GHD) queries, disconnected queries and selection-filtered atoms, on
  both execution backends.
* **Maintained path reads** — ``method="path"`` reads, which take
  Algorithm 1's sweeps and tables from the session's maintained
  :class:`~repro.evaluation.joinstate.JoinState`, equal fresh
  ``ls_path_join`` runs after every batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import prepare
from repro.datasets import (
    random_acyclic_query,
    random_database,
    random_path_query,
    random_update_stream,
)
from repro.query import parse_predicate, parse_query

seeds = st.integers(min_value=0, max_value=10_000)

BACKENDS = ("python", "columnar")


def _compacting_stream(query, db, rng, n_updates):
    """A stream dense in compactable patterns, in shuffled order:
    duplicate inserts, insert-then-delete pairs of the same tuple, and
    deletes of rows that may not exist (clamped no-ops)."""
    stream = list(random_update_stream(query, db, rng, n_updates))
    extra = []
    for op, relation, row in stream:
        roll = rng.random()
        if roll < 0.35:
            extra.append(("insert", relation, row))
            extra.append(("delete", relation, row))
        elif roll < 0.55:
            extra.append((op, relation, row))
        elif roll < 0.70:
            extra.append(("delete", relation, row))
    stream.extend(extra)
    return [stream[i] for i in rng.permutation(len(stream))]


def _assert_sessions_match(batched, sequential, fresh, query):
    assert batched.count() == sequential.count() == fresh.count()
    for relation in query.relation_names:
        bag = batched.db.relation(relation)
        assert bag.same_bag(sequential.db.relation(relation))
        assert bag.same_bag(fresh.db.relation(relation))
    b = batched.sensitivity()
    s = sequential.sensitivity()
    f = fresh.sensitivity()
    assert b.local_sensitivity == s.local_sensitivity == f.local_sensitivity
    for relation in query.relation_names:
        assert (
            b.per_relation[relation].sensitivity
            == s.per_relation[relation].sensitivity
            == f.per_relation[relation].sensitivity
        )


def _run_contract(query, db, stream):
    batched = prepare(query, db)
    sequential = prepare(query, db)
    batched.apply(stream)
    assert batched.updates_applied == len(stream)
    for op, relation, row in stream:
        if op == "insert":
            sequential.insert(relation, row)
        else:
            sequential.delete(relation, row)
    fresh = prepare(query, batched.db)
    _assert_sessions_match(batched, sequential, fresh, query)


@pytest.mark.parametrize("backend", BACKENDS)
class TestBatchedEqualsSequential:
    @given(seeds, st.integers(min_value=1, max_value=15))
    @settings(max_examples=15, deadline=None)
    def test_acyclic(self, backend, seed, n_updates):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=1 + int(rng.integers(0, 3)))
        db = random_database(query, rng, backend=backend)
        _run_contract(query, db, _compacting_stream(query, db, rng, n_updates))

    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_cyclic_ghd(self, backend, seed):
        rng = np.random.default_rng(seed)
        query = parse_query("R1(A,B), R2(B,C), R3(C,A)")
        db = random_database(query, rng, domain_size=3, max_rows=5, backend=backend)
        _run_contract(query, db, _compacting_stream(query, db, rng, 8))

    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_disconnected(self, backend, seed):
        rng = np.random.default_rng(seed)
        query = parse_query("Q(A,B) :- R(A), S(B)")
        db = random_database(query, rng, backend=backend)
        _run_contract(query, db, _compacting_stream(query, db, rng, 10))

    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_with_selection(self, backend, seed):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=3)
        target = query.relation_names[int(rng.integers(0, 3))]
        first_var = query.atom(target).variables[0]
        filtered = query.with_selection(
            target, parse_predicate(f"{first_var} != {int(rng.integers(0, 3))}")
        )
        db = random_database(query, rng, backend=backend)
        _run_contract(
            filtered, db, _compacting_stream(filtered, db, rng, 10)
        )

    @given(seeds, st.integers(min_value=1, max_value=4))
    @settings(max_examples=8, deadline=None)
    def test_maintained_path_reads(self, backend, seed, length):
        rng = np.random.default_rng(seed)
        query = random_path_query(rng, length=length)
        db = random_database(query, rng, backend=backend)
        session = prepare(query, db)
        # First read builds the tables; each batch then folds into them.
        before = session.sensitivity(method="path")
        assert before.local_sensitivity >= 0
        for _ in range(3):
            stream = _compacting_stream(query, session.db, rng, 5)
            session.apply(stream)
            maintained = session.sensitivity(method="path")
            fresh = prepare(query, session.db).sensitivity(method="path")
            assert maintained.local_sensitivity == fresh.local_sensitivity
            for relation in query.relation_names:
                assert (
                    maintained.per_relation[relation].sensitivity
                    == fresh.per_relation[relation].sensitivity
                )


class TestBatchAtomicity:
    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_failed_batch_changes_nothing(self, seed):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=2)
        db = random_database(query, rng)
        session = prepare(query, db)
        before_count = session.count()
        before_ls = session.sensitivity().local_sensitivity
        stream = list(random_update_stream(query, db, rng, 5))
        stream.append(("upsert", query.relation_names[0], stream[0][2]))
        from repro.exceptions import SessionError

        with pytest.raises(SessionError):
            session.apply(stream)
        assert session.updates_applied == 0
        assert session.count() == before_count
        assert session.sensitivity().local_sensitivity == before_ls
        for relation in query.relation_names:
            assert session.db.relation(relation).same_bag(db.relation(relation))
