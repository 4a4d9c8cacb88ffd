"""Prepared sessions == one-shot calls == fresh sessions after updates.

Two contracts make the session API safe to build on:

* **Read equivalence** — every read on a :class:`~repro.session.PreparedQuery`
  (count, sensitivity under every method, top-k) returns exactly what the
  corresponding one-shot function returns on the session's database, for
  both execution backends.
* **Update equivalence** — after an arbitrary committed insert/delete
  stream, the session (whose caches were maintained by leaf-to-root delta
  folding, never rebuilt) is indistinguishable from a *fresh* session
  prepared on the mutated database: same counts, same sensitivities, same
  witnesses, same per-probe reeval deltas.

Hypothesis drives random acyclic/path/cyclic queries, random databases
and random update streams through both contracts.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import local_sensitivity, prepare
from repro.datasets import (
    random_acyclic_query,
    random_database,
    random_path_query,
    random_update_stream,
)
from repro.evaluation import count_query
from repro.query import parse_query

seeds = st.integers(min_value=0, max_value=10_000)

BACKENDS = ("python", "columnar")


def _assert_same_result(session_result, oneshot_result, query):
    assert session_result.method == oneshot_result.method
    assert session_result.local_sensitivity == oneshot_result.local_sensitivity
    for relation in query.relation_names:
        a = session_result.per_relation[relation]
        b = oneshot_result.per_relation[relation]
        assert a.sensitivity == b.sensitivity
        assert dict(a.assignment) == dict(b.assignment)
    if oneshot_result.witness is None:
        assert session_result.witness is None
    else:
        assert session_result.witness is not None
        assert (
            session_result.witness.sensitivity
            == oneshot_result.witness.sensitivity
        )


def _apply_stream(session, stream):
    for op, relation, row in stream:
        if op == "insert":
            session.insert(relation, row)
        else:
            session.delete(relation, row)


@pytest.mark.parametrize("backend", BACKENDS)
class TestPreparedMatchesOneShot:
    @given(seeds, st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_acyclic_all_methods(self, backend, seed, num_atoms):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=num_atoms)
        db = random_database(query, rng, backend=backend)
        session = prepare(query, db)
        assert session.count() == count_query(query, db)
        for method in ("auto", "tsens", "naive", "reeval"):
            _assert_same_result(
                session.sensitivity(method=method),
                local_sensitivity(query, db, method=method),
                query,
            )

    @given(seeds, st.integers(min_value=1, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_path_queries(self, backend, seed, length):
        rng = np.random.default_rng(seed)
        query = random_path_query(rng, length=length)
        db = random_database(query, rng, backend=backend)
        session = prepare(query, db)
        for method in ("auto", "path"):
            _assert_same_result(
                session.sensitivity(method=method),
                local_sensitivity(query, db, method=method),
                query,
            )

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_cyclic_ghd(self, backend, seed):
        rng = np.random.default_rng(seed)
        query = parse_query("R1(A,B), R2(B,C), R3(C,A)")
        db = random_database(query, rng, domain_size=3, max_rows=5, backend=backend)
        session = prepare(query, db)
        assert session.count() == count_query(query, db)
        _assert_same_result(
            session.sensitivity(), local_sensitivity(query, db), query
        )

    @given(seeds, st.integers(min_value=1, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_top_k_upper_bound_matches(self, backend, seed, k):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=3)
        db = random_database(query, rng, backend=backend)
        _assert_same_result(
            prepare(query, db).top_k(k),
            local_sensitivity(query, db, top_k=k),
            query,
        )


@pytest.mark.parametrize("backend", BACKENDS)
class TestSessionAfterUpdateStream:
    @given(seeds, st.integers(min_value=0, max_value=25))
    @settings(max_examples=20, deadline=None)
    def test_stream_equals_fresh_session(self, backend, seed, n_updates):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(
            rng, num_atoms=1 + int(rng.integers(0, 3))
        )
        db = random_database(query, rng, backend=backend)
        session = prepare(query, db)
        stream = random_update_stream(query, db, rng, n_updates)
        _apply_stream(session, stream)
        assert session.updates_applied == n_updates

        # The session's database snapshot equals the manual replay ...
        manual = db
        for op, relation, row in stream:
            manual = (
                manual.add_tuple(relation, row)
                if op == "insert"
                else manual.remove_tuple(relation, row)
            )
        for relation in query.relation_names:
            assert session.db.relation(relation).same_bag(
                manual.relation(relation)
            )

        # ... and every read off the maintained caches matches a session
        # rebuilt from scratch on that database.
        fresh = prepare(query, manual)
        assert session.count() == fresh.count()
        _assert_same_result(session.sensitivity(), fresh.sensitivity(), query)
        _assert_same_result(
            session.sensitivity(method="reeval"),
            fresh.sensitivity(method="reeval"),
            query,
        )

    @given(seeds, st.integers(min_value=1, max_value=20))
    @settings(max_examples=15, deadline=None)
    def test_batch_apply_equals_fresh_session(self, backend, seed, n_updates):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=2)
        db = random_database(query, rng, backend=backend)
        session = prepare(query, db)
        stream = random_update_stream(query, db, rng, n_updates)
        count = session.apply(stream)
        fresh = prepare(query, session.db)
        assert count == session.count() == fresh.count()
        _assert_same_result(session.sensitivity(), fresh.sensitivity(), query)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_stream_on_cyclic_query(self, backend, seed):
        rng = np.random.default_rng(seed)
        query = parse_query("R1(A,B), R2(B,C), R3(C,A)")
        db = random_database(query, rng, domain_size=3, max_rows=5, backend=backend)
        session = prepare(query, db)
        stream = random_update_stream(query, db, rng, 10)
        _apply_stream(session, stream)
        fresh = prepare(query, session.db)
        assert session.count() == fresh.count()
        _assert_same_result(session.sensitivity(), fresh.sensitivity(), query)

    @given(seeds, st.integers(min_value=1, max_value=12))
    @settings(max_examples=15, deadline=None)
    def test_interleaved_probes_and_commits(self, backend, seed, n_updates):
        """Probes *between* commits read topjoins that the first probe
        built and every later commit folded — every delta must still
        match a freshly built evaluator."""
        from repro.evaluation import IncrementalEvaluator

        rng = np.random.default_rng(seed)
        query = random_acyclic_query(
            rng, num_atoms=1 + int(rng.integers(0, 3))
        )
        db = random_database(query, rng, backend=backend)
        session = prepare(query, db)
        session.sensitivity(method="reeval")  # builds probe state up front
        stream = random_update_stream(query, db, rng, n_updates)
        for op, relation, row in stream:
            if op == "insert":
                session.insert(relation, row)
            else:
                session.delete(relation, row)
            probe_rel = query.relation_names[
                int(rng.integers(0, len(query.relation_names)))
            ]
            arity = query.atom(probe_rel).arity
            probes = [
                tuple(int(v) for v in rng.integers(0, 4, size=arity))
                for _ in range(3)
            ] + list(session.db.relation(probe_rel))[:3]
            fresh = IncrementalEvaluator(query, session.db)
            assert session.sensitivity(method="reeval").local_sensitivity == (
                prepare(query, session.db).sensitivity(method="reeval")
            ).local_sensitivity
            maintained = session._ensure_evaluator()
            assert maintained.base_count == fresh.base_count
            assert maintained.delta_batch(probe_rel, probes) == (
                fresh.delta_batch(probe_rel, probes)
            )

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_stream_with_selection(self, backend, seed):
        from repro.query import parse_predicate

        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=3)
        target = query.relation_names[int(rng.integers(0, 3))]
        pivot = int(rng.integers(0, 3))
        first_var = query.atom(target).variables[0]
        filtered = query.with_selection(
            target, parse_predicate(f"{first_var} != {pivot}")
        )
        db = random_database(query, rng, backend=backend)
        session = prepare(filtered, db)
        stream = random_update_stream(filtered, db, rng, 12)
        _apply_stream(session, stream)
        fresh = prepare(filtered, session.db)
        assert session.count() == fresh.count()
        _assert_same_result(session.sensitivity(), fresh.sensitivity(), filtered)
