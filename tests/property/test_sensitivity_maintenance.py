"""Maintained sensitivity state == recompute-from-scratch, under streams.

PR 4 pinned that a session's *counts* survive committed updates; the
maintained join-state layer extends that to the whole TSens pipeline —
topjoins and multiplicity tables are folded under updates, and
sensitivity reads refresh from the maintained state instead of
rebuilding.  The contract tested here:

* After a random insert/delete stream *interleaved with count and
  sensitivity probes* (the probes matter: they materialise topjoins and
  tables mid-stream, so later updates must fold deltas into them),
  ``sensitivity()``, ``most_sensitive()`` and ``top_k()`` on the
  maintained session equal a **fresh** session prepared on the mutated
  database — same local sensitivity, same per-relation witnesses and
  assignments, same multiplicity-table entries.
* This holds on both execution backends, for the ``tsens`` and ``path``
  methods, across acyclic/path/cyclic(GHD)/disconnected query shapes and
  selection predicates.
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
from repro.engine import Database, Relation
from repro.query import parse_predicate, parse_query

seeds = st.integers(min_value=0, max_value=10_000)

BACKENDS = ("python", "columnar")


def _assert_same_result(maintained, fresh, query):
    assert maintained.method == fresh.method
    assert maintained.local_sensitivity == fresh.local_sensitivity
    for relation in query.relation_names:
        a = maintained.per_relation[relation]
        b = fresh.per_relation[relation]
        assert a.sensitivity == b.sensitivity, relation
        assert dict(a.assignment) == dict(b.assignment), relation
    if fresh.witness is None:
        assert maintained.witness is None
    else:
        assert maintained.witness is not None
        assert maintained.witness.sensitivity == fresh.witness.sensitivity


def _assert_same_tables(maintained, fresh, query):
    """Entry-wise multiplicity-table equality (the truncation mechanism
    reads arbitrary entries, not just the argmax)."""
    assert set(maintained.tables) == set(fresh.tables)
    for relation in maintained.tables:
        a = maintained.tables[relation].dense()
        b = fresh.tables[relation].dense()
        for row in set(a) | set(b):
            assert a.multiplicity(row) == b.multiplicity(row), (relation, row)


def _probe(session, query, rng, methods=("tsens",), with_top_k=True):
    """A mid-stream read mix: materialises/refreshes maintained state."""
    session.count()
    for method in methods:
        session.sensitivity(method=method)
    session.most_sensitive()
    if with_top_k:
        session.top_k(1 + int(rng.integers(0, 3)))


@pytest.mark.parametrize("backend", BACKENDS)
class TestMaintainedEqualsFresh:
    @given(seeds, st.integers(min_value=0, max_value=18))
    @settings(max_examples=20, deadline=None)
    def test_acyclic_interleaved_stream(self, backend, seed, n_updates):
        rng = np.random.default_rng(seed)
        # Up to 5 atoms: deep enough that a sibling-staged topjoin can
        # own a subtree, composing the sideways and downward fan-outs.
        query = random_acyclic_query(rng, num_atoms=1 + int(rng.integers(0, 5)))
        db = random_database(query, rng, backend=backend)
        session = prepare(query, db)
        _probe(session, query, rng)  # materialise state before the stream
        stream = random_update_stream(query, db, rng, n_updates)
        for index, (op, relation, row) in enumerate(stream):
            if op == "insert":
                session.insert(relation, row)
            else:
                session.delete(relation, row)
            if index % 3 == 0:
                _probe(session, query, rng)
        fresh = prepare(query, session.db)
        assert session.count() == fresh.count()
        maintained = session.sensitivity(method="tsens")
        recomputed = fresh.sensitivity(method="tsens")
        _assert_same_result(maintained, recomputed, query)
        _assert_same_tables(maintained, recomputed, query)
        assert dict(session.most_sensitive()) == dict(fresh.most_sensitive())
        k = 1 + int(rng.integers(0, 3))
        _assert_same_result(session.top_k(k), fresh.top_k(k), query)

    @given(seeds, st.integers(min_value=1, max_value=12))
    @settings(max_examples=15, deadline=None)
    def test_path_methods(self, backend, seed, n_updates):
        rng = np.random.default_rng(seed)
        query = random_path_query(rng, length=1 + int(rng.integers(0, 3)))
        db = random_database(query, rng, backend=backend)
        session = prepare(query, db)
        _probe(session, query, rng, methods=("path", "tsens"))
        stream = random_update_stream(query, db, rng, n_updates)
        for index, (op, relation, row) in enumerate(stream):
            if op == "insert":
                session.insert(relation, row)
            else:
                session.delete(relation, row)
            if index % 2 == 0:
                _probe(session, query, rng, methods=("path", "tsens"))
        fresh = prepare(query, session.db)
        for method in ("path", "tsens"):
            _assert_same_result(
                session.sensitivity(method=method),
                fresh.sensitivity(method=method),
                query,
            )

    @given(seeds, st.integers(min_value=1, max_value=10))
    @settings(max_examples=10, deadline=None)
    def test_cyclic_ghd_stream(self, backend, seed, n_updates):
        rng = np.random.default_rng(seed)
        query = parse_query("R1(A,B), R2(B,C), R3(C,A)")
        db = random_database(query, rng, domain_size=3, max_rows=5, backend=backend)
        session = prepare(query, db)
        _probe(session, query, rng)
        stream = random_update_stream(query, db, rng, n_updates)
        for index, (op, relation, row) in enumerate(stream):
            if op == "insert":
                session.insert(relation, row)
            else:
                session.delete(relation, row)
            if index % 2 == 0:
                _probe(session, query, rng)
        fresh = prepare(query, session.db)
        maintained = session.sensitivity()
        recomputed = fresh.sensitivity()
        _assert_same_result(maintained, recomputed, query)
        _assert_same_tables(maintained, recomputed, query)
        k = 1 + int(rng.integers(0, 3))
        _assert_same_result(session.top_k(k), fresh.top_k(k), query)

    @given(seeds, st.integers(min_value=1, max_value=10))
    @settings(max_examples=10, deadline=None)
    def test_disconnected_multipliers_track_updates(self, backend, seed, n_updates):
        """Cross-component multipliers come off maintained root botjoins,
        so updates in one component rescale every other component's
        sensitivities."""
        rng = np.random.default_rng(seed)
        query = parse_query("R(A,B), S(B,C), T(X,Y)")
        db = random_database(query, rng, domain_size=4, max_rows=6, backend=backend)
        session = prepare(query, db)
        _probe(session, query, rng, with_top_k=False)
        stream = random_update_stream(query, db, rng, n_updates)
        for op, relation, row in stream:
            if op == "insert":
                session.insert(relation, row)
            else:
                session.delete(relation, row)
            fresh = prepare(query, session.db)
            _assert_same_result(session.sensitivity(), fresh.sensitivity(), query)

    @given(seeds, st.integers(min_value=1, max_value=10))
    @settings(max_examples=10, deadline=None)
    def test_selection_stream(self, backend, seed, n_updates):
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
        _probe(session, filtered, rng)
        stream = random_update_stream(filtered, db, rng, n_updates)
        for op, relation, row in stream:
            if op == "insert":
                session.insert(relation, row)
            else:
                session.delete(relation, row)
        fresh = prepare(filtered, session.db)
        _assert_same_result(session.sensitivity(), fresh.sensitivity(), filtered)
        k = 1 + int(rng.integers(0, 3))
        _assert_same_result(session.top_k(k), fresh.top_k(k), filtered)


@pytest.mark.parametrize("backend", BACKENDS)
class TestWitnessDomainDependencies:
    """Witness extrapolation reads ``representative_domain``, which
    intersects active domains across *all* database relations sharing a
    base column name — so an update can move a witness whose own table
    never moved, and a read after it must match a fresh session
    (regression tests; the random generators above name columns after
    query variables and cannot produce the cross-relation aliasing)."""

    def test_cross_component_domain_shift(self, backend):
        # R and S live in different query components but share base
        # column names, so deleting S's smallest 'a' value changes R's
        # extrapolated witness assignment.
        query = parse_query("Q(X,Y,Z,W) :- R(X,Y), S(Z,W)")
        db = Database(
            {
                "R": Relation(["a", "b"], [(5, 10), (6, 11)]),
                "S": Relation(["a", "b"], [(5, 10), (6, 11)]),
            },
            backend=backend,
        )
        session = prepare(query, db)
        session.most_sensitive()  # read before the update
        session.delete("S", (5, 10))
        fresh = prepare(query, session.db)
        maintained = session.most_sensitive()
        recomputed = fresh.most_sensitive()
        for relation in query.relation_names:
            assert dict(maintained[relation].assignment) == dict(
                recomputed[relation].assignment
            ), relation
            assert (
                maintained[relation].sensitivity
                == recomputed[relation].sensitivity
            )

    def test_same_component_dead_delta_domain_shift(self, backend):
        # The update's join delta dies immediately (value joins nothing),
        # so no table moves — but S's base column 'a' backs R's exclusive
        # variable X, so R's extrapolated witness must still refresh.
        query = parse_query("Q(X,Y,Z) :- R(X,Y), S(Y,Z)")
        db = Database(
            {
                "R": Relation(["a", "b"], [(5, 1), (6, 1)]),
                "S": Relation(["b", "a"], [(1, 5), (1, 6)]),
            },
            backend=backend,
        )
        session = prepare(query, db)
        session.most_sensitive()
        session.insert("S", (99, 4))  # b=99 joins nothing; 'a' gains 4
        fresh = prepare(query, session.db)
        maintained = session.most_sensitive()
        recomputed = fresh.most_sensitive()
        for relation in query.relation_names:
            assert dict(maintained[relation].assignment) == dict(
                recomputed[relation].assignment
            ), relation

    def test_selection_filtered_row_still_shifts_domains(self, backend):
        # A filtered row never touches the join state at all, but it does
        # land in the database whose domains feed extrapolation.
        query = parse_query("Q(X,Y,Z,W) :- R(X,Y), S(Z,W)").with_selection(
            "S", parse_predicate("Z != 4")
        )
        db = Database(
            {
                "R": Relation(["a", "b"], [(5, 10), (6, 11)]),
                "S": Relation(["a", "b"], [(5, 10), (6, 11)]),
            },
            backend=backend,
        )
        session = prepare(query, db)
        session.most_sensitive()
        session.insert("S", (4, 12))  # filtered by Z != 4; 'a' gains 4
        fresh = prepare(query, session.db)
        maintained = session.most_sensitive()
        recomputed = fresh.most_sensitive()
        for relation in query.relation_names:
            assert dict(maintained[relation].assignment) == dict(
                recomputed[relation].assignment
            ), relation


@pytest.mark.parametrize("backend", BACKENDS)
class TestSharedStateAcrossConfigs:
    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_skip_relations_share_tables(self, backend, seed):
        """`sensitivity(skip_relations=...)` and `most_sensitive()` read
        the same maintained tables: only the witness/skip bookkeeping
        differs per cache key, and results match the one-shot API."""
        from repro import local_sensitivity

        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=3)
        db = random_database(query, rng, backend=backend)
        session = prepare(query, db)
        skip = (query.relation_names[int(rng.integers(0, 3))],)
        full = session.sensitivity(method="tsens")
        partial = session.sensitivity(method="tsens", skip_relations=skip)
        _assert_same_result(
            full, local_sensitivity(query, db, method="tsens"), query
        )
        _assert_same_result(
            partial,
            local_sensitivity(query, db, method="tsens", skip_relations=skip),
            query,
        )
        # The shared maintained tables are literally the same objects.
        for relation in query.relation_names:
            if relation not in skip:
                assert full.tables[relation] is partial.tables[relation]

    @given(seeds, st.integers(min_value=1, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_reads_in_any_order_equal_fresh_reads(self, backend, seed, n_updates):
        """Between updates, every read configuration, in a drawn order,
        equals a fresh session's read of the same configuration: no read
        answers from what an earlier read of another one left behind."""
        rng = np.random.default_rng(seed)
        query = random_path_query(rng, length=1 + int(rng.integers(0, 3)))
        db = random_database(query, rng, backend=backend)
        first = query.relation_names[0]
        reads = [
            lambda s: s.sensitivity(method="tsens"),
            lambda s: s.sensitivity(method="path"),
            lambda s: s.sensitivity(skip_relations=(first,)),
            lambda s: s.most_sensitive(),
        ]
        session = prepare(query, db)
        stream = random_update_stream(query, db, rng, n_updates)
        for update in stream + [None]:
            for index in rng.permutation(len(reads)):
                read = reads[index]
                maintained = read(session)
                recomputed = read(prepare(query, session.db))
                if isinstance(maintained, dict):
                    assert dict(maintained) == dict(recomputed)
                else:
                    _assert_same_result(maintained, recomputed, query)
            if update is not None:
                session.apply([update])

    @given(seeds, st.integers(min_value=1, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_explain_reflects_maintained_state(self, backend, seed, n_updates):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=1 + int(rng.integers(0, 3)))
        db = random_database(query, rng, backend=backend)
        session = prepare(query, db)
        session.explain()  # materialise, then fold updates into it
        stream = random_update_stream(query, db, rng, n_updates)
        for op, relation, row in stream:
            if op == "insert":
                session.insert(relation, row)
            else:
                session.delete(relation, row)
        maintained = session.explain()
        fresh = prepare(query, session.db).explain()
        assert maintained.local_sensitivity == fresh.local_sensitivity
        assert maintained.tree_width == fresh.tree_width
        assert [
            (n.node_id, n.materialised_rows, n.botjoin_rows, n.topjoin_rows)
            for n in maintained.nodes
        ] == [
            (n.node_id, n.materialised_rows, n.botjoin_rows, n.topjoin_rows)
            for n in fresh.nodes
        ]
        assert [
            (t.relation, t.factor_sizes, t.max_sensitivity)
            for t in maintained.tables
        ] == [
            (t.relation, t.factor_sizes, t.max_sensitivity)
            for t in fresh.tables
        ]
