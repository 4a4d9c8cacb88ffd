"""Unit tests for the TSens explanation/profiling module."""

import pytest

from repro import prepare
from repro.core import local_sensitivity, naive_local_sensitivity
from repro.engine import Database, Relation
from repro.query import parse_predicate, parse_query
from repro.exceptions import QueryStructureError


class TestExplain:
    def test_local_sensitivity_matches(self, fig1_query, fig1_db):
        report = prepare(fig1_query, fig1_db).explain()
        expected = local_sensitivity(fig1_query, fig1_db).local_sensitivity
        assert report.local_sensitivity == expected

    def test_node_profiles_cover_tree(self, fig1_query, fig1_db):
        report = prepare(fig1_query, fig1_db).explain()
        assert {n.node_id for n in report.nodes} == {"R1", "R2", "R3", "R4"}
        roots = [n for n in report.nodes if n.topjoin_rows is None]
        assert len(roots) == 1

    def test_table_profiles(self, fig3_query, fig3_db):
        report = prepare(fig3_query, fig3_db).explain()
        assert len(report.tables) == 4
        # Path query: every multiplicity table stays factored into two
        # boundary tables (incoming × outgoing) — the doubly-acyclic win.
        for table in report.tables:
            assert len(table.factor_sizes) >= 1
            assert table.dense_size_if_materialised >= max(table.factor_sizes)

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_path_query_profiles_its_cached_read(self, fig3_query, fig3_db, backend):
        """A path query's default read is Algorithm 1's, off the same
        tables as TSens, so ``explain`` reuses it: two cached results
        (the read and the profile), not three, and the profile a fresh
        session takes from a ``tsens`` read."""
        from dataclasses import replace

        from repro.core.explain import explain as profile

        db = fig3_db.with_backend(backend)
        session = prepare(fig3_query, db)
        assert session.sensitivity().method == "path"
        report = session.explain()
        assert session.stats()["cached_results"] == 2
        fresh = prepare(fig3_query, db)
        (state,) = fresh._states()
        expected = profile(fig3_query, state, fresh.sensitivity(method="tsens"))
        assert replace(report, seconds=0.0) == replace(expected, seconds=0.0)
        assert [t.relation for t in report.tables] == list(fig3_query.relation_names)

    def test_skip_relations(self, fig1_query, fig1_db):
        report = prepare(fig1_query, fig1_db).explain(skip_relations=("R1",))
        assert "R1" not in [t.relation for t in report.tables]

    def test_largest_intermediate(self, fig1_query, fig1_db):
        report = prepare(fig1_query, fig1_db).explain()
        assert report.largest_intermediate() >= 1

    def test_str_rendering(self, fig1_query, fig1_db):
        text = str(prepare(fig1_query, fig1_db).explain())
        assert "TSens explanation" in text
        assert "multiplicity tables:" in text
        assert "LS=4" in text

    def test_ghd_width_reported(self, triangle_query, triangle_db):
        report = prepare(triangle_query, triangle_db).explain()
        assert report.tree_width == 2
        assert report.query_class == "cyclic"

    def test_disconnected_rejected(self):
        q = parse_query("R(A), S(B)")
        db = Database(
            {"R": Relation(["A"], [(1,)]), "S": Relation(["B"], [(2,)])}
        )
        with pytest.raises(QueryStructureError):
            prepare(q, db).explain()

    def test_timing_recorded(self, fig1_query, fig1_db):
        assert prepare(fig1_query, fig1_db).explain().seconds > 0


@pytest.mark.parametrize("backend", ["python", "columnar"])
def test_profile_is_the_reads_under_a_selection(backend):
    """The profile's LS and per-table maxima are the TSens read's, so a
    selection counts in them as it does in the read and in naive's."""
    query = parse_query("R(A,B), S(B,C)").with_selection(
        "S", parse_predicate("C > 4")
    )
    db = Database(
        {
            "R": Relation(["A", "B"], [(1, 2), (3, 2), (5, 2)]),
            "S": Relation(["B", "C"], [(2, 4), (9, 5)]),
        }
    )
    session = prepare(query, db, backend=backend)
    report = session.explain()
    read = session.sensitivity(method="tsens")
    naive = naive_local_sensitivity(query, db)
    assert report.local_sensitivity == read.local_sensitivity
    assert report.local_sensitivity == naive.local_sensitivity == 1
    assert {t.relation: t.max_sensitivity for t in report.tables} == {
        name: witness.sensitivity for name, witness in read.per_relation.items()
    }
