"""Unit tests for the dispatch API :mod:`repro.core.api`."""

import pytest

from repro.core import local_sensitivity, most_sensitive_tuples
from repro.engine import Database, Relation
from repro.query import parse_query
from repro.session import prepare
from repro.exceptions import MechanismConfigError


class TestDispatch:
    def test_auto_picks_path_for_path_queries(self, fig3_query, fig3_db):
        assert local_sensitivity(fig3_query, fig3_db).method == "path"

    def test_auto_picks_tsens_for_trees(self, fig1_query, fig1_db):
        assert local_sensitivity(fig1_query, fig1_db).method == "tsens"

    def test_auto_handles_cyclic(self, triangle_query, triangle_db):
        result = local_sensitivity(triangle_query, triangle_db)
        assert result.method == "tsens"
        assert result.local_sensitivity > 0

    def test_explicit_naive(self, fig1_query, fig1_db):
        assert (
            local_sensitivity(fig1_query, fig1_db, method="naive").method
            == "naive"
        )

    def test_explicit_path_on_non_path_raises(self, fig1_query, fig1_db):
        from repro.exceptions import QueryStructureError

        with pytest.raises(QueryStructureError):
            local_sensitivity(fig1_query, fig1_db, method="path")

    def test_top_k_route(self, fig3_query, fig3_db):
        result = prepare(fig3_query, fig3_db).top_k(2)
        assert result.method == "tsens-top2"

    def test_unknown_method(self, fig1_query, fig1_db):
        with pytest.raises(MechanismConfigError):
            local_sensitivity(fig1_query, fig1_db, method="magic")

    def test_all_methods_agree(self, fig3_query, fig3_db):
        values = {
            local_sensitivity(fig3_query, fig3_db, method=m).local_sensitivity
            for m in ("auto", "path", "tsens", "naive")
        }
        assert len(values) == 1

    def test_tree_override_disables_path_shortcut(self, fig3_query, fig3_db):
        from repro.query import gyo_join_tree

        tree = gyo_join_tree(fig3_query)
        result = local_sensitivity(fig3_query, fig3_db, tree=tree)
        assert result.method == "tsens"
        assert (
            result.local_sensitivity
            == local_sensitivity(fig3_query, fig3_db).local_sensitivity
        )


class TestMostSensitiveTuples:
    def test_per_relation_report(self, fig1_query, fig1_db):
        tuples = most_sensitive_tuples(fig1_query, fig1_db)
        assert set(tuples) == set(fig1_query.relation_names)
        assert tuples["R1"].sensitivity == 4

    def test_skip_relations(self, fig1_query, fig1_db):
        tuples = most_sensitive_tuples(
            fig1_query, fig1_db, skip_relations=("R1",)
        )
        assert tuples["R1"].sensitivity == 1
