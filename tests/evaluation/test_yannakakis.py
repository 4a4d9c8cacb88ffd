"""Unit tests for :mod:`repro.evaluation.yannakakis`."""

import pytest

from repro.engine import Database, Relation
from repro.engine.operators import join_all
from repro.evaluation import (
    bind,
    compute_botjoins,
    count_bound,
    count_query,
    evaluate_bound,
    evaluate_query,
    naive_join,
    semijoin_reduce,
)
from repro.query import auto_decompose, gyo_join_tree, parse_query


class TestBinding:
    def test_bind_materialises_nodes(self, fig1_query, fig1_db):
        """Every node is bound as its (non-empty) atoms, nothing else."""
        tree = gyo_join_tree(fig1_query)
        bound = bind(fig1_query, tree, fig1_db)
        for node_id in tree.node_ids:
            atoms = bound.atoms(node_id)
            assert atoms == [
                bound.atom_relation(rel) for rel in tree.node(node_id).relations
            ]
            assert all(not atom.is_empty() for atom in atoms)

    def test_bind_ghd_node_joins_atoms(self, triangle_query, triangle_db):
        """A wide GHD node keeps one relation per atom; their join spans
        the node's attributes."""
        tree = auto_decompose(triangle_query)
        bound = bind(triangle_query, tree, triangle_db)
        wide = [nid for nid in tree.node_ids if len(tree.node(nid).relations) == 2]
        assert wide
        atoms = bound.atoms(wide[0])
        assert len(atoms) == 2
        assert set(join_all(atoms).attributes) == {"A", "B", "C"}

    def test_atomless_leaf_node_is_a_schema_error(self):
        """A GHD node with no atoms has no parts to join: the pass raises
        the engine's typed error rather than an index error."""
        from repro.exceptions import SchemaError
        from repro.query.ghd import ghd_from_groups

        query = parse_query("R(A,B), S(B,C)")
        tree = ghd_from_groups(query, {"g": ["R", "S"], "e": []}, "g", {"e": "g"})
        db = Database(
            {"R": Relation(["A", "B"], [(1, 2)]), "S": Relation(["B", "C"], [(2, 3)])}
        )
        with pytest.raises(SchemaError):
            count_query(query, db, tree=tree)

    def test_atom_relations_available(self, fig1_query, fig1_db):
        tree = gyo_join_tree(fig1_query)
        bound = bind(fig1_query, tree, fig1_db)
        assert bound.atom_relation("R3").attributes == ("A", "E")


class TestCounting:
    def test_fig1_count_is_one(self, fig1_query, fig1_db):
        assert count_query(fig1_query, fig1_db) == 1

    def test_count_matches_naive_join(self, fig3_query, fig3_db):
        expected = naive_join(fig3_query, fig3_db).total_count()
        assert count_query(fig3_query, fig3_db) == expected

    def test_count_bound_equals_top_level(self, fig1_query, fig1_db):
        tree = gyo_join_tree(fig1_query)
        assert count_bound(bind(fig1_query, tree, fig1_db)) == 1

    def test_botjoin_root_holds_total(self, fig3_query, fig3_db):
        tree = gyo_join_tree(fig3_query)
        bound = bind(fig3_query, tree, fig3_db)
        botjoins = compute_botjoins(bound)
        assert botjoins[tree.root].total_count() == count_query(
            fig3_query, fig3_db
        )

    def test_cyclic_count_via_ghd(self, triangle_query, triangle_db):
        expected = naive_join(triangle_query, triangle_db).total_count()
        assert count_query(triangle_query, triangle_db) == expected

    def test_empty_relation_gives_zero(self, fig1_query, fig1_db):
        empty = fig1_db.with_relation("R3", Relation(["A", "E"], ()))
        assert count_query(fig1_query, empty) == 0

    def test_disconnected_count_multiplies(self):
        q = parse_query("R(A), S(B)")
        db = Database(
            {"R": Relation(["A"], [(1,), (2,)]), "S": Relation(["B"], [(5,)] * 3)}
        )
        assert count_query(q, db) == 6


class TestEvaluation:
    def test_fig1_output(self, fig1_query, fig1_db):
        out = evaluate_query(fig1_query, fig1_db)
        assert out.total_count() == 1
        (row, cnt), = out.items()
        assert cnt == 1
        assignment = dict(zip(out.attributes, row))
        assert assignment == {
            "A": "a1", "B": "b1", "C": "c1", "D": "d1", "E": "e1", "F": "f1"
        }

    def test_matches_naive_join_as_bag(self, fig3_query, fig3_db):
        fast = evaluate_query(fig3_query, fig3_db)
        slow = naive_join(fig3_query, fig3_db)
        assert fast.same_bag(slow)

    def test_cyclic_matches_naive(self, triangle_query, triangle_db):
        fast = evaluate_query(triangle_query, triangle_db)
        slow = naive_join(triangle_query, triangle_db)
        assert fast.same_bag(slow)

    def test_semijoin_reduce_preserves_result(self, fig3_query, fig3_db):
        tree = gyo_join_tree(fig3_query)
        bound = bind(fig3_query, tree, fig3_db)
        reduced = semijoin_reduce(bound)
        # Reduction never increases a node's bag of its atoms.
        for node_id in tree.node_ids:
            assert (
                reduced[node_id].total_count()
                <= join_all(bound.atoms(node_id)).total_count()
            )
        assert evaluate_bound(bound).same_bag(naive_join(fig3_query, fig3_db))

    def test_disconnected_evaluation_cross_product(self):
        q = parse_query("R(A), S(B)")
        db = Database(
            {"R": Relation(["A"], [(1,)]), "S": Relation(["B"], [(5,), (6,)])}
        )
        out = evaluate_query(q, db)
        assert out.total_count() == 2
        assert set(out.attributes) == {"A", "B"}


class TestSelections:
    def test_selection_filters_before_join(self, fig3_query, fig3_db):
        filtered = fig3_query.with_selection("R2", lambda row: row["C"] == "c1")
        full = count_query(fig3_query, fig3_db)
        partial = count_query(filtered, fig3_db)
        assert 0 < partial < full
