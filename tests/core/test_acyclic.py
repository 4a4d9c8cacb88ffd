"""Unit tests for TSens (Algorithm 2) — :mod:`repro.core.acyclic`."""

import pytest

from repro.core import naive_local_sensitivity, tsens, tsens_connected
from repro.core.acyclic import compute_topjoins
from repro.engine import Database, Relation
from repro.evaluation import bind, compute_botjoins
from repro.query import auto_decompose, ghd_from_groups, gyo_join_tree, parse_query
from repro.exceptions import QueryStructureError


class TestPaperExample:
    """Example 2.1 / Figure 1: LS = 4 with witness (a2, b2, c1) in R1."""

    def test_local_sensitivity(self, fig1_query, fig1_db):
        result = tsens(fig1_query, fig1_db)
        assert result.local_sensitivity == 4

    def test_witness(self, fig1_query, fig1_db):
        result = tsens(fig1_query, fig1_db)
        assert result.witness.relation == "R1"
        assert dict(result.witness.assignment) == {
            "A": "a2", "B": "b2", "C": "c1"
        }

    def test_downward_sensitivity_of_existing_tuple(self, fig1_query, fig1_db):
        # Example 2.1: (a1, b1, c1) in R1 has sensitivity 1.
        result = tsens(fig1_query, fig1_db)
        delta = result.tuple_sensitivity(
            "R1", {"A": "a1", "B": "b1", "C": "c1"}
        )
        assert delta == 1

    def test_absent_tuple_sensitivity_zero(self, fig1_query, fig1_db):
        # (a2, b2, c1) is not in D so its downward sensitivity is 0 — but
        # the table stores max(up, down) = 4.  A combination absent from
        # the representative domain must be 0.
        result = tsens(fig1_query, fig1_db)
        assert result.tuple_sensitivity("R1", {"A": "zz", "B": "b1", "C": "?"}) == 0

    def test_agrees_with_naive(self, fig1_query, fig1_db):
        fast = tsens(fig1_query, fig1_db)
        slow = naive_local_sensitivity(fig1_query, fig1_db)
        assert fast.local_sensitivity == slow.local_sensitivity
        for relation in fig1_query.relation_names:
            assert (
                fast.per_relation[relation].sensitivity
                == slow.per_relation[relation].sensitivity
            )


class TestTopjoinsBotjoins:
    def test_topjoin_of_root_is_none(self, fig1_query, fig1_db):
        tree = gyo_join_tree(fig1_query)
        bound = bind(fig1_query, tree, fig1_db)
        botjoins = compute_botjoins(bound)
        topjoins = compute_topjoins(bound, botjoins)
        assert topjoins[tree.root] is None

    def test_topjoin_schema_is_shared_attrs(self, fig1_query, fig1_db):
        tree = gyo_join_tree(fig1_query)
        bound = bind(fig1_query, tree, fig1_db)
        botjoins = compute_botjoins(bound)
        topjoins = compute_topjoins(bound, botjoins)
        for node_id in tree.node_ids:
            if node_id == tree.root:
                continue
            expected = tree.shared_with_parent(node_id)
            assert set(topjoins[node_id].attributes) == set(expected)


class TestEdgeCases:
    def test_single_relation_ls_is_one(self):
        q = parse_query("R(A,B)")
        db = Database({"R": Relation(["A", "B"], [(1, 2), (3, 4)])})
        result = tsens(q, db)
        assert result.local_sensitivity == 1

    def test_empty_relation_insertion_counts(self):
        # NP-hardness flavour: R0 empty, the others join; LS > 0 comes
        # entirely from inserting into R0.
        q = parse_query("R0(A,B), R1(A,B)")
        db = Database(
            {
                "R0": Relation(["A", "B"], ()),
                "R1": Relation(["A", "B"], [(1, 2), (1, 2)]),
            }
        )
        result = tsens(q, db)
        assert result.local_sensitivity == 2
        assert result.witness.relation == "R0"
        assert dict(result.witness.assignment) == {"A": 1, "B": 2}

    def test_all_empty_ls_zero(self):
        q = parse_query("R(A,B), S(B,C)")
        db = Database(
            {"R": Relation(["A", "B"], ()), "S": Relation(["B", "C"], ())}
        )
        result = tsens(q, db)
        assert result.local_sensitivity == 0
        assert result.witness is None

    def test_duplicate_tuples_multiply(self):
        q = parse_query("R(A), S(A)")
        db = Database(
            {"R": Relation(["A"], {(1,): 5}), "S": Relation(["A"], {(1,): 1})}
        )
        # Adding another S(1) creates 5 new outputs.
        result = tsens(q, db)
        assert result.local_sensitivity == 5
        assert result.witness.relation == "S"

    def test_disconnected_query_requires_wrapper(self, fig1_query, fig1_db):
        q = parse_query("R(A), S(B)")
        db = Database(
            {"R": Relation(["A"], [(1,)]), "S": Relation(["B"], [(2,)])}
        )
        with pytest.raises(QueryStructureError):
            tsens_connected(q, db)

    def test_mismatched_tree_rejected(self, fig1_query, fig1_db, fig3_query):
        tree = gyo_join_tree(fig3_query)
        with pytest.raises(QueryStructureError):
            tsens_connected(fig1_query, fig1_db, tree=tree)


class TestSkipRelations:
    def test_skip_returns_bound_one(self, fig1_query, fig1_db):
        result = tsens(fig1_query, fig1_db, skip_relations=("R1",))
        assert result.per_relation["R1"].sensitivity == 1
        assert "R1" not in result.tables
        # Without R1's table the max comes from the others (R2: 2).
        assert result.local_sensitivity == 2

    def test_skip_all_relations(self, fig1_query, fig1_db):
        result = tsens(
            fig1_query, fig1_db, skip_relations=tuple(fig1_query.relation_names)
        )
        assert result.local_sensitivity == 1


class TestSelections:
    def test_failing_selection_zeroes_sensitivity(self, fig1_query, fig1_db):
        # Filter R3 to only a1 rows: inserting (a2, b2, c1) into R1 now
        # finds no R3 partner, so the old witness dies.
        filtered = fig1_query.with_selection("R3", lambda row: row["A"] == "a1")
        result = tsens(filtered, fig1_db)
        naive = naive_local_sensitivity(filtered, fig1_db)
        assert result.local_sensitivity == naive.local_sensitivity

    def test_selection_on_counting_attribute(self, fig3_query, fig3_db):
        filtered = fig3_query.with_selection("R4", lambda row: row["E"] != "e4")
        result = tsens(filtered, fig3_db)
        naive = naive_local_sensitivity(filtered, fig3_db)
        assert result.local_sensitivity == naive.local_sensitivity


@pytest.mark.parametrize("backend", ["python", "columnar"])
class TestSelectionOnExclusiveVariable:
    """The selection rejects the representative value of R's exclusive A
    (0), yet the existing R(1,1) passes it: deleting it loses 2 outputs."""

    @staticmethod
    def _instance(backend):
        from repro.query import parse_predicate

        query = parse_query("R(A,B), S(B,C)").with_selection(
            "R", parse_predicate("A != 0")
        )
        db = Database(
            {
                "R": Relation(["A", "B"], [(0, 1), (1, 1)]),
                "S": Relation(["B", "C"], [(1, 5), (1, 6)]),
            }
        ).with_backend(backend)
        return query, db

    @pytest.mark.parametrize("method", ["path", "tsens"])
    def test_existing_tuple_witnesses(self, backend, method):
        from repro.core import local_sensitivity

        query, db = self._instance(backend)
        naive = naive_local_sensitivity(query, db)
        result = local_sensitivity(query, db, method=method)
        assert naive.local_sensitivity == 2
        assert result.local_sensitivity == 2
        witness = result.per_relation["R"]
        assert witness.sensitivity == 2
        assert dict(witness.assignment) == {"A": 1, "B": 1}

    def test_top_k_stays_an_upper_bound(self, backend):
        from repro import prepare

        query, db = self._instance(backend)
        result = prepare(query, db).top_k(5)
        assert result.local_sensitivity >= 2
        assert result.per_relation["R"].sensitivity == 2


class TestGhdNodes:
    def test_triangle_matches_naive(self, triangle_query, triangle_db):
        tree = auto_decompose(triangle_query)
        result = tsens(triangle_query, triangle_db, tree=tree)
        naive = naive_local_sensitivity(triangle_query, triangle_db)
        assert result.local_sensitivity == naive.local_sensitivity
        for relation in triangle_query.relation_names:
            assert (
                result.per_relation[relation].sensitivity
                == naive.per_relation[relation].sensitivity
            )

    def test_explicit_paper_style_ghd(self, triangle_query, triangle_db):
        tree = ghd_from_groups(
            triangle_query,
            groups={"g12": ["R1", "R2"], "g3": ["R3"]},
            root="g12",
            parent={"g3": "g12"},
        )
        result = tsens(triangle_query, triangle_db, tree=tree)
        naive = naive_local_sensitivity(triangle_query, triangle_db)
        assert result.local_sensitivity == naive.local_sensitivity

    def test_four_cycle_matches_naive(self):
        q = parse_query("R1(A,B), R2(B,C), R3(C,D), R4(D,A)")
        db = Database(
            {
                "R1": Relation(["A", "B"], [(0, 1), (0, 2)]),
                "R2": Relation(["B", "C"], [(1, 3), (2, 3)]),
                "R3": Relation(["C", "D"], [(3, 4), (3, 5)]),
                "R4": Relation(["D", "A"], [(4, 0), (5, 0)]),
            }
        )
        result = tsens(q, db)
        naive = naive_local_sensitivity(q, db)
        assert result.local_sensitivity == naive.local_sensitivity


class TestDisconnected:
    def test_components_multiply(self):
        q = parse_query("R(A,B), S(C)")
        db = Database(
            {
                "R": Relation(["A", "B"], [(1, 2), (1, 3)]),
                "S": Relation(["C"], [(7,), (8,), (9,)]),
            }
        )
        result = tsens(q, db)
        naive = naive_local_sensitivity(q, db)
        # Adding S(x) adds |R| = 2 outputs; adding R(1, y) adds |S| = 3.
        assert naive.local_sensitivity == 3
        assert result.local_sensitivity == 3

    def test_empty_component_zeroes_other(self):
        q = parse_query("R(A), S(B)")
        db = Database(
            {"R": Relation(["A"], ()), "S": Relation(["B"], [(1,)] * 4)}
        )
        result = tsens(q, db)
        # Adding one R tuple creates 4 outputs; adding S tuples creates 0.
        assert result.local_sensitivity == 4
        assert result.witness.relation == "R"
