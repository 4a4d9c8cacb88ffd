"""Unit tests for LSPathJoin (Algorithm 1) — :mod:`repro.core.path`."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import local_sensitivity, prepare
from repro.core import ls_path_join, naive_local_sensitivity, tsens
from repro.core.result import SensitiveTuple
from repro.datasets import random_database, random_path_query
from repro.engine import Database, Relation
from repro.query import gyo_join_tree, parse_predicate, parse_query
from repro.exceptions import QueryStructureError


class TestPaperExample:
    """Figure 3 / Examples 4.1–4.2 of the paper."""

    def test_r2_tuple_sensitivity_is_topjoin_times_botjoin(
        self, fig3_query, fig3_db
    ):
        # Figure 3's multiplicity table for R2: J(R2) = {b1: 1, b2: 3} and
        # K(R3) = {c1: 6, c2: 4}, giving δ(b1,c1)=6 and δ(b2,c1)=18 — the
        # exact values printed in the paper's figure.
        result = local_sensitivity(fig3_query, fig3_db, method="path")
        assert result.tuple_sensitivity("R2", {"B": "b1", "C": "c1"}) == 6
        assert result.tuple_sensitivity("R2", {"B": "b2", "C": "c1"}) == 18

    def test_matches_naive_and_tsens(self, fig3_query, fig3_db):
        path = local_sensitivity(fig3_query, fig3_db, method="path")
        acyclic = tsens(fig3_query, fig3_db)
        naive = naive_local_sensitivity(fig3_query, fig3_db)
        assert (
            path.local_sensitivity
            == acyclic.local_sensitivity
            == naive.local_sensitivity
        )
        for relation in fig3_query.relation_names:
            assert (
                path.per_relation[relation].sensitivity
                == naive.per_relation[relation].sensitivity
            )

    def test_method_label(self, fig3_query, fig3_db):
        assert local_sensitivity(fig3_query, fig3_db, method="path").method == "path"


class TestEndpoints:
    def test_first_relation_sensitivity_is_outgoing_only(self):
        q = parse_query("R1(A,B), R2(B,C)")
        db = Database(
            {
                "R1": Relation(["A", "B"], [(1, 10)]),
                "R2": Relation(["B", "C"], [(10, 0), (10, 1), (10, 1)]),
            }
        )
        result = local_sensitivity(q, db, method="path")
        # Adding R1(x, 10) creates 3 outputs; A is free (exclusive).
        assert result.per_relation["R1"].sensitivity == 3

    def test_last_relation_sensitivity_is_incoming_only(self):
        q = parse_query("R1(A,B), R2(B,C)")
        db = Database(
            {
                "R1": Relation(["A", "B"], [(1, 10), (2, 10), (1, 10)]),
                "R2": Relation(["B", "C"], [(10, 0)]),
            }
        )
        result = local_sensitivity(q, db, method="path")
        assert result.per_relation["R2"].sensitivity == 3

    def test_unary_endpoints(self):
        # TPC-H q1 shape: Region(RK) is unary.
        q = parse_query("R(RK), N(RK,NK), C(NK,CK)")
        db = Database(
            {
                "R": Relation(["RK"], [(0,), (1,)]),
                "N": Relation(["RK", "NK"], [(0, 5), (0, 6), (1, 5)]),
                "C": Relation(["NK", "CK"], [(5, 100), (5, 101), (6, 102)]),
            }
        )
        result = local_sensitivity(q, db, method="path")
        naive = naive_local_sensitivity(q, db)
        assert result.local_sensitivity == naive.local_sensitivity

    def test_single_relation(self):
        q = parse_query("R(A,B)")
        db = Database({"R": Relation(["A", "B"], [(1, 2)])})
        result = local_sensitivity(q, db, method="path")
        assert result.local_sensitivity == 1
        assert result.witness is not None

    def test_two_relations(self):
        q = parse_query("R(A,B), S(B,C)")
        db = Database(
            {
                "R": Relation(["A", "B"], [(1, 2), (3, 2)]),
                "S": Relation(["B", "C"], [(2, 4)]),
            }
        )
        result = local_sensitivity(q, db, method="path")
        assert result.local_sensitivity == 2
        assert result.witness.relation == "S"


@pytest.mark.parametrize("backend", ["python", "columnar"])
class TestSingleRelation:
    """A one-atom path query honours its selection like any other."""

    def test_selection_rejecting_every_tuple(self, backend):
        query = parse_query("R(A)").with_selection("R", parse_predicate("A != 0"))
        db = Database({"R": Relation(["A"], [(0,)])}).with_backend(backend)
        result = local_sensitivity(query, db, method="path")
        assert naive_local_sensitivity(query, db).local_sensitivity == 0
        assert result.local_sensitivity == 0
        assert result.witness is None

    def test_existing_tuple_passing_selection(self, backend):
        query = parse_query("R(A)").with_selection("R", parse_predicate("A != 0"))
        db = Database({"R": Relation(["A"], [(0,), (1,)])}).with_backend(backend)
        naive = naive_local_sensitivity(query, db)
        assert naive.local_sensitivity == 1
        for result in (local_sensitivity(query, db, method="path"), tsens(query, db)):
            assert result.local_sensitivity == 1
            assert dict(result.witness.assignment) == {"A": 1}


class TestWitnessesMatchTsens:
    """Path and TSens read the same tables, so they pick the same witness
    even where adjacent atoms list their shared variables in different
    orders and the maxima tie."""

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_shared_variables_in_different_orders(self, backend):
        query = parse_query("R1(X,A,B), R2(B,A,C), R3(C,Y)")
        for seed in range(40):
            rng = np.random.default_rng(seed)
            db = random_database(query, rng, backend=backend)
            path = local_sensitivity(query, db, method="path")
            tree_based = tsens(query, db)
            assert path.per_relation == tree_based.per_relation, seed
            assert path.witness == tree_based.witness, seed


class TestPathAndTsensReadsAgree:
    """On a path session both methods read the same tables off one join
    state, so they take the same witnesses off them."""

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_path_read_equals_tsens_read(self, backend, fig3_query, fig3_db):
        session = prepare(fig3_query, fig3_db, backend=backend)
        tree_based = session.sensitivity(method="tsens")
        path = session.sensitivity(method="path")
        for name in fig3_query.relation_names:
            assert path.per_relation[name] == tree_based.per_relation[name]
        assert path.local_sensitivity == tree_based.local_sensitivity


class TestMultiAttributeBoundaries:
    def test_shared_pair_of_attributes(self):
        q = parse_query("R(A,B,C), S(B,C,D)")
        db = Database(
            {
                "R": Relation(["A", "B", "C"], [(1, 2, 3), (9, 2, 3)]),
                "S": Relation(["B", "C", "D"], [(2, 3, 7)]),
            }
        )
        result = local_sensitivity(q, db, method="path")
        naive = naive_local_sensitivity(q, db)
        assert result.local_sensitivity == naive.local_sensitivity == 2


class TestEmptyCases:
    def test_middle_relation_empty(self, fig3_query, fig3_db):
        db = fig3_db.with_relation("R2", Relation(["B", "C"], ()))
        result = local_sensitivity(fig3_query, db, method="path")
        naive = naive_local_sensitivity(fig3_query, db)
        assert result.local_sensitivity == naive.local_sensitivity
        # Insertions into R2 can still connect R1 to R3⋈R4.
        assert result.local_sensitivity > 0

    def test_everything_empty(self):
        q = parse_query("R(A,B), S(B,C)")
        db = Database(
            {"R": Relation(["A", "B"], ()), "S": Relation(["B", "C"], ())}
        )
        result = local_sensitivity(q, db, method="path")
        assert result.local_sensitivity == 0
        assert result.witness is None


class TestErrors:
    def test_non_path_query_rejected(self, fig1_query, fig1_db):
        with pytest.raises(QueryStructureError):
            local_sensitivity(fig1_query, fig1_db, method="path")


class TestSelections:
    def test_selection_respected(self, fig3_query, fig3_db):
        filtered = fig3_query.with_selection("R3", lambda row: row["D"] == "d1")
        path = local_sensitivity(filtered, fig3_db, method="path")
        naive = naive_local_sensitivity(filtered, fig3_db)
        assert path.local_sensitivity == naive.local_sensitivity


class TestPathState:
    """Path reads over the session's maintained join state == fresh runs.

    Each stream replays through :meth:`PreparedQuery.apply`, which folds
    the session's one :class:`JoinState`; ``method="path"`` reads it."""

    @staticmethod
    def _assert_matches_fresh(session, query):
        maintained = session.sensitivity(method="path")
        fresh = local_sensitivity(query, session.db, method="path")
        assert maintained.local_sensitivity == fresh.local_sensitivity
        for name in query.relation_names:
            assert (
                maintained.per_relation[name].sensitivity
                == fresh.per_relation[name].sensitivity
            )

    def test_maintained_matches_fresh(self, fig3_query, fig3_db):
        session = prepare(fig3_query, fig3_db)
        session.sensitivity(method="path")
        for relation, row, insert in [
            ("R1", ("a1", "b2"), True),
            ("R3", ("c1", "d9"), True),
            ("R2", ("b2", "c1"), False),
            ("R1", ("a9", "b9"), True),   # joins nothing downstream
            ("R3", ("c2", "d2"), False),
        ]:
            session.apply([("insert" if insert else "delete", relation, row)])
            self._assert_matches_fresh(session, fig3_query)

    def test_whole_delta_relations_fold(self, fig3_query, fig3_db):
        session = prepare(fig3_query, fig3_db)
        session.sensitivity(method="path")
        session.apply(
            [("delete", "R2", ("b2", "c1"))]
            + [("insert", "R2", ("b1", "c2"))] * 3
            + [("insert", "R2", ("b9", "c9"))]
        )
        self._assert_matches_fresh(session, fig3_query)

    def test_endpoint_updates(self):
        """Updates at both path endpoints: the first relation feeds only
        the rightward sweep, the last only the leftward one."""
        query = parse_query("R1(A,B), R2(B,C), R3(C,D)")
        db = Database(
            {
                "R1": Relation(["A", "B"], [("a1", "b1"), ("a2", "b1")]),
                "R2": Relation(["B", "C"], [("b1", "c1")]),
                "R3": Relation(["C", "D"], [("c1", "d1")]),
            }
        )
        session = prepare(query, db)
        session.sensitivity(method="path")
        for update in [
            ("insert", "R1", ("a3", "b1")),
            ("insert", "R3", ("c1", "d2")),
            ("delete", "R3", ("c1", "d1")),
            ("delete", "R1", ("a1", "b1")),
        ]:
            session.apply([update])
            self._assert_matches_fresh(session, query)

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_session_prepared_with_a_tree_keeps_one_state(
        self, backend, fig3_query, fig3_db, monkeypatch
    ):
        """Path reads on a ``tree=`` session read its maintained state
        too: three insert-then-read rounds build one join state."""
        from repro.evaluation.joinstate import JoinState

        built = []
        init = JoinState.__init__

        def counting_init(state, *args, **kwargs):
            built.append(state)
            init(state, *args, **kwargs)

        monkeypatch.setattr(JoinState, "__init__", counting_init)
        tree = gyo_join_tree(fig3_query).rerooted("R4")
        session = prepare(fig3_query, fig3_db, backend=backend, tree=tree)
        reads = []
        for row in [("a3", "b1"), ("a4", "b2"), ("a5", "b1")]:
            session.insert("R1", row)
            reads.append((session.db, session.sensitivity(method="path")))
        assert len(built) == 1
        monkeypatch.undo()
        for db, read in reads:
            fresh = local_sensitivity(fig3_query, db, method="path")
            assert read.local_sensitivity == fresh.local_sensitivity
            for name in fig3_query.relation_names:
                assert (
                    read.per_relation[name].sensitivity
                    == fresh.per_relation[name].sensitivity
                )

    def test_non_path_query_rejected(self, fig1_query, fig1_db):
        from repro.core.path import PathState

        (state,) = prepare(fig1_query, fig1_db)._states()
        with pytest.raises(QueryStructureError):
            PathState(fig1_query, state)

    def test_selection_filters_fold(self, fig3_query, fig3_db):
        query = fig3_query.with_selection("R2", parse_predicate("B != 'b2'"))
        session = prepare(query, fig3_db)
        before = session.sensitivity(method="path").local_sensitivity
        # A filtered-out insert changes no sweep, but the rows still land
        # in the database.
        session.apply([("insert", "R2", ("b2", "c1"))] * 5)
        assert session.db.relation("R2").multiplicity(("b2", "c1")) == 7
        assert session.sensitivity(method="path").local_sensitivity == before
        self._assert_matches_fresh(session, query)

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_tables_are_the_session_join_state_tables(
        self, backend, fig3_query, fig3_db
    ):
        from repro.core.path import PathState

        session = prepare(fig3_query, fig3_db, backend=backend)
        session.sensitivity(method="path")
        session.apply(
            [("insert", "R1", ("a3", "b1")), ("delete", "R4", ("d2", "e4"))]
        )
        result = session.sensitivity(method="path")
        (state,) = session._states()
        assert set(result.tables) == set(fig3_query.relation_names)
        for name, table in result.tables.items():
            assert table is state.multiplicity_table(name)
        # A PathState over a given join state reads that state's tables.
        view = PathState(fig3_query, state)
        again = ls_path_join(fig3_query, session.db, view)
        for name, table in again.tables.items():
            assert table is state.multiplicity_table(name)
        assert again.local_sensitivity == result.local_sensitivity


class TestSkipRelations:
    """A skipped relation gets bound 1 and no table, on the path method
    exactly as on TSens."""

    def test_skipped_relation_builds_no_table(self):
        query = parse_query("Q(A,B,C) :- R(A,B), S(B,C)")
        db = Database(
            {
                "R": Relation(["A", "B"], [(1, 2), (3, 2)]),
                "S": Relation(["B", "C"], [(2, 4), (2, 5)]),
            }
        )
        session = prepare(query, db)
        result = session.sensitivity(skip_relations=("S",))
        assert result.method == "path"
        assert result.per_relation["S"] == SensitiveTuple("S", {}, 1)
        assert set(result.tables) == {"R"}
        (component,) = session.stats()["maintained_components"]
        assert component["tables_materialised"] == ["R"]
        # R's tuples join two S tuples each: the concrete witness wins.
        assert result.local_sensitivity == 2
        assert result.witness.relation == "R"

    def test_tie_prefers_a_concrete_witness(self):
        query = parse_query("Q(A,B,C) :- R(A,B), S(B,C)")
        db = Database(
            {
                "R": Relation(["A", "B"], [(1, 2)]),
                "S": Relation(["B", "C"], [(2, 4)]),
            }
        )
        result = local_sensitivity(query, db, method="path", skip_relations=("R",))
        assert result.local_sensitivity == 1
        assert result.witness.relation == "S"
        assert result.witness.assignment

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    @given(st.integers(min_value=0, max_value=10_000), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_random_path_queries_agree_with_tsens(self, backend, seed, length):
        rng = np.random.default_rng(seed)
        query = random_path_query(rng, length=length)
        db = random_database(query, rng, backend=backend)
        skip = tuple(
            name for name in query.relation_names if rng.random() < 0.4
        )
        path = local_sensitivity(query, db, method="path", skip_relations=skip)
        tree_based = local_sensitivity(
            query, db, method="tsens", skip_relations=skip
        )
        assert path.local_sensitivity == tree_based.local_sensitivity
        assert {
            name: witness.sensitivity
            for name, witness in path.per_relation.items()
        } == {
            name: witness.sensitivity
            for name, witness in tree_based.per_relation.items()
        }
        assert set(path.tables) == set(tree_based.tables)
        assert not set(path.tables) & set(skip)
