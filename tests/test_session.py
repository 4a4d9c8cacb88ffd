"""Unit tests for the prepared-query session API (:mod:`repro.session`)."""

import math

import numpy as np
import pytest

from repro import PreparedQuery, local_sensitivity, most_sensitive_tuples, prepare
from repro.core import naive_local_sensitivity
from repro.dp import BudgetAccountant, run_flex_dp, run_privsql, run_tsens_dp
from repro.engine import Database, Relation
from repro.evaluation import count_query
from repro.datasets.tpch import generate_tpch
from repro.query import ghd_from_groups, gyo_join_tree, parse_query
from repro.workloads.tpch_queries import q1_workload, q3_workload
from repro.exceptions import (
    MechanismConfigError,
    PrivacyBudgetError,
    QueryStructureError,
    SessionError,
    UnknownRelationError,
)


class TestPrepare:
    def test_returns_prepared_query(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db)
        assert isinstance(session, PreparedQuery)
        assert session.query is fig1_query
        assert session.updates_applied == 0

    def test_backend_conversion(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db, backend="columnar")
        assert session.backend == "columnar"
        assert session.count() == count_query(fig1_query, fig1_db)

    def test_connected_query_has_one_tree(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db)
        assert session.tree is not None
        assert len(session.component_trees) == 1

    def test_disconnected_query_has_component_trees(self):
        query = parse_query("Q(A,B) :- R(A), S(B)")
        db = Database(
            {"R": Relation(["A"], [(1,)]), "S": Relation(["B"], [(2,), (3,)])}
        )
        session = prepare(query, db)
        assert session.tree is None
        assert len(session.component_trees) == 2
        assert session.count() == 2

    @pytest.mark.parametrize("entry", [prepare, count_query], ids=lambda f: f.__name__)
    def test_partial_tree_rejected(self, entry):
        """A tree must cover the whole query, whichever entry plans it."""
        query = parse_query("R(A,B), S(B,C), T(C,D)")
        db = Database(
            {
                "R": Relation(["A", "B"], [(1, 2), (3, 2)]),
                "S": Relation(["B", "C"], [(2, 4), (2, 5)]),
                "T": Relation(["C", "D"], [(4, 1), (5, 1), (5, 2)]),
            }
        )
        tree = gyo_join_tree(parse_query("R(A,B), S(B,C)"))
        with pytest.raises(QueryStructureError):
            entry(query, db, tree=tree)

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_caller_tree_over_disconnected_query(self, backend):
        """One tree over all three atoms is a one-component plan: T's
        node shares nothing with its parent, and its botjoin is T's count."""
        query = parse_query("R(A,B), S(B,C), T(D)")
        db = Database(
            {
                "R": Relation(["A", "B"], [(1, 2), (3, 2)]),
                "S": Relation(["B", "C"], [(2, 4)]),
                "T": Relation(["D"], [(7,), (8,), (9,)]),
            }
        )
        tree = ghd_from_groups(
            query, {"R": ["R"], "S": ["S"], "T": ["T"]}, root="S",
            parent={"R": "S", "T": "S"},
        )
        session = prepare(query, db, backend=backend, tree=tree)
        naive = naive_local_sensitivity(query, db)
        auto = prepare(query, db, backend=backend).sensitivity()
        for result in (session.sensitivity(), local_sensitivity(query, db, tree=tree)):
            assert result.local_sensitivity == naive.local_sensitivity == 6
            assert {
                name: witness.sensitivity for name, witness in result.per_relation.items()
            } == {name: witness.sensitivity for name, witness in auto.per_relation.items()}


class TestReads:
    def test_count_matches_evaluation(self, fig1_query, fig1_db):
        assert prepare(fig1_query, fig1_db).count() == count_query(
            fig1_query, fig1_db
        )

    def test_sensitivity_is_cached_until_mutation(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db)
        first = session.sensitivity()
        assert session.sensitivity() is first
        session.insert("R3", ("a9", "e9"))
        assert session.sensitivity() is not first

    def test_method_dispatch_matches_oneshot(self, fig3_query, fig3_db):
        session = prepare(fig3_query, fig3_db)
        assert session.sensitivity().method == "path"
        assert session.sensitivity(method="tsens").method == "tsens"
        assert (
            session.sensitivity().local_sensitivity
            == local_sensitivity(fig3_query, fig3_db).local_sensitivity
        )

    def test_user_tree_disables_path_shortcut(self, fig3_query, fig3_db):
        tree = gyo_join_tree(fig3_query)
        session = prepare(fig3_query, fig3_db, tree=tree)
        assert session.sensitivity().method == "tsens"

    def test_unknown_method_raises(self, fig1_query, fig1_db):
        with pytest.raises(MechanismConfigError):
            prepare(fig1_query, fig1_db).sensitivity(method="magic")

    def test_reeval_rejects_skip(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db)
        with pytest.raises(MechanismConfigError):
            session.sensitivity(method="reeval", skip_relations=("R1",))

    def test_top_k_route(self, fig3_query, fig3_db):
        result = prepare(fig3_query, fig3_db).top_k(2)
        assert result.method == "tsens-top2"
        assert (
            result.local_sensitivity
            >= local_sensitivity(fig3_query, fig3_db).local_sensitivity
        )

    @pytest.mark.parametrize("k", [True, 2.5, 0, -1, "2", None], ids=repr)
    def test_top_k_rejects_a_bad_k_before_any_work(self, k, fig3_query, fig3_db):
        """``k`` is an integer >= 1; a bool is not one, though it is an int."""
        session = prepare(fig3_query, fig3_db)
        with pytest.raises(MechanismConfigError):
            session.top_k(k)
        assert not session.stats()["evaluator_built"]

    def test_top_k_takes_numpy_integers(self, fig3_query, fig3_db):
        session = prepare(fig3_query, fig3_db)
        result = session.top_k(np.int64(2))
        assert result.method == "tsens-top2"
        assert session.top_k(2) is result

    def test_top_k_is_cached_per_k_and_skip_until_apply(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db)
        first = session.top_k(2)
        assert session.top_k(2) is first
        assert session.top_k(3) is not first
        skipped = session.top_k(2, ("R1",))
        assert skipped is not first
        assert session.top_k(2, ["R1", "R1"]) is skipped
        session.apply([("insert", "R3", ("a9", "e9"))])
        assert session.top_k(2) is not first
        assert session.top_k(2, ("R1",)) is not skipped

    @pytest.mark.parametrize("read", ["sensitivity", "top_k", "explain", "most_sensitive"])
    def test_unknown_skip_relation_raises(self, read, fig1_query, fig1_db):
        """A typo in ``skip_relations`` is an error, not a read that
        skips nothing under a cache entry of its own."""
        session = prepare(fig1_query, fig1_db)
        calls = {
            "sensitivity": lambda: session.sensitivity(skip_relations=("R1", "Nope")),
            "top_k": lambda: session.top_k(2, ("Nope",)),
            "explain": lambda: session.explain(skip_relations=("Nope",)),
            "most_sensitive": lambda: session.most_sensitive(skip_relations=("Nope",)),
        }
        with pytest.raises(UnknownRelationError, match="Nope"):
            calls[read]()
        assert session.stats()["cached_results"] == 0

    def test_skip_names_share_one_cache_entry(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db)
        result = session.sensitivity(skip_relations=("R2", "R1"))
        assert session.sensitivity(skip_relations=["R1", "R2", "R1"]) is result
        assert session.explain(skip_relations=("R2", "R1")) is session.explain(
            skip_relations=["R1", "R2", "R2"]
        )

    def test_most_sensitive_matches_oneshot(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db)
        oneshot = most_sensitive_tuples(fig1_query, fig1_db)
        mine = session.most_sensitive()
        assert set(mine) == set(oneshot)
        assert mine["R1"].sensitivity == oneshot["R1"].sensitivity == 4

    def test_explain_matches_oneshot_profile(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db)
        profile = session.explain()
        fresh = prepare(fig1_query, fig1_db).explain()
        assert profile.local_sensitivity == fresh.local_sensitivity == 4
        assert profile.tables == fresh.tables
        assert session.explain() is profile  # cached
        session.delete("R4", ("b1", "f1"))
        assert session.explain() is not profile


class TestUpdates:
    def test_insert_and_delete_maintain_count(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db)
        after = session.insert("R1", ("a2", "b2", "c1"))
        assert after == count_query(
            fig1_query, fig1_db.add_tuple("R1", ("a2", "b2", "c1"))
        )
        assert session.delete("R1", ("a2", "b2", "c1")) == count_query(
            fig1_query, fig1_db
        )
        assert session.updates_applied == 2

    def test_delete_absent_row_is_noop(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db)
        before = session.count()
        assert session.delete("R1", ("zz", "zz", "zz")) == before

    def test_unknown_relation_raises(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db)
        with pytest.raises(UnknownRelationError):
            session.insert("nope", (1, 2, 3))

    def test_apply_batch(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db)
        count = session.apply(
            [
                ("insert", "R1", ("a2", "b2", "c1")),
                ("+", "R3", ("a2", "e3")),
                ("delete", "R2", ("a1", "b1", "d1")),
            ]
        )
        manual = (
            fig1_db.add_tuple("R1", ("a2", "b2", "c1"))
            .add_tuple("R3", ("a2", "e3"))
            .remove_tuple("R2", ("a1", "b1", "d1"))
        )
        assert count == count_query(fig1_query, manual)
        assert session.updates_applied == 3

    def test_apply_rejects_unknown_op(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db)
        with pytest.raises(SessionError):
            session.apply([("upsert", "R1", ("a1", "b1", "c1"))])
        # A bad op anywhere in the batch aborts the whole batch: the valid
        # prefix is NOT committed and the session stays bit-identical to
        # its pre-batch state.
        before_count = session.count()
        before_ls = session.sensitivity().local_sensitivity
        with pytest.raises(SessionError):
            session.apply(
                [
                    ("insert", "R1", ("a2", "b2", "c1")),
                    ("upsert", "R1", ("a1", "b1", "c1")),
                ]
            )
        assert session.updates_applied == 0
        assert session.count() == before_count
        assert session.sensitivity().local_sensitivity == before_ls
        assert session.db.relation("R1").multiplicity(("a2", "b2", "c1")) == 0
        assert session.count() == prepare(fig1_query, session.db).count()

    def test_apply_rejects_malformed_element(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db)
        with pytest.raises(SessionError, match="malformed update"):
            session.apply([("insert", "R1", ("a2", "b2", "c1")), ("insert",)])
        assert session.updates_applied == 0

    def test_apply_op_shorthands(self, fig1_query, fig1_db):
        # "+" / "-" are exact aliases of "insert" / "delete".
        longhand = prepare(fig1_query, fig1_db)
        shorthand = prepare(fig1_query, fig1_db)
        stream_long = [
            ("insert", "R1", ("a2", "b2", "c1")),
            ("delete", "R2", ("a1", "b1", "d1")),
        ]
        stream_short = [
            ("+", "R1", ("a2", "b2", "c1")),
            ("-", "R2", ("a1", "b1", "d1")),
        ]
        assert shorthand.apply(stream_short) == longhand.apply(stream_long)
        assert shorthand.updates_applied == longhand.updates_applied == 2
        assert (
            shorthand.sensitivity().local_sensitivity
            == longhand.sensitivity().local_sensitivity
        )

    def test_apply_compacts_cancelling_pairs(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db)
        before = session.count()
        count = session.apply(
            [
                ("insert", "R1", ("a2", "b2", "c1")),
                ("delete", "R1", ("a2", "b2", "c1")),
                ("delete", "R1", ("zz", "zz", "zz")),  # absent: clamped no-op
            ]
        )
        assert count == before
        # Compaction is an execution strategy, not a semantic change: all
        # three stream elements committed.
        assert session.updates_applied == 3
        assert session.db.relation("R1").multiplicity(("a2", "b2", "c1")) == 0
        assert session.count() == prepare(fig1_query, session.db).count()

    def test_batch_delete_of_absent_row_is_noop(self, fig1_query, fig1_db):
        for backend in ("python", "columnar"):
            session = prepare(fig1_query, fig1_db, backend=backend)
            before = session.count()
            assert session.apply([("delete", "R1", ("zz", "zz", "zz"))]) == before
            assert session.updates_applied == 1
            # Deleting more copies than exist floors at zero, not negative.
            session.insert("R1", ("a2", "b2", "c1"))
            after_ins = session.count()
            deleted = session.apply(
                [
                    ("delete", "R1", ("a2", "b2", "c1")),
                    ("delete", "R1", ("a2", "b2", "c1")),
                ]
            )
            assert deleted == before
            assert session.db.relation("R1").multiplicity(("a2", "b2", "c1")) == 0
            assert after_ins == count_query(
                fig1_query, fig1_db.add_tuple("R1", ("a2", "b2", "c1"))
            )

    def test_overflow_mid_batch_rolls_back(self):
        """A columnar int64 overflow anywhere in the batch aborts the
        whole batch — count, sensitivity and database stay pre-batch."""
        from repro.exceptions import MultiplicityOverflowError

        big = (2**63 - 1) // 2
        query = parse_query("R(A,B), S(B,C)")
        db = Database(
            {
                "R": Relation(["A", "B"], {(1, 2): 2}),
                "S": Relation(["B", "C"], {(2, 3): big}),
            },
            backend="columnar",
        )
        session = prepare(query, db)
        before_count = session.count()
        before_ls = session.sensitivity().local_sensitivity
        with pytest.raises(MultiplicityOverflowError):
            session.apply(
                [
                    ("insert", "R", (9, 9)),  # fine on its own
                    ("insert", "R", (1, 2)),  # 3 * big overflows int64
                ]
            )
        assert session.updates_applied == 0
        assert session.count() == before_count
        assert session.sensitivity().local_sensitivity == before_ls
        assert session.db.relation("R").multiplicity((9, 9)) == 0
        assert session.db.relation("R").multiplicity((1, 2)) == 2
        # Still usable: the non-overflowing element commits on its own.
        session.apply([("insert", "R", (9, 9))])
        assert session.count() == before_count

    def test_db_snapshot_advances(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db)
        session.insert("R3", ("a7", "e7"))
        assert session.db.relation("R3").multiplicity(("a7", "e7")) == 1
        # The caller's database object is untouched.
        assert fig1_db.relation("R3").multiplicity(("a7", "e7")) == 0

    def test_updates_on_disconnected_query(self):
        query = parse_query("Q(A,B) :- R(A), S(B)")
        db = Database(
            {"R": Relation(["A"], [(1,), (2,)]), "S": Relation(["B"], [(7,)])}
        )
        session = prepare(query, db)
        assert session.count() == 2
        assert session.insert("S", (8,)) == 4
        assert session.delete("R", (1,)) == 2
        assert session.count() == prepare(query, session.db).count()


class TestRelease:
    @pytest.fixture
    def star_session(self, tiny_facebook):
        from repro.workloads import star_workload

        workload = star_workload()
        session = prepare(workload.query, tiny_facebook, tree=workload.tree)
        return workload, session

    def test_tsensdp_matches_oneshot_with_same_rng(self, star_session):
        workload, session = star_session
        mine = session.release(
            1.0,
            mechanism="tsensdp",
            primary=workload.primary,
            ell=workload.ell,
            rng=np.random.default_rng(5),
        )
        theirs = run_tsens_dp(
            workload.query,
            session.db,
            primary=workload.primary,
            epsilon=1.0,
            ell=workload.ell,
            tree=workload.tree,
            rng=np.random.default_rng(5),
        )
        assert mine.answer == theirs.answer
        assert mine.tau == theirs.tau
        assert mine.true_count == theirs.true_count

    def test_flexdp_matches_oneshot_with_same_rng(self, star_session):
        workload, session = star_session
        mine = session.release(
            1.0,
            mechanism="flexdp",
            primary=workload.primary,
            rng=np.random.default_rng(5),
        )
        theirs = run_flex_dp(
            workload.query,
            session.db,
            primary=workload.primary,
            epsilon=1.0,
            tree=session.tree,
            rng=np.random.default_rng(5),
        )
        assert mine.answer == theirs.answer
        assert mine.smooth_sensitivity == theirs.smooth_sensitivity

    def test_privsql_matches_oneshot_with_same_rng(self, star_session):
        workload, session = star_session
        mine = session.release(
            1.0,
            mechanism="privsql",
            primary=workload.primary,
            rng=np.random.default_rng(5),
        )
        theirs = run_privsql(
            workload.query,
            session.db,
            primary=workload.primary,
            epsilon=1.0,
            tree=session.tree,
            rng=np.random.default_rng(5),
        )
        assert mine.answer == theirs.answer
        assert mine.global_sensitivity == theirs.global_sensitivity

    def test_release_reuses_cached_oracle(self, star_session):
        workload, session = star_session
        oracle = session.truncation_oracle(workload.primary)
        session.release(
            1.0,
            mechanism="tsensdp",
            primary=workload.primary,
            ell=workload.ell,
            rng=np.random.default_rng(0),
        )
        assert session.truncation_oracle(workload.primary) is oracle

    def test_oracle_builds_no_table(self, star_session):
        workload, session = star_session
        oracle = session.truncation_oracle(workload.primary)
        assert oracle.max_primary_sensitivity > 0
        assert all(not state.tables_materialised for state in session._states())

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    @pytest.mark.parametrize("make", [q1_workload, q3_workload], ids=["q1", "q3"])
    def test_cold_release_builds_no_table(self, make, backend):
        workload = make()
        db = workload.prepare(generate_tpch(0.001, seed=1, backend=backend))
        session = prepare(workload.query, db, tree=workload.tree)
        session.release(
            1.0,
            mechanism="tsensdp",
            primary=workload.primary,
            ell=10,
            rng=np.random.default_rng(0),
        )
        assert all(not state.tables_materialised for state in session._states())

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_oracle_answers_at_its_snapshot(self, backend):
        query = parse_query("Q(A,B,C) :- R(A,B), S(B,C)")
        db = Database(
            {
                "R": Relation(["A", "B"], [(1, 2), (3, 2)]),
                "S": Relation(["B", "C"], [(2, 4)]),
            },
            backend=backend,
        )
        session = prepare(query, db)
        oracle = session.truncation_oracle("R")
        session.insert("R", (5, 2))  # LS 2 -> 3, |Q| 2 -> 3
        assert session.sensitivity().local_sensitivity == 3
        # Read for the first time after the insert, still at the snapshot.
        assert oracle.local_sensitivity == 2
        assert oracle.base_count == 2
        assert [oracle.truncated_count(i) for i in range(3)] == [0, 2, 2]
        current = session.truncation_oracle("R")
        assert (current.local_sensitivity, current.base_count) == (3, 3)
        assert [current.truncated_count(i) for i in range(3)] == [0, 3, 3]

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_baselines_release_on_disconnected_query(self, backend):
        """FlexDP's default plan chains the components' plans, whose cross
        products the cross-product rule bounds; PrivSQL counts per
        component."""
        query = parse_query("R(A,B), S(B,C), T(D)")
        db = Database(
            {
                "R": Relation(["A", "B"], [(1, 2), (3, 2)]),
                "S": Relation(["B", "C"], [(2, 4)]),
                "T": Relation(["D"], [(7,), (8,)]),
            },
            backend=backend,
        )
        session = prepare(query, db)
        exact = session.sensitivity().per_relation
        for primary in ("R", "S", "T"):
            flex = session.release(
                1.0, mechanism="flexdp", primary=primary,
                rng=np.random.default_rng(0),
            )
            assert flex.smooth_sensitivity >= exact[primary].sensitivity
            privsql = session.release(
                1.0, mechanism="privsql", primary=primary,
                rng=np.random.default_rng(0),
            )
            assert privsql.true_count == session.count() == 4

    def test_accountant_tracks_and_refuses_overdraft(self, star_session):
        workload, session = star_session
        accountant = BudgetAccountant(1.5)
        session.release(
            1.0,
            mechanism="tsensdp",
            primary=workload.primary,
            ell=workload.ell,
            accountant=accountant,
            rng=np.random.default_rng(0),
        )
        assert accountant.spent == pytest.approx(1.0)
        with pytest.raises(PrivacyBudgetError):
            session.release(
                1.0,
                mechanism="flexdp",
                primary=workload.primary,
                accountant=accountant,
                rng=np.random.default_rng(0),
            )
        # The failed spend must not have consumed budget.
        assert accountant.remaining == pytest.approx(0.5)

    def test_config_errors(self, star_session):
        workload, session = star_session
        with pytest.raises(MechanismConfigError):
            session.release(1.0, mechanism="magic", primary=workload.primary)
        with pytest.raises(MechanismConfigError):
            session.release(1.0, mechanism="tsensdp")  # no primary
        with pytest.raises(MechanismConfigError):
            session.release(
                1.0, mechanism="tsensdp", primary=workload.primary
            )  # no ell
        with pytest.raises(MechanismConfigError):
            session.release(1.0, mechanism="tsensdp", primary="nope", ell=5)

    def test_config_errors_do_not_burn_budget(self, star_session):
        """Validation must precede the accountant spend: a release that
        dies on bad configuration must leave the budget untouched, and
        must raise the same typed error without an accountant."""
        workload, session = star_session
        accountant = BudgetAccountant(1.0)
        bad_configs = [
            dict(mechanism="magic", primary=workload.primary),
            dict(mechanism="tsensdp", primary=workload.primary),  # no ell
            dict(mechanism="tsensdp", primary=workload.primary, ell=0),
            dict(mechanism="tsensdp", primary=workload.primary, ell=10.0),
            dict(mechanism="tsensdp", primary=workload.primary, ell=True),
            dict(mechanism="tsensdp", primary="nope", ell=5),
            dict(mechanism="flexdp", primary=workload.primary, delta=1.5),
            dict(mechanism="flexdp", primary=workload.primary, delta="0.1"),
            dict(mechanism="flexdp", primary=workload.primary, delta=None),
            dict(mechanism="privsql", primary=workload.primary, max_threshold=0),
            dict(mechanism="privsql", primary=workload.primary, max_threshold=64.0),
        ]
        for epsilon in ("1", True, math.nan, math.inf, 0):
            bad_configs += [
                dict(epsilon=epsilon, mechanism="tsensdp",
                     primary=workload.primary, ell=workload.ell),
                dict(epsilon=epsilon, mechanism="flexdp", primary=workload.primary),
                dict(epsilon=epsilon, mechanism="privsql", primary=workload.primary),
            ]
        for config in bad_configs:
            config = {"epsilon": 0.6, **config}
            with pytest.raises(MechanismConfigError):
                session.release(accountant=accountant, **config)
            assert accountant.spent == 0.0
            assert accountant.ledger() == {}
            with pytest.raises(MechanismConfigError):
                session.release(**config)
        # The budget is still fully available for a corrected release.
        session.release(
            1.0,
            mechanism="tsensdp",
            primary=workload.primary,
            ell=workload.ell,
            accountant=accountant,
            rng=np.random.default_rng(0),
        )
        assert accountant.remaining == pytest.approx(0.0)

    def test_numpy_integer_counts_are_accepted(self, star_session):
        workload, session = star_session
        for mechanism, name, value in (
            ("tsensdp", "ell", workload.ell),
            ("privsql", "max_threshold", 64),
        ):
            answers = [
                session.release(
                    1.0,
                    mechanism=mechanism,
                    primary=workload.primary,
                    rng=np.random.default_rng(5),
                    **{name: count},
                ).answer
                for count in (value, np.int64(value))
            ]
            assert answers[0] == answers[1], mechanism

    def test_release_sees_committed_updates(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db)
        before = session.release(
            10.0,
            mechanism="tsensdp",
            primary="R1",
            ell=8,
            rng=np.random.default_rng(3),
        )
        session.insert("R1", ("a2", "b2", "c1"))
        after = session.release(
            10.0,
            mechanism="tsensdp",
            primary="R1",
            ell=8,
            rng=np.random.default_rng(3),
        )
        assert before.true_count == 1
        assert after.true_count == 5


def _maintained(session):
    """Every maintained object of a one-component session, keyed by kind:
    bound atoms, botjoins, topjoins and table factors."""
    (state,) = session._states()
    objects = {}
    objects.update((("atom", rel), atom) for rel, atom in state.bound.atom_relations.items())
    objects.update((("bot", node), botjoin) for node, botjoin in state.botjoins.items())
    if state.topjoins_materialised:
        objects.update((("top", node), top) for node, top in state.topjoins().items())
    for rel in state.tables_materialised:
        factors = state.multiplicity_table(rel).factors
        objects.update((("factor", rel, i), factor) for i, factor in enumerate(factors))
    return objects


class TestServingSurface:
    """The session hooks the serving layer builds on: stats, probe, fork,
    and the documented thread-safety contract."""

    def test_stats_before_evaluator(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db)
        stats = session.stats()
        assert stats["backend"] == "python"
        assert stats["evaluator_built"] is False
        assert stats["updates_applied"] == 0
        assert stats["maintained_components"] == []
        assert set(stats["relation_cardinalities"]) == set(
            fig1_query.relation_names
        )

    def test_stats_after_reads_and_updates(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db)
        session.count()
        session.insert("R1", ("a2", "b2", "c1"))
        session.sensitivity()  # re-cached after the mutation
        stats = session.stats()
        assert stats["evaluator_built"] is True
        assert stats["updates_applied"] == 1
        assert (
            stats["relation_cardinalities"]["R1"]
            == fig1_db.relation("R1").total_count() + 1
        )
        assert len(stats["maintained_components"]) == 1
        component = stats["maintained_components"][0]
        assert component["botjoins"] == component["nodes"]
        assert stats["cached_results"] >= 1

    def test_stats_is_json_safe(self, fig1_query, fig1_db):
        import json

        session = prepare(fig1_query, fig1_db)
        session.sensitivity()
        json.dumps(session.stats())

    def test_probe_matches_insert_then_count(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db)
        base = session.count()
        row = ("a2", "b2", "c1")
        (weight,) = session.probe("R1", [row])
        assert session.insert("R1", row) == base + weight

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("updated", ["parent", "fork"])
    def test_fork_is_independent(self, backend, warm, updated, fig1_query, fig1_db):
        probes = [("a2", "b2", "c1"), ("a1", "b1", "c9")]
        fresh = prepare(fig1_query, fig1_db, backend=backend)
        expected = (
            fresh.count(),
            fresh.sensitivity().local_sensitivity,
            fresh.probe("R1", probes),
        )
        session = prepare(fig1_query, fig1_db, backend=backend)
        if warm:
            # Builds the topjoins and every table.
            session.sensitivity()
            session.probe("R1", probes)
        fork = session.fork()
        if warm:
            # The fork shares every maintained object with its parent.
            shared = _maintained(session)
            assert {"atom", "bot", "top", "factor"} == {key[0] for key in shared}
            assert _maintained(fork).keys() == shared.keys()
            assert all(obj is shared[key] for key, obj in _maintained(fork).items())
        updated_side, other = (session, fork) if updated == "parent" else (fork, session)
        updated_side.insert("R1", ("a2", "b2", "c1"))
        assert updated_side.count() == expected[0] + expected[2][0]
        assert other.updates_applied == 0
        assert (
            other.count(),
            other.sensitivity().local_sensitivity,
            other.probe("R1", probes),
        ) == expected
        if warm:
            assert _maintained(other).keys() == shared.keys()
            assert all(obj is shared[key] for key, obj in _maintained(other).items())

    def test_lock_serialises_reads_against_apply(self, fig1_query, fig1_db):
        import threading

        session = prepare(fig1_query, fig1_db)
        session.count()
        snapshots = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                with session.lock:
                    snapshots.append(
                        (session.updates_applied, session.count())
                    )

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(20):
                session.apply(
                    [
                        ("insert", "R1", ("a2", "b2", "c1")),
                        ("delete", "R1", ("a2", "b2", "c1")),
                    ]
                )
        finally:
            stop.set()
            thread.join()
        # Each batch is net-zero, so every consistent snapshot shows the
        # original count; updates_applied only ever lands on multiples of
        # the batch size (a torn read would expose an odd count).
        base = count_query(fig1_query, fig1_db)
        for applied, count in snapshots:
            assert count == base
            assert applied % 2 == 0


class TestCloseIsNoOp:
    """``close()`` and the context-manager protocol hold no resources but
    stay, so sessions and their forks keep working as context managers."""

    def test_close_is_idempotent_and_reads_keep_working(
        self, fig1_query, fig1_db
    ):
        session = prepare(fig1_query, fig1_db)
        before = session.sensitivity().local_sensitivity
        session.close()
        session.close()
        assert session.count() == count_query(fig1_query, fig1_db)
        assert session.sensitivity(method="tsens").local_sensitivity == before

    def test_updates_commit_after_close(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db, backend="columnar")
        session.close()
        row = ("a2", "b2", "c1")
        (weight,) = session.probe("R1", [row])
        assert session.insert("R1", row) == count_query(fig1_query, fig1_db) + weight
        assert session.updates_applied == 1

    def test_context_manager_yields_the_session(self, fig1_query, fig1_db):
        with prepare(fig1_query, fig1_db) as session:
            assert isinstance(session, PreparedQuery)
            inside = session.count()
        assert session.count() == inside
        session.insert("R3", ("a1", "e9"))
        assert session.count() == count_query(session.query, session.db)

    def test_context_manager_propagates_errors(self, fig1_query, fig1_db):
        with pytest.raises(UnknownRelationError):
            with prepare(fig1_query, fig1_db) as session:
                session.insert("Nope", (1,))
        assert session.updates_applied == 0
        assert session.count() == count_query(fig1_query, fig1_db)

    def test_closing_a_fork_leaves_its_parent_usable(self, fig1_query, fig1_db):
        session = prepare(fig1_query, fig1_db)
        fork = session.fork()
        fork.close()
        session.insert("R1", ("a2", "b2", "c1"))
        assert fork.count() == count_query(fig1_query, fig1_db)
        assert session.count() == count_query(fig1_query, session.db)
