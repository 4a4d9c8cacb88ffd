"""Unit tests for the incremental delta re-evaluator."""

import re

import pytest

from repro.engine import Database, Relation, patch
from repro.engine.columnar import ColumnarRelation
from repro.evaluation import IncrementalEvaluator, PROBE_ATTRIBUTE, count_query
from repro.evaluation.incremental import compact_updates
from repro.evaluation.joinstate import JoinState, RelationDelta
from repro.core import naive_tuple_sensitivity
from repro.query import component_trees, parse_predicate, parse_query
from repro.query.jointree import join_tree_from_parents
from repro.session import prepare
from repro.exceptions import (
    MultiplicityOverflowError,
    SchemaError,
    UnknownRelationError,
)

BACKENDS = ("python", "columnar")


@pytest.mark.parametrize("backend", BACKENDS)
class TestAgainstFullReevaluation:
    def test_base_count_matches(self, fig1_query, fig1_db, backend):
        db = fig1_db.with_backend(backend)
        evaluator = IncrementalEvaluator(fig1_query, db)
        assert evaluator.base_count == count_query(fig1_query, db)

    def test_deltas_match_per_tuple_reruns(self, fig1_query, fig1_db, backend):
        db = fig1_db.with_backend(backend)
        evaluator = IncrementalEvaluator(fig1_query, db)
        for relation in fig1_query.relation_names:
            for row in db.relation(relation):
                expected = naive_tuple_sensitivity(fig1_query, db, relation, row)
                delta = evaluator.delta(relation, row)
                assert delta == expected
                assert evaluator.base_count + delta == count_query(
                    fig1_query, db.add_tuple(relation, row)
                )
                assert evaluator.base_count - delta == count_query(
                    fig1_query, db.remove_tuple(relation, row)
                )

    def test_batch_matches_single_probes(self, fig3_query, fig3_db, backend):
        db = fig3_db.with_backend(backend)
        evaluator = IncrementalEvaluator(fig3_query, db)
        for relation in fig3_query.relation_names:
            rows = list(db.relation(relation)) + [("zz", "zz")]
            batch = evaluator.delta_batch(relation, rows)
            assert batch == [evaluator.delta(relation, row) for row in rows]

    def test_duplicate_row_deletes_one_occurrence(self, fig3_query, fig3_db, backend):
        # Fig. 3's R1 holds ("a2", "b2") twice; the probe must account for
        # removing a single occurrence, not the whole group.
        db = fig3_db.with_backend(backend)
        evaluator = IncrementalEvaluator(fig3_query, db)
        expected = evaluator.base_count - count_query(
            fig3_query, db.remove_tuple("R1", ("a2", "b2"))
        )
        assert evaluator.delta("R1", ("a2", "b2")) == expected

    def test_ghd_triangle(self, triangle_query, triangle_db, backend):
        db = triangle_db.with_backend(backend)
        evaluator = IncrementalEvaluator(triangle_query, db)
        assert evaluator.base_count == count_query(triangle_query, db)
        for relation in triangle_query.relation_names:
            for row in db.relation(relation):
                expected = naive_tuple_sensitivity(
                    triangle_query, db, relation, row
                )
                assert evaluator.delta(relation, row) == expected

    def test_probes_read_maintained_topjoins(
        self, fig1_query, fig1_db, backend, monkeypatch
    ):
        """Probes join the state's own topjoins: the first probe builds
        them, ``apply`` folds them, and no later probe rebuilds them."""
        from repro.evaluation import joinstate

        built = []
        compute_topjoins = joinstate.compute_topjoins

        def counting(*args):
            built.append(args)
            return compute_topjoins(*args)

        monkeypatch.setattr(joinstate, "compute_topjoins", counting)
        evaluator = IncrementalEvaluator(fig1_query, fig1_db.with_backend(backend))
        probes = {
            "R1": ("a2", "b2", "c1"),
            "R2": ("a2", "b1", "d9"),
            "R3": ("a2", "e9"),
            "R4": ("b2", "f9"),
        }

        def check():
            for relation, row in probes.items():
                assert evaluator.delta(relation, row) == naive_tuple_sensitivity(
                    fig1_query, evaluator.db, relation, row
                ), relation

        check()
        evaluator.apply_batch([RelationDelta("R3", {("a2", "e3"): 1}, {})])
        check()
        assert len(built) == 1

    def test_disconnected_components_multiply(self, backend):
        query = parse_query("Q(A,B) :- R(A), S(B)")
        db = Database(
            {
                "R": Relation(["A"], [(1,), (1,), (2,)]),
                "S": Relation(["B"], [(7,), (8,)]),
            },
            backend=backend,
        )
        evaluator = IncrementalEvaluator(query, db)
        assert evaluator.base_count == 6
        # Inserting into R adds |S| join results, and vice versa.
        assert evaluator.delta("R", (9,)) == 2
        assert evaluator.delta("S", (9,)) == 3
        assert evaluator.base_count - evaluator.delta("R", (1,)) == 4


@pytest.mark.parametrize("backend", BACKENDS)
class TestEdgeCases:
    def test_empty_relation(self, backend):
        query = parse_query("Q(A,B) :- R(A), S(A,B)")
        db = Database(
            {
                "R": Relation(["A"], []),
                "S": Relation(["A", "B"], [(1, 2), (1, 3)]),
            },
            backend=backend,
        )
        evaluator = IncrementalEvaluator(query, db)
        assert evaluator.base_count == 0
        assert evaluator.delta("R", (1,)) == 2
        assert evaluator.delta("R", (9,)) == 0
        assert evaluator.delta_batch("S", [(1, 2)]) == [0]

    def test_zero_count_deltas(self, fig1_query, fig1_db, backend):
        db = fig1_db.with_backend(backend)
        evaluator = IncrementalEvaluator(fig1_query, db)
        # A tuple joining nothing contributes nothing.
        assert evaluator.delta("R3", ("zz", "zz")) == 0
        # Deleting an absent tuple is a no-op.
        before = evaluator.base_count
        absent = compact_updates(evaluator.db, [(False, "R3", ("zz", "zz"))])
        assert evaluator.apply_batch(absent) == before
        assert evaluator.db.relation("R3").multiplicity(("zz", "zz")) == 0

    def test_selection_blocks_probe(self, backend):
        query = parse_query("Q(A,B) :- R(A), S(A,B)").with_selection(
            "R", parse_predicate("A != 1")
        )
        db = Database(
            {
                "R": Relation(["A"], [(1,), (2,)]),
                "S": Relation(["A", "B"], [(1, 2), (2, 3)]),
            },
            backend=backend,
        )
        evaluator = IncrementalEvaluator(query, db)
        assert evaluator.base_count == 1
        assert evaluator.delta("R", (1,)) == 0  # filtered out -> no effect
        assert evaluator.delta("R", (2,)) == 1

    def test_empty_batch(self, fig1_query, fig1_db, backend):
        db = fig1_db.with_backend(backend)
        evaluator = IncrementalEvaluator(fig1_query, db)
        assert evaluator.delta_batch("R1", []) == []

    def test_unknown_relation(self, fig1_query, fig1_db, backend):
        evaluator = IncrementalEvaluator(
            fig1_query, fig1_db.with_backend(backend)
        )
        with pytest.raises(UnknownRelationError):
            evaluator.delta("nope", (1, 2, 3))

    def test_probe_arity_mismatch(self, fig1_query, fig1_db, backend):
        evaluator = IncrementalEvaluator(
            fig1_query, fig1_db.with_backend(backend)
        )
        with pytest.raises(SchemaError):
            evaluator.delta("R1", ("a1",))

    def test_reserved_probe_variable_rejected(self, backend):
        from repro.query.atoms import Atom
        from repro.query.conjunctive import ConjunctiveQuery

        query = ConjunctiveQuery([Atom("R", ("A", PROBE_ATTRIBUTE))])
        db = Database(
            {"R": Relation(["A", "B"], [(1, 2)])}, backend=backend
        )
        with pytest.raises(SchemaError):
            IncrementalEvaluator(query, db)


class TestOverflowPropagation:
    def test_columnar_probe_overflow_raises(self):
        # Star tree rooted at the empty R: the base structure builds fine
        # (every botjoin fits int64, the root join is empty), but a probe
        # into R multiplies the two 2^62 child botjoins and must surface
        # the columnar overflow rather than wrap.
        query = parse_query("Q(A) :- R(A), S1(A), S2(A)")
        huge = 2**62
        db = Database(
            {
                "R": ColumnarRelation(["A"], {}),
                "S1": ColumnarRelation(["A"], {("x",): huge}),
                "S2": ColumnarRelation(["A"], {("x",): huge}),
            }
        )
        tree = join_tree_from_parents(query, "R", {"S1": "R", "S2": "R"})
        evaluator = IncrementalEvaluator(
            query, db, component_pairs=component_trees(query, tree)
        )
        assert evaluator.base_count == 0
        with pytest.raises(MultiplicityOverflowError):
            evaluator.delta("R", ("x",))

    def test_failed_apply_commits_nothing(self):
        # An applied update that overflows int64 mid-propagation must not
        # leave the evaluator half-mutated: the db snapshot, the cached
        # count and every later update stay coherent.
        query = parse_query("Q(A) :- R(A), S(A)")
        big = 4 * 10**18
        db = Database(
            {
                "R": ColumnarRelation(["A"], {("x",): big}),
                "S": ColumnarRelation(["A"], {("x",): 2}),
            }
        )
        evaluator = IncrementalEvaluator(query, db)
        assert evaluator.base_count == 2 * big
        with pytest.raises(MultiplicityOverflowError):
            evaluator.apply_batch([RelationDelta("S", {("x",): 1}, {})])
        assert evaluator.db.relation("S").multiplicity(("x",)) == 2
        assert evaluator.base_count == 2 * big
        # The evaluator is still fully usable after the failed commit.
        assert evaluator.apply_batch([RelationDelta("S", {}, {("x",): 1})]) == big
        assert evaluator.base_count == count_query(query, evaluator.db)

    def test_python_backend_is_arbitrary_precision(self):
        query = parse_query("Q(A) :- R(A), S1(A), S2(A)")
        huge = 2**62
        db = Database(
            {
                "R": Relation(["A"], {}),
                "S1": Relation(["A"], {("x",): huge}),
                "S2": Relation(["A"], {("x",): huge}),
            }
        )
        tree = join_tree_from_parents(query, "R", {"S1": "R", "S2": "R"})
        evaluator = IncrementalEvaluator(
            query, db, component_pairs=component_trees(query, tree)
        )
        assert evaluator.delta("R", ("x",)) == huge * huge


class TestBatchAcrossComponents:
    """A batch spanning two components commits both or neither.

    ``R ⋈ S`` and ``T ⋈ U`` are separate components.  ``R +(1,)`` folds
    into the first; ``T +(x,)`` then takes ``K('U')`` from 2**62 to 2**63,
    past int64 on columnar, so the first component must not commit its
    fold either.  Python counts ``2 · 2**63``.
    """

    QUERY = parse_query("Q(A,B) :- R(A), S(A), T(B), U(B)")
    RELATIONS = {
        "R": Relation(["A"], {(1,): 1}),
        "S": Relation(["A"], {(1,): 1}),
        "T": Relation(["B"], {("x",): 1}),
        "U": Relation(["B"], {("x",): 2**62}),
    }
    BATCH = [("insert", "R", (1,)), ("insert", "T", ("x",))]

    @staticmethod
    def _levels(state):
        """Every maintained dict of a state: atoms, botjoins, topjoins
        and tables."""
        tables = {rel: state.multiplicity_table(rel) for rel in state.tables_materialised}
        return (
            dict(state.bound.atom_relations),
            dict(state.botjoins),
            dict(state.topjoins()),
            tables,
        )

    @classmethod
    def _assert_same_objects(cls, state, levels):
        for before, after in zip(levels, cls._levels(state)):
            assert before.keys() == after.keys()
            assert all(after[key] is value for key, value in before.items())

    def _session(self, backend):
        session = prepare(self.QUERY, Database(self.RELATIONS, backend=backend))
        session.sensitivity()  # builds topjoins and tables
        return session

    def test_python_folds_both_components(self):
        assert self._session("python").apply(self.BATCH) == 2**64

    def test_columnar_overflow_commits_neither_component(self):
        session = self._session("columnar")
        evaluator = session._ensure_evaluator()
        db, count = evaluator.db, evaluator.base_count
        states = evaluator.component_states
        levels = [self._levels(state) for state in states]
        assert len(states) == 2
        assert all(level for state_levels in levels for level in state_levels)
        with pytest.raises(MultiplicityOverflowError, match=r"^botjoin K\('U'\): "):
            session.apply(self.BATCH)
        assert evaluator.db is db and session.db is db
        assert evaluator.base_count == count
        assert (session.count(), session.updates_applied) == (count, 0)
        for state, state_levels in zip(states, levels):
            self._assert_same_objects(state, state_levels)

    def test_stage_returns_a_fork_and_commit_adopts_it(self):
        session = self._session("columnar")
        (state,) = [
            state for state in session._states() if "R" in state.query.relation_names
        ]
        levels = self._levels(state)
        botjoins = state.botjoins
        rows = {(1,): 1}
        base = session.db.relation("R")
        work = state.fork()
        work.stage_fold("R", rows, True, patch(base, plus=type(base)(base.schema, rows)))
        assert isinstance(work, JoinState)
        assert (work.count, state.count) == (2, 1)
        assert state.botjoins is botjoins
        self._assert_same_objects(state, levels)
        state.commit_update_batch(work)
        assert state.count == 2
        assert state.botjoins is work.botjoins


class TestCompaction:
    """compact_updates: delta-log-with-compaction semantics."""

    @staticmethod
    def _db(counts, backend="python"):
        return Database({"R": Relation(["A", "B"], counts)}, backend=backend)

    def test_duplicate_inserts_coalesce(self):
        db = self._db({})
        deltas = compact_updates(
            db, [(True, "R", (1, 2)), (True, "R", (1, 2)), (True, "R", (3, 4))]
        )
        assert len(deltas) == 1
        assert deltas[0].plus == {(1, 2): 2, (3, 4): 1}
        assert deltas[0].minus == {}

    def test_insert_then_delete_cancels(self):
        db = self._db({})
        deltas = compact_updates(
            db, [(True, "R", (1, 2)), (False, "R", (1, 2))]
        )
        assert deltas == []

    def test_delete_clamps_against_pre_batch_multiplicity(self):
        db = self._db({(1, 2): 1})
        # Two deletes of a singleton: the second is a clamped no-op, so
        # the net minus is 1 — never 2.
        deltas = compact_updates(
            db, [(False, "R", (1, 2)), (False, "R", (1, 2))]
        )
        assert deltas[0].minus == {(1, 2): 1}
        # Absent-row deletes compact to nothing at all.
        assert compact_updates(db, [(False, "R", (9, 9))]) == []

    def test_delete_insert_reorder_respects_clamping(self):
        db = self._db({})
        # delete-then-insert on an absent row: the delete clamps first,
        # so the net is +1 (NOT a cancellation — order inside a relation
        # matters exactly as much as sequential replay says it does).
        deltas = compact_updates(
            db, [(False, "R", (1, 2)), (True, "R", (1, 2))]
        )
        assert deltas[0].plus == {(1, 2): 1}
        assert deltas[0].minus == {}

    def test_mixed_net_signs_split_per_tuple(self):
        db = self._db({(1, 2): 3, (3, 4): 1})
        deltas = compact_updates(
            db,
            [
                (False, "R", (1, 2)),
                (False, "R", (1, 2)),
                (True, "R", (5, 6)),
                (False, "R", (3, 4)),
            ],
        )
        assert deltas[0].plus == {(5, 6): 1}
        assert deltas[0].minus == {(1, 2): 2, (3, 4): 1}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_over_delete_delta_rejected(self, fig1_query, fig1_db, backend):
        """apply_batch trusts compacted deltas; a hand-built delta that
        deletes more copies than exist is rejected before any commit."""
        from repro.exceptions import SessionError

        db = fig1_db.with_backend(backend)
        evaluator = IncrementalEvaluator(fig1_query, db)
        before = evaluator.base_count
        bogus = RelationDelta("R1", {}, {("a1", "b1", "c1"): 99})
        with pytest.raises(SessionError):
            evaluator.apply_batch([bogus])
        assert evaluator.base_count == before
        assert evaluator.db.relation("R1").multiplicity(("a1", "b1", "c1")) == 1
        # Both sides go into one patch; the guard still names the row.
        both = RelationDelta("R1", {("a9", "b9", "c9"): 1}, {("a1", "b1", "c1"): 99})
        with pytest.raises(SessionError, match=re.escape(repr(("a1", "b1", "c1")))):
            evaluator.apply_batch([both])
        assert evaluator.base_count == before
        assert evaluator.db.relation("R1").multiplicity(("a1", "b1", "c1")) == 1
        assert evaluator.db.relation("R1").multiplicity(("a9", "b9", "c9")) == 0
        # A row on both sides may not take more than the database holds,
        # although the sum of the one patch would hide it.
        shared = RelationDelta("R1", {("a9", "b9", "c9"): 2}, {("a9", "b9", "c9"): 1})
        with pytest.raises(SessionError, match=re.escape(repr(("a9", "b9", "c9")))):
            evaluator.apply_batch([shared])
        assert evaluator.base_count == before
        assert evaluator.db.relation("R1").multiplicity(("a9", "b9", "c9")) == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_session_apply_looks_each_relation_up_once(
        self, fig1_query, fig1_db, backend, monkeypatch
    ):
        """Compaction looks up the batch's rows once per touched relation;
        the over-delete guard reads the monus patch, not the rows again."""
        session = prepare(fig1_query, fig1_db.with_backend(backend))
        session.sensitivity()
        before = session.db
        relation_cls = type(before.relation("R1"))
        looked_up = []
        real = relation_cls.multiplicities

        def spy(relation, rows):
            looked_up.append(relation)
            return real(relation, rows)

        monkeypatch.setattr(relation_cls, "multiplicities", spy)
        session.apply(
            [
                ("delete", "R1", ("a1", "b1", "c1")),
                ("insert", "R1", ("a9", "b9", "c9")),
                ("delete", "R3", ("a2", "e2")),
                ("insert", "R4", ("b9", "f9")),
            ]
        )
        assert [id(rel) for rel in looked_up] == [
            id(before.relation(name)) for name in ("R1", "R3", "R4")
        ]
        assert session.count() == prepare(fig1_query, session.db).count()


@pytest.mark.parametrize("backend", BACKENDS)
class TestOnePatchPerUpdate:
    """A session apply patches each touched database relation once per
    batch, with both sides of its delta.  An atom without a selection is
    bound from that patch (a rename sharing its arrays); an atom with a
    selection patches its own filtered delta."""

    @staticmethod
    def _spy_patches(monkeypatch):
        from repro.evaluation import incremental, joinstate

        patched = []
        real = joinstate.patch

        def spy(relation, plus=None, minus=None):
            patched.append(relation)
            return real(relation, plus, minus)

        monkeypatch.setattr(joinstate, "patch", spy)
        monkeypatch.setattr(incremental, "patch", spy)
        return patched

    @staticmethod
    def _assert_matches_fresh(query, session):
        fresh = prepare(query, session.db)
        assert session.count() == fresh.count()
        ours, theirs = session.sensitivity(), fresh.sensitivity()
        assert ours.local_sensitivity == theirs.local_sensitivity
        assert ours.witness == theirs.witness
        assert ours.per_relation == theirs.per_relation

    def test_unfiltered_relation_patched_once(
        self, fig1_query, fig1_db, backend, monkeypatch
    ):
        session = prepare(fig1_query, fig1_db.with_backend(backend))
        session.sensitivity()
        (state,) = session._states()
        relation, atom = session.db.relation("R3"), state.bound.atom_relation("R3")
        patched = self._spy_patches(monkeypatch)
        session.apply([("insert", "R3", ("a1", "e9"))])
        assert [rel for rel in patched if rel is relation or rel is atom] == [relation]
        new_atom = state.bound.atom_relation("R3")
        assert new_atom is not atom
        assert dict(new_atom.counts) == dict(session.db.relation("R3").counts)
        if backend == "columnar":
            shared = zip(new_atom._codes, session.db.relation("R3")._codes)
            assert all(a is b for a, b in shared)
        self._assert_matches_fresh(fig1_query, session)

    def test_filtered_atom_still_patched(self, fig1_query, fig1_db, backend, monkeypatch):
        query = fig1_query.with_selection("R3", parse_predicate("E != 'e2'"))
        session = prepare(query, fig1_db.with_backend(backend))
        session.sensitivity()
        (state,) = session._states()
        patched = self._spy_patches(monkeypatch)
        for row in [("a1", "e9"), ("a2", "e2")]:
            relation = session.db.relation("R3")
            atom = state.bound.atom_relation("R3")
            patched.clear()
            session.apply([("insert", "R3", row)])
            # A row the selection drops reaches the database only.
            touched = [atom] if row[1] != "e2" else []
            assert [rel for rel in patched if rel is relation or rel is atom] == (
                [relation] + touched
            )
            assert ("a2", "e2") not in state.bound.atom_relation("R3").counts
            self._assert_matches_fresh(query, session)

    def test_two_sided_delta_patches_its_relation_once(
        self, fig1_query, fig1_db, backend, monkeypatch
    ):
        """A delta with both sides patches its database relation once, with
        both sides, and the atom is bound from that one relation."""
        from repro.evaluation import incremental

        session = prepare(fig1_query, fig1_db.with_backend(backend))
        session.sensitivity()
        (state,) = session._states()
        relation = session.db.relation("R3")
        deleted = min(relation.counts)
        calls = []
        real = incremental.patch

        def spy(base, plus=None, minus=None):
            calls.append((base, plus, minus))
            return real(base, plus, minus)

        monkeypatch.setattr(incremental, "patch", spy)
        session.apply([("insert", "R3", ("a1", "e9")), ("delete", "R3", deleted)])
        ((base, plus, minus),) = calls
        assert base is relation
        assert dict(plus.counts) == {("a1", "e9"): 1}
        assert dict(minus.counts) == {deleted: 1}
        new_atom = state.bound.atom_relation("R3")
        assert dict(new_atom.counts) == dict(session.db.relation("R3").counts)
        if backend == "columnar":
            shared = zip(new_atom._codes, session.db.relation("R3")._codes)
            assert all(a is b for a, b in shared)
        self._assert_matches_fresh(fig1_query, session)

    def test_both_sides_bind_the_atom_from_the_whole_delta(self, backend):
        """Both sides of a delta bind the atom from the database relation
        with the whole delta in: no step of either side's fold reads the
        changed atom.  On q3, a batch that deletes one C row (C stays
        unique on CK, so O's table stays keyed on C) and inserts a row
        that reuses a CK (which breaks the key) must leave O's table as a
        fresh build has it, although only the insert side, folded second,
        breaks the key."""
        from repro.datasets.tpch import generate_tpch
        from repro.workloads.tpch_queries import q3_workload

        workload = q3_workload()
        db = workload.prepare(generate_tpch(0.001, seed=0, backend=backend))
        session = prepare(workload.query, db, tree=workload.tree)
        skip = workload.skip_relations
        session.sensitivity(skip_relations=skip)
        rows = sorted(session.db.relation("C").counts)
        nk, ck = rows[-1]
        other_nk = next(n for n, _ in rows if n != nk)
        session.apply([("delete", "C", rows[0]), ("insert", "C", (other_nk, ck))])
        fresh = prepare(workload.query, session.db, tree=workload.tree)
        (factor,) = session._states()[0].multiplicity_table("O").factors
        (expected,) = fresh._states()[0].multiplicity_table("O").factors
        assert dict(factor.items()) == dict(expected.items())
        assert session.count() == fresh.count()
        result = session.sensitivity(skip_relations=skip)
        assert result.per_relation == fresh.sensitivity(skip_relations=skip).per_relation


class TestBulkMultiplicities:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_single_lookups(self, fig1_db, backend):
        relation = fig1_db.with_backend(backend).relation("R1")
        rows = list(relation) + [("zz", "zz", "zz")]
        assert relation.multiplicities(rows) == [
            relation.counts.get(row, 0) for row in rows
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_arity_checked(self, fig1_db, backend):
        relation = fig1_db.with_backend(backend).relation("R1")
        with pytest.raises(SchemaError):
            relation.multiplicities([("a1",)])
