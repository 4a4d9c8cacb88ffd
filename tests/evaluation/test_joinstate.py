"""Unit tests for the maintained join-state layer.

The property suite (``tests/property/test_sensitivity_maintenance.py``)
pins end-to-end equivalence of maintained sensitivity reads; these tests
check the :class:`~repro.evaluation.joinstate.JoinState` mechanics
directly — laziness, per-level delta folding against full recomputation,
selection filtering and staged atomicity.  Folds run through the one fold
driver, :meth:`IncrementalEvaluator.apply_batch`, over a one-component
plan: the evaluator's state commits in place.
"""

import pytest

from repro.engine import Database, Relation, patch
from repro.evaluation import IncrementalEvaluator, JoinState, compute_topjoins
from repro.evaluation.joinstate import RelationDelta, table_layout
from repro.query import component_trees, parse_predicate, parse_query
from repro.query.gyo import gyo_join_tree
from repro.query.jointree import join_tree_from_parents
from repro.exceptions import MultiplicityOverflowError

BACKENDS = ("python", "columnar")


def _evaluator(query, tree, db):
    """An evaluator over the one-component plan ``tree`` and its state,
    which ``evaluator.apply_batch`` folds into in place."""
    evaluator = IncrementalEvaluator(
        query, db, component_pairs=component_trees(query, tree)
    )
    (state,) = evaluator.component_states
    return evaluator, state


def _state(query, db, backend):
    db = db.with_backend(backend)
    evaluator, state = _evaluator(query, gyo_join_tree(query), db)
    return evaluator, state, db


def _patched(db, relation, counts, insert):
    """``db`` with the bag ``counts`` patched into or out of ``relation``."""
    base = db.relation(relation)
    side = type(base)(base.schema, counts)
    return db.with_relation(
        relation, patch(base, plus=side) if insert else patch(base, minus=side)
    )


def _one(relation, row, insert):
    """A one-tuple signed delta: ``+row`` or ``-row`` of ``relation``."""
    return RelationDelta(
        relation, {row: 1} if insert else {}, {} if insert else {row: 1}
    )


def _same_bag(left, right):
    rows = set(left) | set(right)
    assert tuple(left.attributes) == tuple(right.attributes)
    for row in rows:
        assert left.multiplicity(row) == right.multiplicity(row), row


def _assert_levels_match_fresh(state, query, db):
    """Every maintained level equals a freshly built state on ``db``."""
    fresh = JoinState(query, state.tree, db)
    for node_id in state.tree.node_ids:
        _same_bag(state.botjoins[node_id], fresh.botjoins[node_id])
    if state.topjoins_materialised:
        fresh_top = compute_topjoins(fresh.bound, fresh.botjoins)
        for node_id, top in state.topjoins().items():
            if top is None:
                assert fresh_top[node_id] is None
            else:
                _same_bag(top, fresh_top[node_id])
    for relation in state.tables_materialised:
        maintained = state.multiplicity_table(relation)
        rebuilt = fresh.multiplicity_table(relation)
        assert len(maintained.factors) == len(rebuilt.factors)
        for a, b in zip(maintained.factors, rebuilt.factors):
            _same_bag(a, b)


@pytest.mark.parametrize("backend", BACKENDS)
class TestMaintainedLevels:
    def test_fold_matches_fresh_rebuild(self, fig1_query, fig1_db, backend):
        evaluator, state, db = _state(fig1_query, fig1_db, backend)
        state.topjoins()
        for relation in fig1_query.relation_names:
            state.multiplicity_table(relation)
        updates = [
            ("R1", ("a2", "b2", "c1"), True),
            ("R3", ("a2", "e3"), True),
            ("R2", ("a1", "b1", "d1"), False),
            ("R4", ("b2", "f2"), False),
            ("R1", ("a9", "b9", "c9"), True),  # joins nothing below the node
        ]
        for relation, row, insert in updates:
            evaluator.apply_batch([_one(relation, row, insert)])
            db = _patched(db, relation, {row: 1}, insert)
            _assert_levels_match_fresh(state, fig1_query, db)

    def test_deep_path_fold(self, fig3_query, fig3_db, backend):
        evaluator, state, db = _state(fig3_query, fig3_db, backend)
        state.topjoins()
        for relation in fig3_query.relation_names:
            state.multiplicity_table(relation)
        for relation, row, insert in [
            ("R4", ("d1", "e9"), True),
            ("R1", ("a1", "b1"), False),
            ("R2", ("b2", "c1"), False),
        ]:
            evaluator.apply_batch([_one(relation, row, insert)])
            db = _patched(db, relation, {row: 1}, insert)
            _assert_levels_match_fresh(state, fig3_query, db)

    def test_broom_sideways_then_downward_fold(self, backend):
        """A star around a hub plus a two-hop handle: an update in the
        handle stages sibling topjoins at the hub (sideways) whose own
        subtrees then re-propagate (downward) — the deepest composition
        of the root-to-leaf fold."""
        query = parse_query(
            "Q(A,B,C,D,F,G) :- Hub(A,B), S1(A,C), S2(A,D), T1(B,F), T2(F,G)"
        )
        tree = join_tree_from_parents(
            query, "Hub", {"S1": "Hub", "S2": "Hub", "T1": "Hub", "T2": "T1"}
        )
        db = Database(
            {
                "Hub": Relation(["A", "B"], [(0, 1), (1, 1), (1, 2)]),
                "S1": Relation(["A", "C"], [(0, 7), (1, 7), (1, 8)]),
                "S2": Relation(["A", "D"], [(0, 3), (1, 3)]),
                "T1": Relation(["B", "F"], [(1, 4), (2, 4), (2, 5)]),
                "T2": Relation(["F", "G"], [(4, 6), (5, 6), (5, 9)]),
            },
            backend=backend,
        )
        evaluator, state = _evaluator(query, tree, db)
        state.topjoins()
        for relation in query.relation_names:
            state.multiplicity_table(relation)
        for relation, row, insert in [
            ("S1", (1, 9), True),   # star leaf: sideways reaches T1, then T2
            ("T2", (4, 2), True),   # handle tip: up two levels, across, down
            ("T1", (1, 4), False),  # mid-handle delete
            ("Hub", (1, 1), False), # root: pure downward everywhere
        ]:
            evaluator.apply_batch([_one(relation, row, insert)])
            db = _patched(db, relation, {row: 1}, insert)
            _assert_levels_match_fresh(state, query, db)

    def test_ghd_multi_atom_node_fold(self, backend):
        query = parse_query("R1(A,B), R2(B,C), R3(C,A)")
        db = Database(
            {
                "R1": Relation(["A", "B"], [(0, 1), (1, 1), (1, 2)]),
                "R2": Relation(["B", "C"], [(1, 0), (1, 1), (2, 0)]),
                "R3": Relation(["C", "A"], [(0, 0), (0, 1), (1, 1)]),
            },
            backend=backend,
        )
        from repro.query.ghd import auto_decompose

        tree = auto_decompose(query)
        evaluator, state = _evaluator(query, tree, db)
        state.topjoins()
        for relation in query.relation_names:
            state.multiplicity_table(relation)
        for relation, row, insert in [
            ("R1", (1, 1), True),
            ("R2", (1, 1), False),
            ("R3", (0, 0), False),
        ]:
            evaluator.apply_batch([_one(relation, row, insert)])
            db = _patched(db, relation, {row: 1}, insert)
            _assert_levels_match_fresh(state, query, db)


@pytest.mark.parametrize("backend", BACKENDS)
class TestLazinessAndInvalidation:
    def test_count_only_sessions_never_materialise(
        self, fig1_query, fig1_db, backend
    ):
        evaluator, state, _ = _state(fig1_query, fig1_db, backend)
        assert not state.topjoins_materialised
        assert state.tables_materialised == ()
        evaluator.apply_batch([_one("R3", ("a1", "e9"), True)])
        assert not state.topjoins_materialised
        assert state.tables_materialised == ()

    def test_partial_tables_stay_partial(self, fig1_query, fig1_db, backend):
        evaluator, state, _ = _state(fig1_query, fig1_db, backend)
        state.multiplicity_table("R3")
        evaluator.apply_batch([_one("R4", ("b1", "f9"), True)])
        assert state.tables_materialised == ("R3",)

    def test_selection_filtered_row_is_a_no_op(self, backend):
        query = parse_query("R(A,B), S(B,C)").with_selection(
            "R", parse_predicate("A != 0")
        )
        db = Database(
            {
                "R": Relation(["A", "B"], [(1, 2)]),
                "S": Relation(["B", "C"], [(2, 3)]),
            },
            backend=backend,
        )
        evaluator, state = _evaluator(query, gyo_join_tree(query), db)
        state.topjoins()
        before = state.count
        before_bots = dict(state.botjoins)
        evaluator.apply_batch([_one("R", (0, 2), True)])
        for node_id, bot in state.botjoins.items():
            assert bot is before_bots[node_id]
        assert state.count == before


class TestStagedAtomicity:
    def test_overflowing_update_leaves_state_untouched(self):
        # |Q(D)| sits just under int64; the staged fold of one more copy
        # of the R row adds another `big` outputs, overflowing during the
        # staged union — before anything was committed.
        big = (2**63 - 1) // 2
        query = parse_query("R(A,B), S(B,C)")
        db = Database(
            {
                "R": Relation(["A", "B"], {(1, 2): 2}),
                "S": Relation(["B", "C"], {(2, 3): big}),
            },
            backend="columnar",
        )
        evaluator, state = _evaluator(query, gyo_join_tree(query), db)
        state.topjoins()
        for relation in query.relation_names:
            state.multiplicity_table(relation)
        before_count = state.count
        before_atom = state.bound.atom_relation("R")
        before_tables = {
            relation: state.multiplicity_table(relation)
            for relation in query.relation_names
        }
        with pytest.raises(MultiplicityOverflowError):
            evaluator.apply_batch([_one("R", (1, 2), True)])
        assert evaluator.db is db
        assert state.count == before_count
        assert state.bound.atom_relation("R") is before_atom
        for relation in query.relation_names:
            assert state.multiplicity_table(relation) is before_tables[relation]


class TestTableLayout:
    def test_layout_matches_factored_shape(self, fig1_query):
        tree = gyo_join_tree(fig1_query)
        for relation in fig1_query.relation_names:
            layout = table_layout(fig1_query, tree, relation)
            assert layout.relation == relation
            covered = [a for c in layout.components for a in c.effective]
            assert sorted(covered) == sorted(layout.effective)

    def test_single_relation_query_has_no_parts(self):
        query = parse_query("R(A,B)")
        layout = table_layout(query, gyo_join_tree(query), "R")
        assert layout.components == ()
        assert layout.effective == ()


@pytest.mark.parametrize("backend", BACKENDS)
class TestBatchFolds:
    def test_delta_relation_batch_matches_fresh(
        self, fig1_query, fig1_db, backend
    ):
        """One apply_batch over whole delta relations lands on the
        same levels as a fresh rebuild on the mutated database."""
        evaluator, state, db = _state(fig1_query, fig1_db, backend)
        state.topjoins()
        for relation in fig1_query.relation_names:
            state.multiplicity_table(relation)
        deltas = [
            RelationDelta(
                "R1",
                {("a2", "b2", "c1"): 2, ("a9", "b9", "c9"): 1},
                {("a1", "b1", "c1"): 1},
            ),
            RelationDelta("R3", {("a2", "e3"): 1}, {}),
            RelationDelta("R2", {}, {("a1", "b1", "d1"): 1}),
        ]
        evaluator.apply_batch(deltas)
        for delta in deltas:
            db = _patched(db, delta.relation, delta.minus, False)
            db = _patched(db, delta.relation, delta.plus, True)
        _assert_levels_match_fresh(state, fig1_query, db)

    def test_one_tuple_batch_matches_fresh(self, fig1_query, fig1_db, backend):
        """A one-tuple batch lands every level, and the atom it binds from
        the patched database relation, on a fresh rebuild."""
        evaluator, state, db = _state(fig1_query, fig1_db, backend)
        state.topjoins()
        for relation in fig1_query.relation_names:
            state.multiplicity_table(relation)
        evaluator.apply_batch([_one("R3", ("a2", "e3"), True)])
        db = _patched(db, "R3", {("a2", "e3"): 1}, True)
        _assert_levels_match_fresh(state, fig1_query, db)
        fresh = JoinState(fig1_query, state.tree, db)
        assert state.count == fresh.count
        _same_bag(state.bound.atom_relation("R3"), fresh.bound.atom_relation("R3"))


class TestBatchAtomicity:
    def test_overflow_mid_batch_commits_nothing(self):
        """A batch whose second delta overflows must leave every level
        bit-identical: the first delta's staged folds never commit."""
        big = (2**63 - 1) // 2
        query = parse_query("R(A,B), S(B,C)")
        db = Database(
            {
                "R": Relation(["A", "B"], {(1, 2): 2}),
                "S": Relation(["B", "C"], {(2, 3): big}),
            },
            backend="columnar",
        )
        evaluator, state = _evaluator(query, gyo_join_tree(query), db)
        state.topjoins()
        for relation in query.relation_names:
            state.multiplicity_table(relation)
        before_count = state.count
        before_atoms = {
            relation: state.bound.atom_relation(relation)
            for relation in query.relation_names
        }
        before_bots = dict(state.botjoins)
        before_tables = {
            relation: state.multiplicity_table(relation)
            for relation in query.relation_names
        }
        deltas = [
            RelationDelta("R", {(9, 9): 1}, {}),  # fine on its own
            RelationDelta("R", {(1, 2): 1}, {}),  # overflows 3 * big
        ]
        with pytest.raises(MultiplicityOverflowError):
            evaluator.apply_batch(deltas)
        assert evaluator.db is db
        assert state.count == before_count
        for relation in query.relation_names:
            assert state.bound.atom_relation(relation) is before_atoms[relation]
            assert state.multiplicity_table(relation) is before_tables[relation]
        for node_id, bot in state.botjoins.items():
            assert bot is before_bots[node_id]
        # Still fully usable afterwards: (9, 9) joins nothing, so the
        # count is unchanged but the atom did commit this time.
        evaluator.apply_batch([_one("R", (9, 9), True)])
        assert state.count == before_count
        assert state.bound.atom_relation("R").multiplicity((9, 9)) == 1


@pytest.mark.parametrize("backend", BACKENDS)
class TestEarlyAggregatingTables:
    def test_q3_table_joins_stay_within_parts_and_factors(
        self, backend, monkeypatch
    ):
        """No pairwise join of a q3 table build outgrows both its largest
        input part and its largest output factor.

        Joining the parts in written order paired the R and N tables'
        ``K(gOC)[NK,OK]`` with ``K(gSP)[NK,SK,PK]`` on NK alone — a
        114,200-row join at TPC-H 0.001 against a 5,818-row largest part.
        Covers every table the q3 workload builds.  Its skipped L table is
        left out: a left-deep order from its first part still joins
        ``K(gOC) ⋈ K(gSP)`` on NK before the ``K(gPS)`` filter.
        """
        from repro.datasets.tpch import generate_tpch
        from repro.engine import operators
        from repro.workloads.tpch_queries import q3_workload

        workload = q3_workload()
        db = workload.prepare(generate_tpch(0.001, seed=0, backend=backend))
        state = JoinState(workload.query, workload.tree, db)
        state.topjoins()  # no table build below includes the topjoin pass
        join = operators.join
        sizes = []

        def spy(left, right):
            out = join(left, right)
            sizes.append(out.distinct_count())
            return out

        monkeypatch.setattr(operators, "join", spy)
        for relation in workload.query.relation_names:
            if relation in workload.skip_relations:
                continue
            layout = state.layout(relation)
            largest_part = max(
                (
                    state._part_value(part).distinct_count()
                    for component in layout.components
                    for part in component.parts
                ),
                default=0,
            )
            sizes.clear()
            table = state.multiplicity_table(relation)
            largest_factor = max(f.distinct_count() for f in table.factors)
            bound = max(largest_part, largest_factor)
            assert all(size <= bound for size in sizes), (relation, sizes, bound)


class TestOverflowNamesTheTable:
    def test_table_build_overflow_names_the_relation(self):
        """γ_B(R ⋈ T) = 2**64 overflows S's table on columnar; the error
        says which table and factor, and python still answers."""
        from repro.session import prepare

        query = parse_query("R(A,B), S(B,C), T(B,D)")
        relations = {
            "R": Relation(["A", "B"], {(1, 2): 2**62}),
            "S": Relation(["B", "C"], {(9, 9): 1}),
            "T": Relation(["B", "D"], {(2, 4): 4}),
        }
        python = prepare(query, Database(relations, backend="python"))
        assert python.sensitivity().local_sensitivity == 2**64
        session = prepare(query, Database(relations, backend="columnar"))
        assert session.count() == 0
        with pytest.raises(MultiplicityOverflowError) as raised:
            session.sensitivity()
        assert "multiplicity table for 'S', factor 0" in str(raised.value)
        assert isinstance(raised.value.__cause__, MultiplicityOverflowError)

    def test_table_patch_overflow_names_the_relation_and_commits_nothing(self):
        """A one-node tree: inserting into T changes no botjoin (R joins
        nothing), but R's table factor γ_B(T) passes int64 in the staged
        patch — which must name R and leave the state untouched."""
        from repro.query.ghd import ghd_from_groups

        query = parse_query("R(A,B), T(B,D)")
        tree = ghd_from_groups(query, {"g": ["R", "T"]}, "g", {})
        db = Database(
            {
                "R": Relation(["A", "B"], {(1, 9): 1}),
                "T": Relation(["B", "D"], {(2, 4): 2**62, (2, 5): 2**62 - 1}),
            },
            backend="columnar",
        )
        evaluator, state = _evaluator(query, tree, db)
        before = state.multiplicity_table("R")
        before_atom = state.bound.atom_relation("T")
        with pytest.raises(MultiplicityOverflowError) as raised:
            evaluator.apply_batch([_one("T", (2, 6), True)])
        assert "multiplicity table for 'R', factor 0" in str(raised.value)
        assert isinstance(raised.value.__cause__, MultiplicityOverflowError)
        assert state.multiplicity_table("R") is before
        assert state.bound.atom_relation("T") is before_atom
        assert state.count == 0


class TestOverflowNamesThePassLevel:
    def test_botjoin_overflow_names_the_node(self):
        """|Q(D)| = 2**62 * 4 = 2**64 overflows the root botjoin on
        columnar; the error names the pass and node, python answers."""
        from repro.session import prepare

        query = parse_query("R(A,B), T(B,D)")
        relations = {
            "R": Relation(["A", "B"], {(1, 2): 2**62}),
            "T": Relation(["B", "D"], {(2, 4): 4}),
        }
        assert prepare(query, Database(relations, backend="python")).count() == 2**64
        with pytest.raises(MultiplicityOverflowError) as raised:
            prepare(query, Database(relations, backend="columnar")).count()
        root = gyo_join_tree(query).root
        assert f"botjoin K({root!r}): " in str(raised.value)
        assert isinstance(raised.value.__cause__, MultiplicityOverflowError)

    def test_topjoin_overflow_names_the_node(self):
        """S1 is empty, so every botjoin fits and |Q(D)| = 0, but
        J(S1) = γ_A(R ⋈ K(S2)) = 2**64 overflows on columnar."""
        query = parse_query("R(A), S1(A), S2(A)")
        tree = join_tree_from_parents(query, "R", {"S1": "R", "S2": "R"})
        relations = {
            "R": Relation(["A"], {("x",): 2**62}),
            "S1": Relation(["A"], {}),
            "S2": Relation(["A"], {("x",): 4}),
        }
        python = JoinState(query, tree, Database(relations, backend="python"))
        assert python.topjoins()["S1"].multiplicity(("x",)) == 2**64
        state = JoinState(query, tree, Database(relations, backend="columnar"))
        assert state.count == 0
        with pytest.raises(MultiplicityOverflowError) as raised:
            state.topjoins()
        assert "topjoin J('S1'): " in str(raised.value)
        assert isinstance(raised.value.__cause__, MultiplicityOverflowError)
        assert not state.topjoins_materialised


@pytest.mark.parametrize("backend", BACKENDS)
class TestNoMaterialisedBags:
    def test_q3_joins_stay_within_atoms_and_levels(self, backend, monkeypatch):
        """No join of a cold q3 state, its topjoins or two folded batches
        outgrows the largest atom or the largest botjoin/topjoin.

        Materialising the root node (R ⋈ N) × L took 145,450 rows at
        TPC-H 0.001 against a 5,818-row largest atom, and every L fold
        rebuilt it.  The passes and folds now join a node's atoms inside
        their own early-aggregating joins.
        """
        from repro.datasets.tpch import generate_tpch
        from repro.engine import operators
        from repro.workloads.tpch_queries import q3_workload

        workload = q3_workload()
        db = workload.prepare(generate_tpch(0.001, seed=0, backend=backend))
        join = operators.join
        sizes = []

        def spy(left, right):
            out = join(left, right)
            sizes.append(out.distinct_count())
            return out

        monkeypatch.setattr(operators, "join", spy)

        def largest_structure(state):
            levels = list(state.bound.atom_relations.values())
            levels += state.botjoins.values()
            levels += [top for top in state.topjoins().values() if top is not None]
            return max(level.distinct_count() for level in levels)

        evaluator, state = _evaluator(workload.query, workload.tree, db)
        limit = largest_structure(state)
        lineitems = sorted(db.relation("L"))[:20]
        orders = sorted(db.relation("O"))[:20]
        evaluator.apply_batch([RelationDelta("L", dict.fromkeys(lineitems, 1), {})])
        evaluator.apply_batch([RelationDelta("O", {}, dict.fromkeys(orders, 1))])
        limit = max(limit, largest_structure(state))
        assert sizes
        assert max(sizes) <= limit, (max(sizes), limit)


@pytest.mark.parametrize("backend", BACKENDS)
class TestFoldSharesNodeCores:
    def test_q3_o_fold_joins_the_root_atom_once(self, backend, monkeypatch):
        """An O fold moves K(gOC); the root's step turns that into ΔK(gRNL)
        and the topjoin deltas of gSP and gPS.  All three start from one
        core, ΔK(gOC) joined with the root's atoms, so each fold joins the
        root's atom L once, not once per level it feeds."""
        from repro.datasets.tpch import generate_tpch
        from repro.engine import operators
        from repro.workloads.tpch_queries import q3_workload

        workload = q3_workload()
        db = workload.prepare(generate_tpch(0.001, seed=0, backend=backend))
        evaluator, state = _evaluator(workload.query, workload.tree, db)
        # Orders whose (NK, OK) meets J(gOC) reach the output.
        reach = state.topjoins()["gOC"]
        nation = {ck: nk for nk, ck in db.relation("C")}
        reaching = [
            (ck, ok) for ck, ok in sorted(db.relation("O"))
            if reach.multiplicity((nation[ck], ok))
        ]
        orders = dict.fromkeys(reaching[:3], 1)
        lineitem = state.bound.atom_relation("L")
        join = operators.join
        with_lineitem = []

        def spy(left, right):
            with_lineitem.append(left is lineitem or right is lineitem)
            return join(left, right)

        monkeypatch.setattr(operators, "join", spy)
        for delta in (RelationDelta("O", {}, orders), RelationDelta("O", orders, {})):
            before = dict(state.topjoins())
            count = state.count
            with_lineitem.clear()
            evaluator.apply_batch([delta])
            assert sum(with_lineitem) == 1
            assert state.count != count
            assert state.topjoins()["gSP"] is not before["gSP"]
            assert state.topjoins()["gPS"] is not before["gPS"]
        assert not state.tables_materialised
        _assert_levels_match_fresh(state, workload.query, db)


@pytest.mark.parametrize("backend", BACKENDS)
class TestFoldOverflowNamesTheStructure:
    """A fold's columnar overflow names the relation, atom, botjoin or
    topjoin it hit, chained from the engine's error, and commits nothing;
    python answers exactly."""

    @staticmethod
    def _raises(evaluator, delta, label):
        (state,) = evaluator.component_states
        before_db = evaluator.db
        before_count = state.count
        before_atoms = dict(state.bound.atom_relations)
        before_botjoins = dict(state.botjoins)
        before_topjoins = dict(state.topjoins()) if state.topjoins_materialised else None
        with pytest.raises(MultiplicityOverflowError) as raised:
            evaluator.apply_batch([delta])
        assert str(raised.value).startswith(f"{label}: ")
        assert isinstance(raised.value.__cause__, MultiplicityOverflowError)
        assert evaluator.db is before_db
        assert state.count == before_count
        assert all(state.bound.atom_relations[r] is rel for r, rel in before_atoms.items())
        assert all(state.botjoins[n] is rel for n, rel in before_botjoins.items())
        if before_topjoins is not None:
            assert all(state.topjoins()[n] is rel for n, rel in before_topjoins.items())

    def test_botjoin(self, backend):
        """K('S') = γ_A(S) sits at 2**63 - 1; two more S rows take it to
        2**63 + 1."""
        from repro.session import prepare

        query = parse_query("R(A), S(A,B)")
        tree = join_tree_from_parents(query, "R", {"S": "R"})
        db = Database(
            {
                "R": Relation(["A"], {("x",): 1}),
                "S": Relation(["A", "B"], {("x", 1): 2**62, ("x", 2): 2**62 - 1}),
            },
            backend=backend,
        )
        rows = {("x", 3): 1, ("x", 4): 1}
        batch = [("insert", "S", row) for row in rows]
        session = prepare(query, db, tree=tree)
        if backend == "python":
            assert session.apply(batch) == 2**63 + 1
            return
        with pytest.raises(MultiplicityOverflowError, match=r"^botjoin K\('S'\): "):
            session.apply(batch)
        assert (session.count(), session.updates_applied) == (2**63 - 1, 0)
        assert session.db is db
        evaluator, _ = _evaluator(query, tree, db)
        self._raises(evaluator, RelationDelta("S", rows, {}), "botjoin K('S')")

    def test_atom(self, backend):
        """R(x) sits at 2**63 - 1 and joins nothing; one more copy
        overflows R.  A fold patches the database relation before the
        atom, so the overflow names ``relation 'R'``, also when a
        selection that passes x makes the atom patch its own delta; that
        atom's patch, staged on a fork by itself, names ``atom 'R'``."""
        from repro.session import prepare

        unselected = parse_query("R(A), S(A,B)")
        query = unselected.with_selection("R", parse_predicate("A = 'x'"))
        tree = join_tree_from_parents(query, "R", {"S": "R"})
        db = Database(
            {
                "R": Relation(["A"], {("x",): 2**63 - 1}),
                "S": Relation(["A", "B"], {("y", 1): 1}),
            },
            backend=backend,
        )
        evaluator, state = _evaluator(query, tree, db)
        if backend == "python":
            evaluator.apply_batch([_one("R", ("x",), True)])
            assert state.bound.atom_relation("R").multiplicity(("x",)) == 2**63
            return
        self._raises(evaluator, _one("R", ("x",), True), "relation 'R'")
        # A selected atom patches its filtered delta and never reads base.
        with pytest.raises(MultiplicityOverflowError, match=r"^atom 'R': "):
            state.fork().stage_fold("R", {("x",): 1}, True, db.relation("R"))
        session = prepare(unselected, db, tree=tree)
        with pytest.raises(MultiplicityOverflowError, match=r"^relation 'R': "):
            session.apply([("insert", "R", ("x",))])
        assert session.db is db

    def test_topjoin(self, backend):
        """K(S) misses x, so inserting R(x) changes no botjoin, but
        J(S) = γ_A(R ⋈ K(T)) sits at 2**63 - 1 and doubles."""
        query = parse_query("R(A), S(A,B), T(A,C)")
        tree = join_tree_from_parents(query, "R", {"S": "R", "T": "R"})
        db = Database(
            {
                "R": Relation(["A"], {("x",): 1}),
                "S": Relation(["A", "B"], {("y", 1): 1}),
                "T": Relation(["A", "C"], {("x", 1): 2**62, ("x", 2): 2**62 - 1}),
            },
            backend=backend,
        )
        evaluator, state = _evaluator(query, tree, db)
        state.topjoins()
        if backend == "python":
            evaluator.apply_batch([_one("R", ("x",), True)])
            assert state.topjoins()["S"].multiplicity(("x",)) == 2**64 - 2
            return
        self._raises(evaluator, _one("R", ("x",), True), "topjoin J('S')")


@pytest.mark.parametrize("backend", BACKENDS)
class TestKeyedTableOnQ3:
    """q3's O table ``γ_{CK,OK}(J(gOC)[NK,OK] ⋈ C[NK,CK])`` is kept as its
    parts while C is unique on CK (TPC-H 0.001)."""

    @staticmethod
    def _session(backend):
        from repro.datasets.tpch import generate_tpch
        from repro.session import prepare
        from repro.workloads.tpch_queries import q3_workload

        workload = q3_workload()
        db = workload.prepare(generate_tpch(0.001, seed=0, backend=backend))
        return workload, prepare(workload.query, db, tree=workload.tree)

    def test_breaking_the_key_materialises_and_restoring_it_does_not(self, backend):
        from repro.core.result import KeyedFactor
        from repro.session import prepare

        workload, session = self._session(backend)
        skip = workload.skip_relations
        nk, ck = min(session.db.relation("C").counts)
        other_nk = next(n for n, _ in sorted(session.db.relation("C").counts) if n != nk)
        forms = []
        for step in (None, ("insert", "C", (other_nk, ck)), ("delete", "C", (other_nk, ck))):
            if step is not None:
                session.apply([step])
            result = session.sensitivity(skip_relations=skip)
            fresh = prepare(workload.query, session.db, tree=workload.tree)
            expected = fresh.sensitivity(skip_relations=skip)
            assert session.count() == fresh.count()
            assert result.local_sensitivity == expected.local_sensitivity
            assert result.witness == expected.witness
            assert result.per_relation == expected.per_relation
            (state,) = session._states()
            (fresh_state,) = fresh._states()
            (factor,) = state.multiplicity_table("O").factors
            (fresh_factor,) = fresh_state.multiplicity_table("O").factors
            assert type(factor) is type(fresh_factor)
            forms.append(isinstance(factor, KeyedFactor))
        assert forms == [True, False, True]

    def test_cold_sensitivity_and_explain_never_materialise_o(self, backend, monkeypatch):
        from repro.evaluation import joinstate

        workload, session = self._session(backend)
        outputs = []
        real = joinstate.join_aggregate

        def spy(parts, keep):
            out = real(parts, keep)
            outputs.append(out.distinct_count())
            return out

        monkeypatch.setattr(joinstate, "join_aggregate", spy)
        session.sensitivity(skip_relations=workload.skip_relations)
        session.explain(skip_relations=workload.skip_relations)
        (state,) = session._states()
        (factor,) = state.multiplicity_table("O").factors
        support = factor.distinct_count()
        assert outputs and max(outputs) < support
        assert factor._materialised is None


def _warm_q3(backend, scale=0.001):
    """An evaluator over q3's Fig. 5a plan at TPC-H ``scale`` whose state
    holds its topjoins and every table a read with L skipped builds."""
    from repro.datasets.tpch import generate_tpch
    from repro.workloads.tpch_queries import q3_workload

    workload = q3_workload()
    db = workload.prepare(generate_tpch(scale, seed=0, backend=backend))
    evaluator, state = _evaluator(workload.query, workload.tree, db)
    state.topjoins()
    for relation in workload.query.relation_names:
        if relation not in workload.skip_relations:
            state.multiplicity_table(relation)
    return workload, evaluator, state


def _refresh_batch(db, round_):
    """A refresh batch in the q3 workload's shape: three orders deleted
    with their lineitems, three new orders of existing customers, each
    with two lineitems over existing partsupps."""
    orders = sorted(db.relation("O").counts)
    lines = sorted(db.relation("L").counts)
    partsupps = sorted(db.relation("PS").counts)
    gone = orders[5 * round_: 5 * round_ + 3]
    gone_keys = {ok for _, ok in gone}
    minus_l = {row: db.relation("L").counts[row] for row in lines if row[0] in gone_keys}
    top = max(ok for _, ok in orders) + 1
    plus_o, plus_l = {}, {}
    for i in range(3):
        ck = orders[(7 * round_ + 11 * i) % len(orders)][0]
        plus_o[(ck, top + i)] = 1
        for j in range(2):
            sk, pk = partsupps[(13 * round_ + 5 * i + j) % len(partsupps)]
            plus_l[(top + i, sk, pk)] = 1
    return [
        RelationDelta("O", plus_o, dict.fromkeys(gone, 1)),
        RelationDelta("L", plus_l, minus_l),
    ]


@pytest.mark.parametrize("backend", BACKENDS)
class TestRootStepFollowsTheDelta:
    def test_every_join_of_the_root_step_is_at_most_the_l_delta(self, backend, monkeypatch):
        """An L delta shares no attribute with the root's atoms R and N,
        which once made the root's step start from the cross product
        ΔL × R ⋈ N (25 rows per L row).  Its one plan now reaches N and R
        only through K(gOC) and K(gSP), so each join of the step, the T^R
        and T^N factor deltas included, has at most |ΔL| rows; the folded
        state still equals a fresh build."""
        from repro.engine import operators
        from repro.evaluation import joinstate

        workload, evaluator, state = _warm_q3(backend)
        db = evaluator.db
        lines = sorted(db.relation("L").counts)[:40:2]
        delta = RelationDelta("L", {}, {row: db.relation("L").counts[row] for row in lines})
        root = workload.tree.root
        real_step, real_join = joinstate.JoinState._node_deltas, operators.join
        in_root, sizes = [False], []

        def step(self, node, changed, *args):
            in_root[0] = node == root and (changed.kind, changed.key) == ("atom", "L")
            try:
                return real_step(self, node, changed, *args)
            finally:
                in_root[0] = False

        def join(left, right):
            out = real_join(left, right)
            if in_root[0]:
                sizes.append(out.distinct_count())
            return out

        monkeypatch.setattr(joinstate.JoinState, "_node_deltas", step)
        monkeypatch.setattr(operators, "join", join)
        for insert in (False, True):
            sizes.clear()
            evaluator.apply_batch(
                [RelationDelta("L", delta.minus, {}) if insert else delta]
            )
            assert sizes and max(sizes) <= len(lines), sizes
        monkeypatch.undo()
        fresh = JoinState(workload.query, workload.tree, evaluator.db)
        assert state.count == fresh.count
        for relation in state.tables_materialised:
            assert state.multiplicity_table(relation).argmax() == (
                fresh.multiplicity_table(relation).argmax()
            )


@pytest.mark.parametrize("backend", BACKENDS)
class TestWarmFoldsScanNoMaintainedColumn:
    def test_join_order_reads_handed_on_peak_bounds(self, backend, monkeypatch):
        """A patch hands each known column peak on as bounds, so once
        warm a refresh apply orders its joins without a whole-column peak
        of any maintained relation (atom, level, database relation): the
        only peaks it computes are of deltas and fresh join results."""
        from repro.engine import operators

        workload, evaluator, state = _warm_q3(backend)
        for round_ in range(2):
            evaluator.apply_batch(_refresh_batch(evaluator.db, round_))
        real_bound, real_peak = operators.join_bound, operators.column_peak
        ordering, scanned = [False], []

        def join_bound(left, right):
            ordering[0] = True
            try:
                return real_bound(left, right)
            finally:
                ordering[0] = False

        def column_peak(relation, position):
            if ordering[0]:
                scanned.append(relation)
            return real_peak(relation, position)

        def maintained():
            db = evaluator.db
            levels = list(state.bound.atom_relations.values()) + list(state.botjoins.values())
            levels += [top for top in state.topjoins().values() if top is not None]
            levels += [db.relation(name) for name in workload.query.relation_names]
            return {id(level) for level in levels}

        monkeypatch.setattr(operators, "join_bound", join_bound)
        monkeypatch.setattr(operators, "column_peak", column_peak)
        for round_ in range(2, 5):
            before = maintained()
            evaluator.apply_batch(_refresh_batch(evaluator.db, round_))
            kept = before | maintained()
            assert not [rel for rel in scanned if id(rel) in kept]
            assert all(rel.distinct_count() <= 40 for rel in scanned)
