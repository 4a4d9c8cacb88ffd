"""The serial TSens chain checked against its definitions.

Every level of the evaluation chain has a closed-form meaning over the
query's atoms (paper Eqns. 5-8):

* a bound node holds its (selection-filtered) atoms, whose bag join is
  the node;
* the botjoin ``K(v)`` is the join of every atom in ``v``'s subtree,
  grouped on the attributes ``v`` shares with its parent;
* the topjoin ``J(v)`` is the same for every atom *outside* the subtree;
* the multiplicity table ``T^R`` is the join of every atom except ``R``,
  grouped on ``R``'s effective attributes.

A probe ``w(t)`` of a row ``t`` of ``R`` is that table's entry at ``t``
(zero when ``t`` fails ``R``'s selection).

The oracle below computes each of these by brute-force nested loops over
plain dicts, so it shares no code with the engine kernels, and compares
them with what :func:`bind`, :func:`compute_botjoins`,
:func:`compute_topjoins`, :class:`JoinState` and
:class:`IncrementalEvaluator` produce on both backends, before and after a
maintained update batch.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Dict, Iterable, List, Tuple

import pytest

from repro.engine import Database, Relation
from repro.engine.operators import join_all, patch
from repro.evaluation import (
    IncrementalEvaluator,
    JoinState,
    bind,
    compute_botjoins,
    compute_topjoins,
    count_query,
)
from repro.evaluation.joinstate import RelationDelta, effective_attributes
from repro.query import auto_decompose, parse_predicate, parse_query

BACKENDS = ("python", "columnar")

#: name -> (query text, selections as {relation: predicate text}).
SHAPES = {
    "path": ("R1(A,B), R2(B,C), R3(C,D), R4(D,E)", {}),
    "branching": ("R1(A,B,C), R2(A,B,D), R3(A,E), R4(B,F)", {}),
    "star": ("R(A,B,X), S(A,C), T(A,D,Y)", {}),
    "broom": ("Hub(A,B), S1(A,C), S2(A,D), T1(B,F), T2(F,G)", {}),
    "triangle": ("R1(A,B), R2(B,C), R3(C,A)", {}),
    "four_cycle": ("R(A,B), S(B,C), T(C,D), U(D,A)", {}),
    "selection": ("R1(A,B), R2(B,C), R3(C,D)", {"R2": "B != 0", "R3": "D != 2"}),
}

#: (attributes, {row: count}) — a bag over named attributes.
Bag = Tuple[Tuple[str, ...], Dict[tuple, int]]


# ----------------------------------------------------------------- oracle
def _join(left: Bag, right: Bag) -> Bag:
    left_attrs, left_rows = left
    right_attrs, right_rows = right
    out_attrs = left_attrs + tuple(a for a in right_attrs if a not in left_attrs)
    out: Counter = Counter()
    for left_row, left_count in left_rows.items():
        left_map = dict(zip(left_attrs, left_row))
        for right_row, right_count in right_rows.items():
            merged = dict(left_map)
            if all(
                merged.setdefault(a, v) == v for a, v in zip(right_attrs, right_row)
            ):
                out[tuple(merged[a] for a in out_attrs)] += left_count * right_count
    return out_attrs, dict(out)


def _join_all(bags: Iterable[Bag]) -> Bag:
    result: Bag = ((), {(): 1})
    for bag in bags:
        result = _join(result, bag)
    return result


def _group(bag: Bag, attrs: Iterable[str]) -> Bag:
    bag_attrs, rows = bag
    attrs = tuple(attrs)
    out: Counter = Counter()
    for row, count in rows.items():
        values = dict(zip(bag_attrs, row))
        out[tuple(values[a] for a in attrs)] += count
    return attrs, {row: count for row, count in out.items() if count}


def _atom_bags(query, db) -> Dict[str, Bag]:
    """Each atom's rows renamed to query variables, selections applied."""
    bags = {}
    for rel in query.relation_names:
        variables = tuple(query.atom(rel).variables)
        predicate = query.selections.get(rel)
        rows: Counter = Counter()
        for row, count in db.relation(rel).items():
            if predicate is None or predicate(dict(zip(variables, row))):
                rows[tuple(row)] += count
        bags[rel] = (variables, dict(rows))
    return bags


def _subtree_relations(tree, node_id: str) -> List[str]:
    relations = list(tree.node(node_id).relations)
    for child in tree.children(node_id):
        relations.extend(_subtree_relations(tree, child))
    return relations


def _assert_bag(relation, expected: Bag) -> None:
    """``relation`` holds exactly the bag ``expected`` (any column order)."""
    attrs, rows = expected
    assert sorted(relation.attributes) == sorted(attrs)
    got: Counter = Counter()
    for row, count in relation.items():
        values = dict(zip(relation.attributes, row))
        got[tuple(values[a] for a in attrs)] += count
    assert {row: count for row, count in got.items() if count} == rows


def _assert_table(table, expected: Bag) -> None:
    """A (possibly factored) table assigns every tuple its oracle count."""
    attrs, rows = expected
    assert sorted(table.attributes) == sorted(attrs)
    for row, count in rows.items():
        assert table.sensitivity_of(dict(zip(attrs, row))) == count, row
    # Table entries are non-negative, so equal totals leave no mass on
    # assignments the oracle lacks.
    total = table.multiplier
    for factor in table.factors:
        total *= factor.total_count()
    assert total == sum(rows.values())


# ------------------------------------------------------------------- data
def _shape(name: str):
    text, selections = SHAPES[name]
    query = parse_query(text)
    for relation, predicate in selections.items():
        query = query.with_selection(relation, parse_predicate(predicate))
    return query


def _database(query, seed: int) -> Database:
    """Small bag instance over a three-value domain: dense enough that
    every level is non-empty, with repeated rows for multiplicities."""
    rng = random.Random(seed)
    relations = {}
    for rel in query.relation_names:
        arity = len(query.atom(rel).variables)
        rows = [tuple(rng.randrange(3) for _ in range(arity)) for _ in range(7)]
        relations[rel] = Relation([f"c{i}" for i in range(arity)], rows)
    return Database(relations)


def _batch(query, db: Database, seed: int) -> List[RelationDelta]:
    """A mixed batch: every relation gains rows and loses one existing row."""
    rng = random.Random(seed)
    deltas = []
    for rel in query.relation_names:
        arity = len(query.atom(rel).variables)
        existing = sorted(db.relation(rel))
        minus = {existing[rng.randrange(len(existing))]: 1}
        plus = {}
        while len(plus) < 2:
            row = tuple(rng.randrange(3) for _ in range(arity))
            if row not in minus:
                plus[row] = rng.randrange(1, 3)
        deltas.append(RelationDelta(rel, plus, minus))
    return deltas


def _applied(db: Database, deltas: Iterable[RelationDelta]) -> Database:
    for delta in deltas:
        base = db.relation(delta.relation)
        for counts, insert in ((delta.minus, False), (delta.plus, True)):
            base = patch(base, type(base)(base.schema, counts), insert)
        db = db.with_relation(delta.relation, base)
    return db


@pytest.fixture(params=sorted(SHAPES))
def case(request):
    query = _shape(request.param)
    db = _database(query, seed=sorted(SHAPES).index(request.param))
    return query, auto_decompose(query), db


def _probe_rows(query, db: Database, rel: str) -> List[tuple]:
    """Every row of ``rel`` plus two absent ones: the first missing row
    over the data domain, and one whose values occur nowhere."""
    arity = len(query.atom(rel).variables)
    present = set(db.relation(rel))
    missing = next(
        row for row in itertools.product(range(3), repeat=arity)
        if row not in present
    )
    return sorted(present) + [missing, (9,) * arity]


def _assert_probes_match_oracle(evaluator, query, db: Database) -> None:
    """``w(t)`` of every probe row equals its leave-one-out table entry."""
    atoms = _atom_bags(query, db)
    for rel in query.relation_names:
        variables = query.atom(rel).variables
        predicate = query.selections.get(rel)
        others = [atoms[r] for r in query.relation_names if r != rel]
        attrs, table = _group(_join_all(others), effective_attributes(query, rel))
        rows = _probe_rows(query, db, rel)
        expected = []
        for row in rows:
            values = dict(zip(variables, row))
            if predicate is not None and not predicate(values):
                expected.append(0)
            else:
                expected.append(table.get(tuple(values[a] for a in attrs), 0))
        assert evaluator.delta_batch(rel, rows) == expected, rel


# ------------------------------------------------------------------ tests
def _assert_chain_matches_oracle(state: JoinState, query, db: Database) -> None:
    """Every materialised level of ``state`` equals its definition on ``db``."""
    tree = state.tree
    atoms = _atom_bags(query, db)
    every = set(query.relation_names)
    for node_id in tree.node_ids:
        shared = sorted(tree.shared_with_parent(node_id))
        inside = _subtree_relations(tree, node_id)
        _assert_bag(
            state.botjoins[node_id],
            _group(_join_all(atoms[r] for r in inside), shared),
        )
        if state.topjoins_materialised:
            top = state.topjoins()[node_id]
            if node_id == tree.root:
                assert top is None
            else:
                outside = sorted(every - set(inside))
                _assert_bag(top, _group(_join_all(atoms[r] for r in outside), shared))
    for rel in state.tables_materialised:
        others = [atoms[r] for r in query.relation_names if r != rel]
        _assert_table(
            state.multiplicity_table(rel),
            _group(_join_all(others), effective_attributes(query, rel)),
        )


@pytest.mark.parametrize("backend", BACKENDS)
class TestChainMatchesDefinitions:
    def test_bound_nodes_join_their_atoms(self, case, backend):
        query, tree, db = case
        bound = bind(query, tree, db.with_backend(backend))
        atoms = _atom_bags(query, db)
        for node_id in tree.node_ids:
            relations = tree.node(node_id).relations
            node_atoms = bound.atoms(node_id)
            assert len(node_atoms) == len(relations)
            for rel, atom in zip(relations, node_atoms):
                _assert_bag(atom, atoms[rel])
            expected = _join_all(atoms[r] for r in relations)
            _assert_bag(join_all(node_atoms), expected)
        for rel in query.relation_names:
            _assert_bag(bound.atom_relation(rel), atoms[rel])

    def test_botjoins_group_subtree_joins(self, case, backend):
        query, tree, db = case
        botjoins = compute_botjoins(bind(query, tree, db.with_backend(backend)))
        atoms = _atom_bags(query, db)
        for node_id in tree.node_ids:
            inside = _subtree_relations(tree, node_id)
            expected = _group(
                _join_all(atoms[r] for r in inside),
                sorted(tree.shared_with_parent(node_id)),
            )
            _assert_bag(botjoins[node_id], expected)

    def test_topjoins_group_complement_joins(self, case, backend):
        query, tree, db = case
        bound = bind(query, tree, db.with_backend(backend))
        topjoins = compute_topjoins(bound, compute_botjoins(bound))
        atoms = _atom_bags(query, db)
        assert topjoins[tree.root] is None
        for node_id in tree.node_ids:
            if node_id == tree.root:
                continue
            outside = set(query.relation_names) - set(
                _subtree_relations(tree, node_id)
            )
            expected = _group(
                _join_all(atoms[r] for r in sorted(outside)),
                sorted(tree.shared_with_parent(node_id)),
            )
            _assert_bag(topjoins[node_id], expected)

    def test_tables_count_leave_one_out_joins(self, case, backend):
        query, tree, db = case
        state = JoinState(query, tree, db.with_backend(backend))
        atoms = _atom_bags(query, db)
        for rel in query.relation_names:
            others = [atoms[r] for r in query.relation_names if r != rel]
            expected = _group(_join_all(others), effective_attributes(query, rel))
            assert expected[1], f"degenerate fixture: empty table for {rel}"
            _assert_table(state.multiplicity_table(rel), expected)

    def test_count_is_full_join_size(self, case, backend):
        query, tree, db = case
        expected = sum(_join_all(_atom_bags(query, db).values())[1].values())
        assert expected > 0, "degenerate fixture: empty join"
        on_backend = db.with_backend(backend)
        assert JoinState(query, tree, on_backend).count == expected
        assert count_query(query, on_backend, tree=tree) == expected

    def test_batch_fold_matches_definitions(self, case, backend):
        query, tree, db = case
        state = JoinState(query, tree, db.with_backend(backend))
        state.topjoins()
        for rel in query.relation_names:
            state.multiplicity_table(rel)
        deltas = _batch(query, db, seed=len(query.relation_names))
        state.apply_update_batch(deltas)
        _assert_chain_matches_oracle(state, query, _applied(db, deltas))

    def test_probes_are_leave_one_out_entries(self, case, backend):
        query, tree, db = case
        evaluator = IncrementalEvaluator(query, db.with_backend(backend), tree=tree)
        _assert_probes_match_oracle(evaluator, query, db)
        deltas = _batch(query, db, seed=len(query.relation_names))
        evaluator.apply_batch(deltas)
        _assert_probes_match_oracle(evaluator, query, _applied(db, deltas))
