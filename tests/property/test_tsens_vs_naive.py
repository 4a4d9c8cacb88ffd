"""The central correctness property: TSens ≡ brute force (Theorem 5.1).

Hypothesis drives random acyclic queries and random instances through both
the TSens join-tree algorithm and the Theorem 3.1 brute-force oracle, and
demands identical local sensitivities *and* identical per-relation most
sensitive values.  A second property does the same for the path algorithm
(Theorem 4.1) and for cyclic queries via GHDs.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import (
    local_sensitivity,
    naive_local_sensitivity,
    tsens,
)
from repro.datasets import random_acyclic_query, random_database, random_path_query
from repro.engine import Database, Relation
from repro.query import parse_query

seeds = st.integers(min_value=0, max_value=10_000)


class TestAcyclicEquivalence:
    @given(seeds, st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_tsens_equals_naive(self, seed, num_atoms):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=num_atoms)
        db = random_database(query, rng)
        fast = tsens(query, db)
        slow = naive_local_sensitivity(query, db)
        assert fast.local_sensitivity == slow.local_sensitivity
        for relation in query.relation_names:
            assert (
                fast.per_relation[relation].sensitivity
                == slow.per_relation[relation].sensitivity
            )

    @given(seeds, st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_witness_sensitivity_is_attained(self, seed, num_atoms):
        """The reported witness must actually have the reported sensitivity
        when re-measured by direct evaluation."""
        from repro.core import naive_tuple_sensitivity

        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=num_atoms)
        db = random_database(query, rng)
        result = tsens(query, db)
        if result.witness is None:
            return
        atom = query.atom(result.witness.relation)
        row = result.witness.as_row(atom.variables)
        measured = naive_tuple_sensitivity(
            query, db, result.witness.relation, row
        )
        assert measured == result.witness.sensitivity


class TestPathEquivalence:
    @given(seeds, st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_path_equals_naive_and_tsens(self, seed, length):
        rng = np.random.default_rng(seed)
        query = random_path_query(rng, length=length)
        db = random_database(query, rng)
        path = local_sensitivity(query, db, method="path")
        slow = naive_local_sensitivity(query, db)
        tree_based = tsens(query, db)
        assert (
            path.local_sensitivity
            == slow.local_sensitivity
            == tree_based.local_sensitivity
        )
        for relation in query.relation_names:
            assert (
                path.per_relation[relation].sensitivity
                == slow.per_relation[relation].sensitivity
            )


class TestCyclicEquivalence:
    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_triangle_ghd_equals_naive(self, seed):
        rng = np.random.default_rng(seed)
        query = parse_query("R1(A,B), R2(B,C), R3(C,A)")
        db = random_database(query, rng, domain_size=3, max_rows=5)
        fast = local_sensitivity(query, db)
        slow = naive_local_sensitivity(query, db)
        assert fast.local_sensitivity == slow.local_sensitivity

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_four_cycle_ghd_equals_naive(self, seed):
        rng = np.random.default_rng(seed)
        query = parse_query("R1(A,B), R2(B,C), R3(C,D), R4(D,A)")
        db = random_database(query, rng, domain_size=2, max_rows=4)
        fast = local_sensitivity(query, db)
        slow = naive_local_sensitivity(query, db)
        assert fast.local_sensitivity == slow.local_sensitivity


class TestSelectionsEquivalence:
    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_selection_pushdown_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=3)
        db = random_database(query, rng)
        target = query.relation_names[int(rng.integers(0, 3))]
        pivot = int(rng.integers(0, 3))
        first_var = query.atom(target).variables[0]
        filtered = query.with_selection(
            target, lambda row: row[first_var] != pivot
        )
        fast = tsens(filtered, db)
        slow = naive_local_sensitivity(filtered, db)
        assert fast.local_sensitivity == slow.local_sensitivity


def _exclusive_selection(query, db, rng, reject_representative):
    """``query`` with a ``!=`` selection on one relation's exclusive
    variable, or ``None`` when no atom has one.  The rejected value is
    either random or the relation's representative one — the value every
    extrapolated witness takes, so only existing tuples can then pass."""
    choices = [
        (relation, var)
        for relation in query.relation_names
        for var in query.exclusive_variables(relation)
    ]
    if not choices:
        return None
    relation, var = choices[int(rng.integers(0, len(choices)))]
    pivot = int(rng.integers(0, 3))
    if reject_representative:
        column = db.relation(relation).attributes[
            query.atom(relation).variables.index(var)
        ]
        (pivot,) = db.representative_domain(column, relation)
    return query.with_selection(relation, lambda row: row[var] != pivot)


def _assert_matches_naive(result, filtered, db):
    from repro.core import naive_tuple_sensitivity

    slow = naive_local_sensitivity(filtered, db)
    assert result.local_sensitivity == slow.local_sensitivity
    for relation, witness in result.per_relation.items():
        assert witness.sensitivity == slow.per_relation[relation].sensitivity
        if witness.sensitivity == 0:
            continue
        # The witness passes its selection and really has its sensitivity.
        predicate = filtered.selections.get(relation)
        assert predicate is None or predicate(witness.assignment)
        row = witness.as_row(filtered.atom(relation).variables)
        assert naive_tuple_sensitivity(filtered, db, relation, row) == (
            witness.sensitivity
        )


class TestExclusiveSelectionEquivalence:
    @given(seeds, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_tsens_equals_naive(self, seed, reject_representative):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=3, exclusive_probability=0.7)
        db = random_database(query, rng)
        filtered = _exclusive_selection(query, db, rng, reject_representative)
        if filtered is None:
            return
        _assert_matches_naive(tsens(filtered, db), filtered, db)

    @given(seeds, st.integers(min_value=1, max_value=4), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_path_equals_naive(self, seed, length, reject_representative):
        rng = np.random.default_rng(seed)
        query = random_path_query(rng, length=length)
        db = random_database(query, rng)
        filtered = _exclusive_selection(query, db, rng, reject_representative)
        if filtered is None:
            return
        _assert_matches_naive(local_sensitivity(filtered, db, method="path"), filtered, db)
