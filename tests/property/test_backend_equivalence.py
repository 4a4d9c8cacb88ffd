"""Backend equivalence: the columnar engine is observationally identical.

Hypothesis drives random acyclic (and path, and cyclic) conjunctive
queries plus random instances through the whole stack — Yannakakis
counting, full evaluation, TSens, top-k clamping — once per backend, and
demands identical counts, local sensitivities, per-relation sensitivities
and most sensitive tuples.  This is the contract that makes the
``backend=`` knob safe to flip anywhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import prepare
from repro.core import local_sensitivity, tsens
from repro.datasets import random_acyclic_query, random_database, random_path_query
from repro.engine import ColumnarRelation, Relation
from repro.engine.columnar import reset_vocabulary
from repro.evaluation import count_query, evaluate_query
from repro.query import parse_query

seeds = st.integers(min_value=0, max_value=10_000)


def _pair(query, rng, **kwargs):
    """The same random instance on both backends."""
    db = random_database(query, rng, **kwargs)
    return db, db.with_backend("columnar")


def _assert_same_result(fast, slow, query):
    assert fast.local_sensitivity == slow.local_sensitivity
    for relation in query.relation_names:
        a, b = fast.per_relation[relation], slow.per_relation[relation]
        assert a.sensitivity == b.sensitivity
        assert dict(a.assignment) == dict(b.assignment)
    if fast.witness is None:
        assert slow.witness is None
    else:
        assert slow.witness is not None
        assert fast.witness.sensitivity == slow.witness.sensitivity


class TestEvaluationEquivalence:
    @given(seeds, st.integers(min_value=1, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_counts_match(self, seed, num_atoms):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=num_atoms)
        db_py, db_col = _pair(query, rng)
        assert count_query(query, db_py) == count_query(query, db_col)

    @given(seeds, st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_full_outputs_match(self, seed, num_atoms):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=num_atoms)
        db_py, db_col = _pair(query, rng)
        out_py = evaluate_query(query, db_py)
        out_col = evaluate_query(query, db_col)
        assert out_col.same_bag(out_py)
        assert out_py.same_bag(out_col)


class TestSensitivityEquivalence:
    @given(seeds, st.integers(min_value=1, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_tsens_matches(self, seed, num_atoms):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=num_atoms)
        db_py, db_col = _pair(query, rng)
        _assert_same_result(tsens(query, db_col), tsens(query, db_py), query)

    @given(seeds, st.integers(min_value=1, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_path_algorithm_matches(self, seed, length):
        rng = np.random.default_rng(seed)
        query = random_path_query(rng, length=length)
        db_py, db_col = _pair(query, rng)
        _assert_same_result(
            local_sensitivity(query, db_col, method="path"),
            local_sensitivity(query, db_py, method="path"),
            query,
        )

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_cyclic_ghd_matches(self, seed):
        rng = np.random.default_rng(seed)
        query = parse_query("R1(A,B), R2(B,C), R3(C,A)")
        db_py, db_col = _pair(query, rng, domain_size=3, max_rows=5)
        fast = local_sensitivity(query, db_col)
        slow = local_sensitivity(query, db_py)
        assert fast.local_sensitivity == slow.local_sensitivity

    @given(seeds, st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_topk_clamp_matches(self, seed, k):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=3)
        db_py, db_col = _pair(query, rng)
        fast = prepare(query, db_col).top_k(k)
        slow = prepare(query, db_py).top_k(k)
        assert fast.local_sensitivity == slow.local_sensitivity
        for relation in query.relation_names:
            assert (
                fast.per_relation[relation].sensitivity
                == slow.per_relation[relation].sensitivity
            )

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_selections_match(self, seed):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=3)
        target = query.relation_names[int(rng.integers(0, 3))]
        pivot = int(rng.integers(0, 3))
        first_var = query.atom(target).variables[0]
        filtered = query.with_selection(
            target, lambda row: row[first_var] != pivot
        )
        db_py, db_col = _pair(query, rng)
        _assert_same_result(
            tsens(filtered, db_col), tsens(filtered, db_py), filtered
        )


class TestMultiplicityTablesEquivalence:
    @given(seeds, st.integers(min_value=2, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_every_tuple_sensitivity_matches(self, seed, num_atoms):
        """Not just the max: the whole multiplicity table must agree."""
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=num_atoms)
        db_py, db_col = _pair(query, rng)
        fast = tsens(query, db_col)
        slow = tsens(query, db_py)
        for relation, table in slow.tables.items():
            for assignment, sensitivity in table.iter_descending():
                assert (
                    fast.tables[relation].sensitivity_of(assignment)
                    == sensitivity
                )


class TestArgmaxTieBreak:
    """Ties for the largest count break on the smallest tuple under Python
    ordering.  A float among the tied values must not round integers past
    2**53 together: ``2**53 + 1`` and ``2**53`` are distinct and ordered."""

    @pytest.mark.parametrize(
        "attributes, counts",
        [
            (["A"], {(2**53 + 1,): 3, (1e20,): 3, (2**53,): 3}),
            (["A", "B"], {(7, 2**53 + 1): 3, (7, 1e20): 3, (7, 2**53): 3}),
        ],
        ids=["one-column", "two-column"],
    )
    def test_exact_past_2_53(self, attributes, counts):
        reset_vocabulary()
        expected = Relation(attributes, counts).argmax_count()
        assert ColumnarRelation(attributes, counts).argmax_count() == expected
        assert expected[0][-1] == 2**53
