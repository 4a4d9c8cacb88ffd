"""Property tests for query evaluation and structural invariances."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import local_sensitivity, tsens
from repro.datasets import random_acyclic_query, random_database, random_path_query
from repro.evaluation import count_query, evaluate_query, naive_join
from repro.query import gyo_join_tree
from repro.query.atoms import Atom
from repro.query.conjunctive import ConjunctiveQuery

seeds = st.integers(min_value=0, max_value=10_000)


class TestEvaluationAgainstNaiveJoin:
    @given(seeds, st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_count_matches_naive(self, seed, num_atoms):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=num_atoms)
        db = random_database(query, rng)
        assert count_query(query, db) == naive_join(query, db).total_count()

    @given(seeds, st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_full_evaluation_matches_naive_bag(self, seed, num_atoms):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=num_atoms)
        db = random_database(query, rng)
        assert evaluate_query(query, db).same_bag(naive_join(query, db))


class TestStructuralInvariance:
    @given(seeds, st.integers(min_value=2, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_tsens_invariant_under_rerooting(self, seed, num_atoms):
        """Theorem 5.1 holds for *any* valid join tree: re-rooting must not
        change the local sensitivity or any per-relation maximum."""
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=num_atoms)
        db = random_database(query, rng)
        tree = gyo_join_tree(query)
        baseline = tsens(query, db, tree=tree)
        for new_root in tree.node_ids:
            rerooted = tree.rerooted(new_root)
            result = tsens(query, db, tree=rerooted)
            assert result.local_sensitivity == baseline.local_sensitivity
            for relation in query.relation_names:
                assert (
                    result.per_relation[relation].sensitivity
                    == baseline.per_relation[relation].sensitivity
                )

    @given(seeds, st.integers(min_value=2, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_path_invariant_under_reversal(self, seed, length):
        """A path query read right-to-left is the same query; Algorithm 1
        must return the same sensitivities."""
        rng = np.random.default_rng(seed)
        query = random_path_query(rng, length=length)
        db = random_database(query, rng)
        reversed_query = ConjunctiveQuery(
            tuple(reversed(query.atoms)), name="Qrev"
        )
        forward = local_sensitivity(query, db, method="path")
        backward = local_sensitivity(reversed_query, db, method="path")
        assert forward.local_sensitivity == backward.local_sensitivity
        for relation in query.relation_names:
            assert (
                forward.per_relation[relation].sensitivity
                == backward.per_relation[relation].sensitivity
            )

    @given(seeds, st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_atom_order_irrelevant(self, seed, num_atoms):
        """Shuffling the query body must not change |Q(D)| or LS."""
        from repro.core import tsens

        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=num_atoms)
        db = random_database(query, rng)
        atoms = list(query.atoms)
        rng.shuffle(atoms)
        shuffled = ConjunctiveQuery(tuple(atoms), name="Qshuf")
        assert count_query(query, db) == count_query(shuffled, db)
        assert (
            tsens(query, db).local_sensitivity
            == tsens(shuffled, db).local_sensitivity
        )


class TestSensitivityDefinitionalProperties:
    @given(seeds, st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_ls_bounds_one_step_count_change(self, seed, num_atoms):
        """For any single-tuple change D → D', |Q(D)| moves by ≤ LS(Q, D)."""
        from repro.core import tsens

        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=num_atoms)
        db = random_database(query, rng)
        ls = tsens(query, db).local_sensitivity
        base = count_query(query, db)
        relation = query.relation_names[int(rng.integers(0, num_atoms))]
        atom = query.atom(relation)
        row = tuple(int(rng.integers(0, 3)) for _ in atom.variables)
        grown = count_query(query, db.add_tuple(relation, row))
        assert abs(grown - base) <= ls
        existing = list(db.relation(relation))
        if existing:
            shrunk = count_query(query, db.remove_tuple(relation, existing[0]))
            assert abs(shrunk - base) <= ls
