"""The strongest equivalence property: full multiplicity-table contents.

Not just the argmax — for random instances, *every* tuple sensitivity the
TSens tables report (for existing tuples and for representative-domain
insertion candidates) must equal the value obtained by direct
re-evaluation.  This is the property that justifies using the tables for
truncation-based DP.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import local_sensitivity, tsens
from repro.core.naive import naive_tuple_sensitivity
from repro.datasets import random_acyclic_query, random_database, random_path_query

seeds = st.integers(min_value=0, max_value=10_000)


def _check_tables(result, query, db, max_candidates=60):
    checked = 0
    for relation in query.relation_names:
        table = result.tables[relation]
        atom = query.atom(relation)
        # Existing tuples (downward side).
        for row in db.relation(relation):
            claimed = table.sensitivity_of(dict(zip(atom.variables, row)))
            measured = naive_tuple_sensitivity(query, db, relation, row)
            assert claimed == measured, (relation, row, claimed, measured)
            checked += 1
            if checked > max_candidates:
                return
        # Representative-domain candidates (upward side).
        for row in db.representative_tuples(relation):
            claimed = table.sensitivity_of(dict(zip(atom.variables, row)))
            measured = naive_tuple_sensitivity(query, db, relation, row)
            assert claimed == measured, (relation, row, claimed, measured)
            checked += 1
            if checked > max_candidates:
                return


class TestFullTableEquivalence:
    @given(seeds, st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_tsens_tables_exact(self, seed, num_atoms):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=num_atoms)
        db = random_database(query, rng, max_rows=4)
        result = tsens(query, db)
        _check_tables(result, query, db)

    @given(seeds, st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_path_tables_exact(self, seed, length):
        rng = np.random.default_rng(seed)
        query = random_path_query(rng, length=length)
        db = random_database(query, rng, max_rows=4)
        result = local_sensitivity(query, db, method="path")
        _check_tables(result, query, db)

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_ghd_tables_exact(self, seed):
        from repro.query import parse_query

        rng = np.random.default_rng(seed)
        query = parse_query("R1(A,B), R2(B,C), R3(C,A)")
        db = random_database(query, rng, domain_size=2, max_rows=4)
        result = tsens(query, db)
        _check_tables(result, query, db)
