"""Property tests for the upper-bound methods (Elastic, top-k TSens)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines import elastic_sensitivity
from repro import prepare
from repro.core import naive_local_sensitivity, tsens
from repro.datasets import random_acyclic_query, random_database

seeds = st.integers(min_value=0, max_value=10_000)


class TestElasticBound:
    @given(seeds, st.integers(min_value=1, max_value=4))
    @settings(max_examples=50, deadline=None)
    def test_elastic_upper_bounds_naive(self, seed, num_atoms):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=num_atoms)
        db = random_database(query, rng)
        exact = naive_local_sensitivity(query, db).local_sensitivity
        assert elastic_sensitivity(query, db) >= exact


class TestTopKBound:
    @given(seeds, st.integers(min_value=1, max_value=4))
    @settings(max_examples=50, deadline=None)
    def test_topk_upper_bounds_exact(self, seed, k):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=3)
        db = random_database(query, rng)
        exact = tsens(query, db).local_sensitivity
        assert prepare(query, db).top_k(k).local_sensitivity >= exact

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_topk_converges(self, seed):
        rng = np.random.default_rng(seed)
        query = random_acyclic_query(rng, num_atoms=3)
        db = random_database(query, rng)
        exact = tsens(query, db).local_sensitivity
        assert prepare(query, db).top_k(10_000).local_sensitivity == exact
