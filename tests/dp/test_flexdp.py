"""Unit tests for the FlexDP (smooth elastic sensitivity) mechanism."""

import numpy as np
import pytest

from repro.baselines import elastic_sensitivity, elastic_sensitivity_at_distance
from repro.dp import run_flex_dp, smooth_elastic_sensitivity
from repro.engine import Database, Relation
from repro.query import parse_query
from repro.exceptions import MechanismConfigError, UnknownRelationError


@pytest.fixture
def query():
    return parse_query("R(A,B), S(B,C)")


@pytest.fixture
def db():
    return Database(
        {
            "R": Relation(["A", "B"], [(1, 2), (3, 2), (4, 5)]),
            "S": Relation(["B", "C"], [(2, 9), (2, 8), (5, 7)]),
        }
    )


class TestDistanceElastic:
    def test_distance_zero_matches_protected_bound(self, query, db):
        assert elastic_sensitivity_at_distance(
            query, db, protected="R", distance=0
        ) == elastic_sensitivity(query, db, protected="R")

    def test_monotone_in_distance(self, query, db):
        values = [
            elastic_sensitivity_at_distance(query, db, protected="R", distance=k)
            for k in range(5)
        ]
        assert values == sorted(values)

    def test_flat_without_self_joins(self, query, db):
        # Single protected relation + no self-joins: the series is constant
        # (see the flexdp module docstring).
        values = {
            elastic_sensitivity_at_distance(query, db, protected="S", distance=k)
            for k in (0, 3, 10)
        }
        assert len(values) == 1

    def test_negative_distance_rejected(self, query, db):
        with pytest.raises(MechanismConfigError):
            elastic_sensitivity_at_distance(query, db, protected="R", distance=-1)

    def test_unknown_protected(self, query, db):
        with pytest.raises(UnknownRelationError):
            elastic_sensitivity_at_distance(query, db, protected="Z", distance=0)


class TestSmoothBound:
    def test_at_least_distance_zero_value(self, query, db):
        smooth, peak = smooth_elastic_sensitivity(query, db, "R", beta=0.1)
        assert smooth >= elastic_sensitivity_at_distance(
            query, db, protected="R", distance=0
        )
        assert peak == 0

    def test_invalid_beta(self, query, db):
        with pytest.raises(MechanismConfigError):
            smooth_elastic_sensitivity(query, db, "R", beta=0.0)


class TestMechanism:
    def test_outcome_fields(self, query, db):
        out = run_flex_dp(
            query, db, primary="R", epsilon=1.0, rng=np.random.default_rng(0)
        )
        assert out.true_count == 5
        assert out.smooth_sensitivity > 0
        assert out.beta == pytest.approx(1.0 / (2 * np.log(2e6)))

    def test_deterministic_under_seed(self, query, db):
        a = run_flex_dp(query, db, primary="R", epsilon=1.0,
                        rng=np.random.default_rng(4))
        b = run_flex_dp(query, db, primary="R", epsilon=1.0,
                        rng=np.random.default_rng(4))
        assert a.answer == b.answer

    def test_large_epsilon_accurate(self, query, db):
        errors = [
            run_flex_dp(
                query, db, primary="R", epsilon=500.0,
                rng=np.random.default_rng(seed),
            ).relative_error
            for seed in range(10)
        ]
        assert sorted(errors)[len(errors) // 2] < 0.1

    def test_noisier_than_tsensdp_scale(self, query, db):
        """FlexDP's noise scale 2·ES/ε must dominate TSensDP's τ/ε′ when
        elastic is looser than the learned τ — the paper's core DP story."""
        out = run_flex_dp(
            query, db, primary="R", epsilon=1.0, rng=np.random.default_rng(1)
        )
        from repro.core import local_sensitivity

        exact = local_sensitivity(query, db).local_sensitivity
        assert out.smooth_sensitivity >= exact

    def test_parameter_validation(self, query, db):
        with pytest.raises(MechanismConfigError):
            run_flex_dp(query, db, primary="R", epsilon=0.0)
        with pytest.raises(MechanismConfigError):
            run_flex_dp(query, db, primary="R", epsilon=1.0, delta=2.0)


@pytest.mark.parametrize("backend", ["python", "columnar"])
class TestSessionRelease:
    def test_reuses_the_maintained_count(self, backend, tiny_tpch, monkeypatch):
        """A session release hands FlexDP the session's count, so the
        mechanism counts nothing itself; a fixed rng gives the outcome the
        one-shot call gives."""
        from repro.dp import flexdp
        from repro.session import prepare
        from repro.workloads.tpch_queries import q1_workload

        workload = q1_workload()
        db = workload.prepared(tiny_tpch.with_backend(backend))
        session = prepare(workload.query, db, tree=workload.tree)
        expected = run_flex_dp(
            workload.query, db, workload.primary, 1.0,
            tree=workload.tree, rng=np.random.default_rng(3),
        )
        calls = []
        real = flexdp.count_query

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(flexdp, "count_query", spy)
        outcome = session.release(
            1.0, mechanism="flexdp", primary=workload.primary,
            rng=np.random.default_rng(3),
        )
        assert calls == []
        assert outcome == expected
        assert outcome.true_count == session.count()
