"""Unit tests for the top-k approximation (Sec. 5.4)."""

import random

import pytest

from repro import prepare
from repro.core import clamp_to_top_k, naive_local_sensitivity, tsens
from repro.engine import Database, Relation
from repro.query import auto_decompose, parse_query
from repro.exceptions import MechanismConfigError, QueryStructureError

BACKENDS = ("python", "columnar")
#: GHD shapes of the chain-oracle suite, plus q3 over its Fig. 5a GHD.
GHD_CASES = ("triangle", "four_cycle", "q3")
KS = (1, 2, 4, 16, 10**6)


class TestClamp:
    def test_clamps_up_to_kth_largest(self):
        rel = Relation(["A"], {(1,): 10, (2,): 7, (3,): 2, (4,): 1})
        clamped = clamp_to_top_k(rel, 2)
        assert dict(clamped.items()) == {(1,): 10, (2,): 7, (3,): 7, (4,): 7}

    def test_k_larger_than_relation_is_identity(self):
        rel = Relation(["A"], {(1,): 10, (2,): 7})
        assert clamp_to_top_k(rel, 5) is rel

    def test_never_decreases_counts(self):
        rel = Relation(["A"], {(1,): 5, (2,): 3, (3,): 1})
        clamped = clamp_to_top_k(rel, 1)
        for row, cnt in rel.items():
            assert clamped.multiplicity(row) >= cnt

    def test_invalid_k(self):
        with pytest.raises(MechanismConfigError):
            clamp_to_top_k(Relation(["A"], [(1,)]), 0)


class TestTopKSensitivity:
    def test_upper_bounds_exact(self, fig3_query, fig3_db):
        exact = tsens(fig3_query, fig3_db).local_sensitivity
        for k in (1, 2, 3):
            bound = prepare(fig3_query, fig3_db).top_k(k).local_sensitivity
            assert bound >= exact

    def test_large_k_is_exact(self, fig3_query, fig3_db):
        exact = tsens(fig3_query, fig3_db).local_sensitivity
        assert prepare(fig3_query, fig3_db).top_k(100).local_sensitivity == exact

    def test_monotone_in_k(self, fig3_query, fig3_db):
        bounds = [
            prepare(fig3_query, fig3_db).top_k(k).local_sensitivity
            for k in (1, 2, 4, 100)
        ]
        assert bounds == sorted(bounds, reverse=True)

    def test_fig1_query(self, fig1_query, fig1_db):
        exact = naive_local_sensitivity(fig1_query, fig1_db).local_sensitivity
        assert prepare(fig1_query, fig1_db).top_k(1).local_sensitivity >= exact
        assert prepare(fig1_query, fig1_db).top_k(50).local_sensitivity == exact

    def test_method_label(self, fig3_query, fig3_db):
        assert prepare(fig3_query, fig3_db).top_k(2).method == "tsens-top2"

    def test_disconnected_rejected(self):
        q = parse_query("R(A), S(B)")
        db = Database(
            {"R": Relation(["A"], [(1,)]), "S": Relation(["B"], [(2,)])}
        )
        with pytest.raises(QueryStructureError):
            prepare(q, db).top_k(1)


def _small_database(query, seed: int) -> Database:
    """Seven bag rows per atom over a three-value domain, built the way
    the chain-oracle suite builds its instances."""
    rng = random.Random(seed)
    relations = {}
    for rel in query.relation_names:
        arity = len(query.atom(rel).variables)
        rows = [tuple(rng.randrange(3) for _ in range(arity)) for _ in range(7)]
        relations[rel] = Relation([f"c{i}" for i in range(arity)], rows)
    return Database(relations)


@pytest.fixture(scope="module", params=GHD_CASES)
def ghd_case(request):
    """``(query, tree, db, skip_relations)`` over a width > 1 GHD."""
    if request.param == "q3":
        from repro.datasets.tpch import generate_tpch
        from repro.workloads.tpch_queries import q3_workload

        workload = q3_workload()
        db = workload.prepare(generate_tpch(0.0005, seed=3))
        case = (workload.query, workload.tree, db, workload.skip_relations)
    else:
        text = {
            "triangle": "R1(A,B), R2(B,C), R3(C,A)",
            "four_cycle": "R(A,B), S(B,C), T(C,D), U(D,A)",
        }[request.param]
        query = parse_query(text)
        case = (query, auto_decompose(query), _small_database(query, seed=5), ())
    assert case[1].width() > 1
    return case


@pytest.mark.parametrize("backend", BACKENDS)
class TestTopKOnGHDs:
    """The clamped passes over wide GHD nodes, through the shared
    botjoin/topjoin passes."""

    @staticmethod
    def _run(case, backend, k=None):
        query, tree, db, skip = case
        db = db.with_backend(backend)
        if k is None:
            return tsens(query, db, tree=tree, skip_relations=skip)
        return prepare(query, db, tree=tree).top_k(k, skip)

    def test_large_k_is_exact(self, ghd_case, backend):
        exact = self._run(ghd_case, backend)
        approx = self._run(ghd_case, backend, k=KS[-1])
        assert approx.local_sensitivity == exact.local_sensitivity
        assert approx.per_relation == exact.per_relation

    def test_small_k_upper_bounds_exact(self, ghd_case, backend):
        exact = self._run(ghd_case, backend)
        for k in (1, 2):
            approx = self._run(ghd_case, backend, k=k)
            assert approx.local_sensitivity >= exact.local_sensitivity
            for relation, witness in exact.per_relation.items():
                bound = approx.per_relation[relation].sensitivity
                assert bound >= witness.sensitivity, (k, relation)

    def test_monotone_in_k(self, ghd_case, backend):
        bounds = [
            self._run(ghd_case, backend, k=k).local_sensitivity for k in KS
        ]
        assert bounds == sorted(bounds, reverse=True)

    def test_session_runs_on_its_own_plan(self, ghd_case, backend):
        """A session planned without a tree runs top-k on its own GHD."""
        query, _tree, db, skip = ghd_case
        exact = self._run(ghd_case, backend).local_sensitivity
        session = prepare(query, db.with_backend(backend))
        for k in KS:
            approx = session.top_k(k, skip)
            assert approx.local_sensitivity >= exact
            oneshot = prepare(query, session.db, tree=session.tree).top_k(k, skip)
            assert approx.per_relation == oneshot.per_relation
