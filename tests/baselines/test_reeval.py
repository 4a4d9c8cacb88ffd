"""Unit tests for the re-evaluation baseline."""

import numpy as np
import pytest

from repro.baselines import reevaluation_sensitivity
from repro.core import local_sensitivity, naive_local_sensitivity
from repro.datasets import random_acyclic_query, random_database
from repro.exceptions import MechanismConfigError


class TestReevaluation:
    @pytest.mark.parametrize("mode", ["incremental", "full"])
    def test_matches_naive_fig1(self, fig1_query, fig1_db, mode):
        fast = reevaluation_sensitivity(fig1_query, fig1_db, mode=mode)
        slow = naive_local_sensitivity(fig1_query, fig1_db)
        assert fast.local_sensitivity == slow.local_sensitivity

    def test_matches_naive_random(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            query = random_acyclic_query(rng, num_atoms=3)
            db = random_database(query, rng)
            fast = reevaluation_sensitivity(query, db)
            slow = naive_local_sensitivity(query, db)
            assert fast.local_sensitivity == slow.local_sensitivity

    def test_modes_agree_exactly(self, fig3_query, fig3_db):
        incremental = reevaluation_sensitivity(fig3_query, fig3_db)
        full = reevaluation_sensitivity(fig3_query, fig3_db, mode="full")
        assert incremental.local_sensitivity == full.local_sensitivity
        for relation in fig3_query.relation_names:
            a = incremental.per_relation[relation]
            b = full.per_relation[relation]
            assert a.sensitivity == b.sensitivity
            assert dict(a.assignment) == dict(b.assignment)

    @pytest.mark.parametrize("mode", ["incremental", "full"])
    def test_sampled_mode_lower_bounds(self, fig3_query, fig3_db, mode):
        exact = naive_local_sensitivity(fig3_query, fig3_db).local_sensitivity
        sampled = reevaluation_sensitivity(
            fig3_query, fig3_db, max_probes_per_relation=2, seed=5, mode=mode
        )
        assert sampled.local_sensitivity <= exact
        assert sampled.method.startswith("reeval-sampled")

    def test_deletions_only_mode(self, fig1_query, fig1_db):
        result = reevaluation_sensitivity(
            fig1_query, fig1_db, include_insertions=False
        )
        # Downward-only: Fig. 1's LS of 4 needs an insertion, so the
        # deletions-only bound is strictly smaller.
        assert result.local_sensitivity == 1

    def test_method_labels(self, fig1_query, fig1_db):
        assert (
            reevaluation_sensitivity(fig1_query, fig1_db).method
            == "reeval-incremental"
        )
        assert (
            reevaluation_sensitivity(fig1_query, fig1_db, mode="full").method
            == "reeval"
        )

    def test_unknown_mode_rejected(self, fig1_query, fig1_db):
        with pytest.raises(MechanismConfigError):
            reevaluation_sensitivity(fig1_query, fig1_db, mode="lazy")


class TestApiDispatch:
    def test_local_sensitivity_reeval_method(self, fig1_query, fig1_db):
        via_api = local_sensitivity(fig1_query, fig1_db, method="reeval")
        direct = naive_local_sensitivity(fig1_query, fig1_db)
        assert via_api.method == "reeval-incremental"
        assert via_api.local_sensitivity == direct.local_sensitivity

    def test_local_sensitivity_reeval_full_mode(self, fig1_query, fig1_db):
        via_api = local_sensitivity(
            fig1_query, fig1_db, method="reeval", reeval_mode="full"
        )
        assert via_api.method == "reeval"

    @pytest.mark.parametrize("mode", ["incremental", "full"])
    def test_max_width_reaches_auto_decompose(
        self, triangle_query, triangle_db, mode
    ):
        from repro.exceptions import DecompositionError

        # width 2 suffices for the triangle; width 1 forbids merging.
        ok = local_sensitivity(
            triangle_query, triangle_db, method="reeval",
            reeval_mode=mode, max_width=2,
        )
        assert ok.local_sensitivity == naive_local_sensitivity(
            triangle_query, triangle_db
        ).local_sensitivity
        with pytest.raises(DecompositionError):
            local_sensitivity(
                triangle_query, triangle_db, method="reeval",
                reeval_mode=mode, max_width=1,
            )

    def test_reeval_rejects_unsupported_knobs(self, fig1_query, fig1_db):
        with pytest.raises(MechanismConfigError):
            local_sensitivity(fig1_query, fig1_db, method="reeval", top_k=2)
        with pytest.raises(MechanismConfigError):
            local_sensitivity(
                fig1_query, fig1_db, method="reeval", skip_relations=("R1",)
            )


@pytest.mark.parametrize("backend", ["python", "columnar"])
class TestWitnessIndependentOfRowOrder:
    def test_ties_go_to_the_smallest_tuple(self, backend):
        """Every R candidate has sensitivity 1.  With 3 and 0 encoded
        before 1 and 2, a session's patched R holds its rows as 3, 0, 1, 2
        on columnar, while a database replayed through ``add_tuple`` holds
        1, 2, 3, 0; the reeval witness is A=0 either way, as in TSens."""
        from repro.engine import ColumnarRelation, Database, Relation
        from repro.engine.columnar import reset_vocabulary
        from repro.query import parse_query
        from repro.session import prepare

        reset_vocabulary()
        ColumnarRelation(["A"], [(3,), (0,), (1,), (2,)])  # codes 3 < 0 < 1 < 2
        query = parse_query("Q(A,B) :- R(A), S(A,B)")
        db = Database(
            {
                "R": Relation(["A"], [(1,), (2,)]),
                "S": Relation(["A", "B"], [(1, 10), (2, 20)]),
            },
            backend=backend,
        )
        updates = [
            ("insert", "R", (3,)),
            ("insert", "R", (0,)),
            ("insert", "S", (3, 30)),
            ("insert", "S", (0, 5)),
        ]
        session = prepare(query, db)
        session.apply(updates)
        replayed = db
        for _, relation, row in updates:
            replayed = replayed.add_tuple(relation, row)
        fresh = prepare(query, replayed)
        for result in (
            session.sensitivity(method="reeval"),
            fresh.sensitivity(method="reeval"),
            session.sensitivity(),
        ):
            witness = result.per_relation["R"]
            assert (dict(witness.assignment), witness.sensitivity) == ({"A": 0}, 1)
