"""Unit tests for TSens truncation (Definition 6.4) and the oracle."""

import numpy as np
import pytest

from repro.datasets.tpch import generate_tpch
from repro.dp import TruncationOracle, tsens_truncate, tuple_sensitivities
from repro.engine import Database, Relation
from repro.evaluation import IncrementalEvaluator, count_query
from repro.evaluation import joinstate
from repro.query import parse_query
from repro.session import PreparedQuery, prepare
from repro.exceptions import MechanismConfigError
from repro.workloads.tpch_queries import q1_workload, q2_workload


@pytest.fixture
def star_db():
    """R(U,V) joining S(V,W): one hot V value with fan-out 4."""
    rows_r = [("u1", "hot"), ("u2", "hot"), ("u3", "cold")]
    rows_s = [("hot", f"w{i}") for i in range(4)] + [("cold", "w9")]
    return Database(
        {
            "R": Relation(["U", "V"], rows_r),
            "S": Relation(["V", "W"], rows_s),
        }
    )


@pytest.fixture
def star_query():
    return parse_query("Q(U,V,W) :- R(U,V), S(V,W)")


class TestTupleSensitivities:
    def test_values(self, star_query, star_db):
        sens = tuple_sensitivities(star_query, star_db, "R")
        assert sens[("u1", "hot")] == 4
        assert sens[("u3", "cold")] == 1

    def test_selection_gives_zero(self, star_query, star_db):
        filtered = star_query.with_selection("R", lambda row: row["U"] != "u1")
        sens = tuple_sensitivities(filtered, star_db, "R")
        assert sens[("u1", "hot")] == 0
        assert sens[("u2", "hot")] == 4


@pytest.mark.parametrize("workload", [q1_workload(), q2_workload()], ids=["q1", "q2"])
class TestTupleSensitivitiesBulkLookup:
    """The primary's sensitivities come from one probe of all its tuples,
    never from a multiplicity table."""

    def _db(self, workload, backend):
        return workload.prepare(generate_tpch(0.002, seed=3, backend=backend))

    def _sensitivities(self, workload, db):
        return tuple_sensitivities(
            workload.query, db, workload.primary, tree=workload.tree
        )

    def test_backends_identical(self, workload):
        python = self._sensitivities(workload, self._db(workload, "python"))
        columnar = self._sensitivities(workload, self._db(workload, "columnar"))
        assert columnar == python
        assert any(python.values())

    def test_one_probe_pass(self, workload, monkeypatch):
        db = self._db(workload, "columnar")
        probes, tables = [], []
        original_probe = IncrementalEvaluator.delta_batch
        original_build = joinstate.build_table

        def probe(self, relation, rows):
            probes.append((relation, len(rows)))
            return original_probe(self, relation, rows)

        def build(*args, **kwargs):
            tables.append(args)
            return original_build(*args, **kwargs)

        monkeypatch.setattr(IncrementalEvaluator, "delta_batch", probe)
        monkeypatch.setattr(joinstate, "build_table", build)
        sensitivities = self._sensitivities(workload, db)
        primary = db.relation(workload.primary)
        assert probes == [(workload.primary, len(sensitivities))]
        assert set(sensitivities) == set(primary)
        assert tables == []


class TestTruncate:
    def test_definition_6_4(self, star_query, star_db):
        truncated = tsens_truncate(star_query, star_db, "R", threshold=2)
        kept = dict(truncated.relation("R").items())
        assert kept == {("u3", "cold"): 1}
        # Other relations untouched.
        assert truncated.relation("S") == star_db.relation("S")

    def test_threshold_at_max_keeps_all(self, star_query, star_db):
        truncated = tsens_truncate(star_query, star_db, "R", threshold=4)
        assert truncated.relation("R") == star_db.relation("R")

    def test_negative_threshold_rejected(self, star_query, star_db):
        with pytest.raises(MechanismConfigError):
            tsens_truncate(star_query, star_db, "R", threshold=-1)


class TestOracle:
    def test_counts_match_reevaluation(self, star_query, star_db):
        oracle = TruncationOracle(star_query, star_db, "R")
        for threshold in range(0, 7):
            assert oracle.truncated_count(
                threshold
            ) == oracle.truncated_count_reevaluated(threshold)

    def test_monotone_in_threshold(self, star_query, star_db):
        oracle = TruncationOracle(star_query, star_db, "R")
        counts = [oracle.truncated_count(i) for i in range(0, 7)]
        assert counts == sorted(counts)
        assert counts[-1] == oracle.base_count

    def test_base_count(self, star_query, star_db):
        oracle = TruncationOracle(star_query, star_db, "R")
        assert oracle.base_count == count_query(star_query, star_db)

    def test_max_primary_sensitivity(self, star_query, star_db):
        oracle = TruncationOracle(star_query, star_db, "R")
        assert oracle.max_primary_sensitivity == 4

    def test_truncated_fraction(self, star_query, star_db):
        oracle = TruncationOracle(star_query, star_db, "R")
        assert oracle.truncated_fraction(4) == 0.0
        assert oracle.truncated_fraction(2) == pytest.approx(2 / 3)

    def test_bag_multiplicities(self):
        q = parse_query("R(U), S(U)")
        db = Database(
            {
                "R": Relation(["U"], {("a",): 3, ("b",): 1}),
                "S": Relation(["U"], {("a",): 2, ("b",): 1}),
            }
        )
        oracle = TruncationOracle(q, db, "R")
        # δ(R(a)) = 2 (its S partners); removing all 3 copies drops 6.
        assert oracle.base_count == 7
        assert oracle.truncated_count(1) == 1
        assert oracle.truncated_count(1) == oracle.truncated_count_reevaluated(1)

    def test_session_over_another_database_rejected(self, star_query, star_db):
        session = prepare(star_query, star_db.add_tuple("R", ("u9", "hot")))
        with pytest.raises(MechanismConfigError, match="another database"):
            TruncationOracle(star_query, star_db, "R", session=session)

    def test_forks_only_a_callers_session(self, star_query, star_db, monkeypatch):
        """A session the oracle prepares itself is its snapshot; a caller's
        session is forked, so a later update of it leaves the oracle's
        diagnostic where it was."""
        forks = []
        original = PreparedQuery.fork
        monkeypatch.setattr(
            PreparedQuery, "fork", lambda self: forks.append(self) or original(self)
        )
        owned = TruncationOracle(star_query, star_db, "R")
        assert forks == [] and owned.local_sensitivity == 4
        session = prepare(star_query, star_db)
        oracle = TruncationOracle(star_query, star_db, "R", session=session)
        assert forks == [session]
        session.insert("S", ("hot", "w5"))
        assert oracle.local_sensitivity == 4
        assert session.sensitivity().local_sensitivity == 5


class TestGlobalSensitivityProperty:
    def test_truncated_query_changes_at_most_tau(self, star_query, star_db):
        """Empirical Theorem 6.1 check: |Q(T(D', τ)) − Q(T(D, τ))| ≤ τ for
        neighbouring D' (one primary tuple added/removed), with the
        truncation recomputed on each database."""
        tau = 2

        def truncated_count(db):
            return count_query(
                star_query, tsens_truncate(star_query, db, "R", tau)
            )

        base = truncated_count(star_db)
        rng = np.random.default_rng(0)
        candidates = [("u1", "hot"), ("u9", "hot"), ("u9", "cold"), ("zz", "zz")]
        for row in candidates:
            grown = truncated_count(star_db.add_tuple("R", row))
            assert abs(grown - base) <= tau
        for row in star_db.relation("R"):
            shrunk = truncated_count(star_db.remove_tuple("R", row))
            assert abs(shrunk - base) <= tau
