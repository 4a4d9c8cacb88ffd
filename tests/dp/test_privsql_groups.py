"""PrivSQL groups each foreign-key child by its key once per release.

The SVT scan and the truncation of the same relation read the same
frequency groups, so :func:`repro.dp.privsql.run_privsql` computes them
once per foreign-key edge and hands them to the truncation.
"""

import numpy as np

from repro.dp import privsql
from repro.engine import Database, ForeignKey, Relation
from repro.query import parse_query


def test_one_grouping_per_foreign_key_edge(monkeypatch):
    query = parse_query("C(CK), O(CK,OK), L(OK,PK)")
    db = Database(
        {
            "C": Relation(["CK"], [(c,) for c in range(4)]),
            "O": Relation(["CK", "OK"], [(c % 4, o) for c, o in zip(range(12), range(12))]),
            "L": Relation(["OK", "PK"], [(o % 12, p % 3) for o, p in zip(range(30), range(30))]),
        },
        primary_keys={"C": ("CK",), "O": ("OK",)},
        foreign_keys=[
            ForeignKey("O", ("CK",), "C", ("CK",)),
            ForeignKey("L", ("OK",), "O", ("OK",)),
        ],
    )
    calls = []
    real = privsql._frequency_groups

    def spy(relation, attributes):
        calls.append(attributes)
        return real(relation, attributes)

    monkeypatch.setattr(privsql, "_frequency_groups", spy)
    outcome = privsql.run_privsql(query, db, "C", 1.0, rng=np.random.default_rng(0))
    assert calls == [("CK",), ("OK",)]
    assert set(outcome.thresholds) == {"O", "L"}
