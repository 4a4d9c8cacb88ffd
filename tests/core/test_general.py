"""Unit tests for :mod:`repro.core.general` — disconnected & cyclic TSens."""

import numpy as np
import pytest

from repro.core import naive_local_sensitivity, tsens
from repro.datasets import random_acyclic_query, random_database
from repro.engine import Database, Relation
from repro.query import Atom, ConjunctiveQuery, parse_query


def union_query(*texts):
    """Glue independent (variable-disjoint) queries into one body."""
    atoms = []
    for text in texts:
        atoms.extend(parse_query(text).atoms)
    return ConjunctiveQuery(atoms, name="Qunion")


class TestDisconnected:
    def test_three_components(self):
        q = union_query("R(A,B), S(B,C)", "T(D)", "U(E)")
        db = Database(
            {
                "R": Relation(["A", "B"], [(1, 2)]),
                "S": Relation(["B", "C"], [(2, 3), (2, 4)]),
                "T": Relation(["D"], [(0,)] * 3),
                "U": Relation(["E"], [(0,), (1,)]),
            }
        )
        fast = tsens(q, db)
        slow = naive_local_sensitivity(q, db)
        assert fast.local_sensitivity == slow.local_sensitivity
        # Adding R(x, 2): 2 (S partners) × 3 (T) × 2 (U) = 12 — the max;
        # S contributes 1×3×2 = 6, T 2×2 = 4, U 2×3 = 6.
        assert fast.local_sensitivity == 12
        assert fast.per_relation["S"].sensitivity == 6
        assert fast.per_relation["T"].sensitivity == 4

    def test_tables_are_scaled(self):
        q = union_query("R(A)", "S(B)")
        db = Database(
            {
                "R": Relation(["A"], [(1,), (1,)]),
                "S": Relation(["B"], [(7,)] * 5),
            }
        )
        result = tsens(q, db)
        # δ of inserting R(1): 5 outputs per copy... table for R must say
        # that any A value has sensitivity |S| = 5 (scaled multiplier).
        assert result.tuple_sensitivity("R", {"A": 1}) == 5
        assert result.tuple_sensitivity("S", {"B": 7}) == 2

    def test_cyclic_component(self, triangle_db):
        # Triangle component (planned as a GHD) + isolated unary component.
        atoms = list(parse_query("R1(A,B), R2(B,C), R3(C,A)").atoms)
        atoms.append(Atom("Z", ("W",)))
        q = ConjunctiveQuery(atoms, name="Qmix")
        db = Database(
            {
                "R1": triangle_db.relation("R1"),
                "R2": triangle_db.relation("R2"),
                "R3": triangle_db.relation("R3"),
                "Z": Relation(["W"], [(0,), (1,)]),
            }
        )
        fast = tsens(q, db)
        slow = naive_local_sensitivity(q, db)
        assert fast.local_sensitivity == slow.local_sensitivity

    def test_random_disconnected_vs_naive(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            left = random_acyclic_query(rng, num_atoms=2)
            right_atoms = [
                Atom(f"X{i}", tuple(f"W{i}_{j}" for j in range(2)))
                for i in range(2)
            ]
            # Make the second component connected via one shared variable.
            right_atoms[1] = Atom("X1", (right_atoms[0].variables[1], "W9"))
            atoms = list(left.atoms) + right_atoms
            q = ConjunctiveQuery(atoms, name="Qdis")
            db = random_database(q, rng, max_rows=4)
            fast = tsens(q, db)
            slow = naive_local_sensitivity(q, db)
            assert fast.local_sensitivity == slow.local_sensitivity

    def test_witness_prefers_assigned(self):
        q = union_query("R(A)", "S(B)")
        db = Database(
            {
                "R": Relation(["A"], [(1,)]),
                "S": Relation(["B"], [(7,)]),
            }
        )
        result = tsens(q, db)
        assert result.local_sensitivity == 1
        assert result.witness is not None
        assert result.witness.assignment
