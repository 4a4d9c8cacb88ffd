"""The truncation oracle's probe levels equal the multiplicity-table entries.

:class:`~repro.dp.truncation.TruncationOracle` reads every primary tuple's
sensitivity from one probe on the session's maintained state, not from
TSens's multiplicity table.  Over random queries — connected acyclic,
cyclic (GHD), with a selection on one atom, and with a second connected
component (whose count multiplies every delta of the first) — on both
backends, each probe level must equal the table entry of
``local_sensitivity(...).table(primary)`` (0 for a row failing the
selection), and each truncated count must equal a re-evaluation on the
truncated database.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import local_sensitivity, prepare
from repro.datasets import random_acyclic_query, random_database
from repro.query import parse_predicate, parse_query
from repro.query.atoms import Atom
from repro.query.conjunctive import ConjunctiveQuery

seeds = st.integers(min_value=0, max_value=10_000)

BACKENDS = ("python", "columnar")


def _random_instance(rng, backend):
    """A random query, instance and primary; a selection, when there is
    one, is on the primary at least half the time."""
    if rng.random() < 0.25:
        query = parse_query("R(A,B), S(B,C), T(C,A)")
    else:
        query = random_acyclic_query(rng, num_atoms=int(rng.integers(2, 4)))
    atoms = list(query.atoms)
    if rng.random() < 0.5:
        # A second component over fresh variables: its count scales the
        # first component's sensitivities and vice versa.
        atoms.append(Atom("U", ("W1", "W2")))
        if rng.random() < 0.5:
            atoms.append(Atom("V", ("W2",)))
    query = ConjunctiveQuery(atoms, name="Qtrunc")
    db = random_database(query, rng, domain_size=3, max_rows=6, backend=backend)
    primary = atoms[int(rng.integers(0, len(atoms)))].relation
    if rng.random() < 0.6:
        target = primary
        if rng.random() < 0.5:
            target = atoms[int(rng.integers(0, len(atoms)))].relation
        variable = query.atom(target).variables[0]
        query = query.with_selection(
            target, parse_predicate(f"{variable} != {int(rng.integers(0, 3))}")
        )
    return query, db, primary


@pytest.mark.parametrize("backend", BACKENDS)
class TestProbeLevelsEqualTableEntries:
    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_levels_and_truncated_counts(self, backend, seed):
        query, db, primary = _random_instance(np.random.default_rng(seed), backend)
        oracle = prepare(query, db).truncation_oracle(primary)

        table = local_sensitivity(query, db).table(primary)
        atom = query.atom(primary)
        predicate = query.selections.get(primary)
        expected = {}
        for row in db.relation(primary):
            assignment = dict(zip(atom.variables, row))
            passes = predicate is None or predicate(assignment)
            expected[row] = table.sensitivity_of(assignment) if passes else 0
        assert oracle._sensitivities == expected

        levels = sorted(set(expected.values()))
        for threshold in {0, *levels, *(level + 1 for level in levels)}:
            assert oracle.truncated_count(
                threshold
            ) == oracle.truncated_count_reevaluated(threshold)
