"""A PrivSQL-style baseline (PrivateSQL, Kotsogiannis et al. 2019).

PrivSQL answers SQL counting queries under a *policy*: one primary private
relation, with privacy propagating to other relations through foreign keys
(deleting a primary tuple cascades).  Its truncation strategy differs from
TSensDP in two ways the paper contrasts (Sec. 6.2 "Discussion"):

* it truncates **non-primary** relations, capping the *frequency* of each
  foreign-key group at a learned threshold — frequency, not tuple
  sensitivity, so it can both over-truncate (bias, e.g. q2) and keep the
  actually-sensitive tuples (loose bounds, e.g. q3);
* its SVT threshold queries have sensitivity equal to the relation's
  policy sensitivity (the product of caps up the FK chain), not 1.

Global sensitivity of the truncated query is obtained by Flex-style static
analysis on the truncated instance with the learned caps substituted for
the truncated relations' join-key frequencies — mirroring PrivateSQL's
constraint-driven sensitivity computation.  As in the paper's experiments,
the synopsis phase is disabled: the query is answered directly with the
Laplace mechanism.

This is a reimplementation in shape, not a port; simplifications are
documented in DESIGN.md ("Substitutions").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.database import Database, ForeignKey
from repro.engine.operators import patch, semijoin
from repro.engine.relation import Relation
from repro.evaluation.yannakakis import count_query
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.jointree import DecompositionTree
from repro.baselines.elastic import elastic_sensitivity
from repro.dp.accountant import BudgetAccountant
from repro.dp.marking import declassified
from repro.dp.primitives import above_threshold, laplace_mechanism, validate_release


@dataclass
class PrivSQLOutcome:
    """One run of the PrivSQL-style mechanism (fields mirror
    :class:`~repro.dp.tsensdp.TSensDPOutcome` for side-by-side reporting)."""

    answer: float
    global_sensitivity: int
    thresholds: Dict[str, int]
    true_count: int
    truncated_count: int
    epsilon: float
    ledger: Dict[str, float]

    @property
    def bias(self) -> int:
        return abs(self.true_count - self.truncated_count)

    @property
    def relative_bias(self) -> float:
        if self.true_count == 0:
            return 0.0
        return self.bias / self.true_count

    @property
    def error(self) -> float:
        return abs(self.answer - self.true_count)

    @property
    def relative_error(self) -> float:
        if self.true_count == 0:
            return 0.0
        return self.error / self.true_count


def affected_relations(db: Database, primary: str) -> List[ForeignKey]:
    """Foreign keys reachable from ``primary`` walking parent→child.

    Returns the FK edges in BFS order; their child relations are the ones
    the policy marks as (transitively) private and hence truncatable.
    """
    edges: List[ForeignKey] = []
    frontier = [primary]
    visited = {primary}
    while frontier:
        current = frontier.pop(0)
        for fk in db.foreign_keys:
            if fk.parent == current and fk.child not in visited:
                edges.append(fk)
                visited.add(fk.child)
                frontier.append(fk.child)
    return edges


def _frequency_groups(relation: Relation, attributes: Tuple[str, ...]) -> Dict:
    groups: Dict = {}
    positions = relation.schema.project_positions(attributes)
    for row, cnt in relation.items():
        key = tuple(row[p] for p in positions)
        groups[key] = groups.get(key, 0) + cnt
    return groups


def _truncate_by_frequency(
    relation: Relation,
    attributes: Tuple[str, ...],
    threshold: int,
    groups: Optional[Dict] = None,
) -> Relation:
    """Drop all tuples of any FK group whose frequency exceeds ``threshold``
    (PrivateSQL's row-dropping semantics): the groups' rows are patched
    out by monus.  ``groups`` are the relation's
    :func:`_frequency_groups` when the caller already has them."""
    if groups is None:
        groups = _frequency_groups(relation, attributes)
    over = type(relation)(
        attributes, [key for key, freq in groups.items() if freq > threshold]
    )
    return patch(relation, minus=semijoin(relation, over))


def run_privsql(
    query: ConjunctiveQuery,
    db: Database,
    primary: str,
    epsilon: float,
    tree: Optional[DecompositionTree] = None,
    max_threshold: int = 4096,
    rng: Optional[np.random.Generator] = None,
    clamp_nonnegative: bool = True,
    true_count: Optional[int] = None,
) -> PrivSQLOutcome:
    """Run the PrivSQL-style mechanism once.

    Parameters
    ----------
    query, db, primary:
        Counting query, instance (with declared foreign keys), and primary
        private relation.
    epsilon:
        Total budget.  Half learns the per-relation frequency caps (when
        the policy yields truncatable relations); the rest answers.
    tree:
        Decomposition used for counting and for the Flex join plan.
    max_threshold:
        Upper end of the SVT threshold scan per relation.
    true_count:
        ``|Q(D)|`` when the caller already holds it (a session's
        maintained count); counted on ``db`` otherwise.  Only an instance
        the truncation changed is counted again.
    """
    validate_release("privsql", epsilon, max_threshold=max_threshold)
    if rng is None:
        rng = np.random.default_rng()
    accountant = BudgetAccountant(epsilon)
    fk_edges = affected_relations(db, primary)

    thresholds: Dict[str, int] = {}
    truncated_db = db
    if fk_edges:
        epsilon_learning = epsilon / 2.0
        per_relation_budget = epsilon_learning / len(fk_edges)
        # Policy sensitivity accumulates caps along the FK chain.
        policy_sensitivity: Dict[str, int] = {primary: 1}
        for fk in fk_edges:
            accountant.spend(per_relation_budget, f"svt:{fk.child}")
            relation = truncated_db.relation(fk.child)
            groups = _frequency_groups(relation, fk.child_attributes)
            parent_sensitivity = policy_sensitivity.get(fk.parent, 1)

            def overflow_counts():
                # q_i = −(number of FK groups with frequency > i); SVT stops
                # at the first i where (noisily) no group overflows.
                for i in range(1, max_threshold + 1):
                    yield -sum(1 for freq in groups.values() if freq > i)

            found = above_threshold(
                overflow_counts(),
                threshold=-0.5,
                epsilon=per_relation_budget,
                rng=rng,
                sensitivity=float(parent_sensitivity),
            )
            cap = (found + 1) if found is not None else max_threshold
            thresholds[fk.child] = cap
            policy_sensitivity[fk.child] = parent_sensitivity * cap
            truncated_db = truncated_db.with_relation(
                fk.child,
                _truncate_by_frequency(relation, fk.child_attributes, cap, groups),
            )
        epsilon_answer = epsilon - epsilon_learning
    else:
        epsilon_answer = epsilon

    # Static (Flex-style) global sensitivity bound w.r.t. the primary on
    # the truncated instance; learned caps stand in for truncated
    # relations' key frequencies via the truncated data itself.
    global_sensitivity = elastic_sensitivity(
        query, truncated_db, tree=tree, protected=primary
    )
    global_sensitivity = max(1, global_sensitivity)

    if true_count is None:
        true_count = count_query(query, db, tree=tree)
    # With no foreign key leaving the primary nothing was truncated.
    truncated = (
        true_count if truncated_db is db else count_query(query, truncated_db, tree=tree)
    )
    accountant.spend(epsilon_answer, "answer")
    answer = laplace_mechanism(truncated, global_sensitivity, epsilon_answer, rng)
    if clamp_nonnegative and answer < 0:
        answer = 0.0

    return PrivSQLOutcome(
        answer=answer,
        global_sensitivity=global_sensitivity,
        thresholds=thresholds,
        true_count=declassified(true_count, reason="debug field for experiments"),
        truncated_count=declassified(truncated, reason="debug field for experiments"),
        epsilon=epsilon,
        ledger=accountant.ledger(),
    )
