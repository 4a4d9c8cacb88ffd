"""FlexDP — the elastic/smooth-sensitivity mechanism of Johnson et al.

The TSens paper compares against Flex's *sensitivity estimates*; for the DP
ablations we also reproduce Flex's full mechanism so all three approaches
(TSensDP, PrivSQL, FlexDP) answer the same queries:

1. compute elastic sensitivity at every distance ``k``
   (:func:`repro.baselines.elastic.elastic_sensitivity_by_distance`: each
   relation's statistics are read once, then the join plan is walked once
   per distance);
2. form the β-smooth upper bound ``S = max_k e^{-βk} · Ŝ^(k)(Q, D)`` with
   ``β = ε / (2·ln(2/δ))``;
3. release ``Q(D) + Lap(2·S/ε)``, which is (ε, δ)-differentially private
   by the smooth-sensitivity framework of Nissim et al.

Because ``Ŝ^(k)`` grows polynomially in ``k`` (degree ≤ number of joins)
while the discount decays exponentially, the maximum is attained at small
``k``; the search stops after the discounted series has decreased long
enough for the polynomial bound to guarantee no later rebound.

Note: for the self-join-free CQ class this library targets, a single
protected relation's distance-``k`` frequencies only ever multiply the
zero sensitivities of the other relations, so ``Ŝ^(k)`` is constant in
``k`` and the smooth bound collapses to ``Ŝ^(0)`` at distance 0.  The
full machinery is kept because it is Flex's actual mechanism (and the
ablation benches exercise it); with self-joins the series would grow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.baselines.elastic import JoinPlan, elastic_sensitivity_by_distance
from repro.engine.database import Database
from repro.evaluation.yannakakis import count_query
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.jointree import DecompositionTree
from repro.dp.marking import declassified
from repro.dp.primitives import laplace_mechanism, validate_release
from repro.exceptions import MechanismConfigError


@dataclass
class FlexDPOutcome:
    """One run of FlexDP (fields mirror the other mechanisms' outcomes)."""

    answer: float
    smooth_sensitivity: float
    beta: float
    peak_distance: int
    true_count: int
    epsilon: float
    delta: float

    @property
    def error(self) -> float:
        return abs(self.answer - self.true_count)

    @property
    def relative_error(self) -> float:
        if self.true_count == 0:
            return 0.0
        return self.error / self.true_count


def smooth_elastic_sensitivity(
    query: ConjunctiveQuery,
    db: Database,
    protected: str,
    beta: float,
    plan: Optional[JoinPlan] = None,
    tree: Optional[DecompositionTree] = None,
    max_distance: int = 10_000,
) -> tuple:
    """``max_k e^{-βk} · Ŝ^(k)`` and the arg-max distance.

    The scan stops once the discounted value has fallen for
    ``ceil(m/β)``-ish consecutive steps — beyond the peak of a degree-m
    polynomial times ``e^{-βk}`` the series is monotone decreasing, so a
    long decrease certifies the global maximum was seen.
    """
    if beta <= 0:
        raise MechanismConfigError(f"beta must be positive, got {beta}")
    degree = max(1, len(query.relation_names))
    patience = max(10, int(math.ceil(degree / beta)))
    at_distance = elastic_sensitivity_by_distance(
        query, db, protected, plan=plan, tree=tree
    )
    best_value, best_distance = 0.0, 0
    decreasing_streak = 0
    previous = None
    for k in range(max_distance + 1):
        value = math.exp(-beta * k) * at_distance(k)
        if value > best_value:
            best_value, best_distance = value, k
        if previous is not None and value <= previous:
            decreasing_streak += 1
            if decreasing_streak >= patience:
                break
        else:
            decreasing_streak = 0
        previous = value
    return best_value, best_distance


def run_flex_dp(
    query: ConjunctiveQuery,
    db: Database,
    primary: str,
    epsilon: float,
    delta: float = 1e-6,
    tree: Optional[DecompositionTree] = None,
    rng: Optional[np.random.Generator] = None,
    clamp_nonnegative: bool = True,
    true_count: Optional[int] = None,
) -> FlexDPOutcome:
    """Answer a counting query with Flex's smooth elastic sensitivity.

    Parameters
    ----------
    query, db, primary:
        The counting query, instance, and protected relation.
    epsilon, delta:
        The (ε, δ)-DP parameters; ``β = ε / (2 ln(2/δ))``.
    tree:
        Decomposition used for counting and the default join plan.
    true_count:
        ``|Q(D)|`` when the caller already holds it (a session's
        maintained count); counted on ``db`` otherwise.
    """
    validate_release("flexdp", epsilon, delta=delta)
    if rng is None:
        rng = np.random.default_rng()
    beta = epsilon / (2.0 * math.log(2.0 / delta))
    smooth, peak = smooth_elastic_sensitivity(
        query, db, protected=primary, beta=beta, tree=tree
    )
    if true_count is None:
        true_count = count_query(query, db, tree=tree)
    # Smooth-sensitivity Laplace: noise scale 2·S/ε.
    answer = laplace_mechanism(true_count, 2.0 * smooth, epsilon, rng)
    if clamp_nonnegative and answer < 0:
        answer = 0.0
    return FlexDPOutcome(
        answer=answer,
        smooth_sensitivity=smooth,
        beta=beta,
        peak_distance=peak,
        true_count=declassified(true_count, reason="debug field for experiments"),
        epsilon=epsilon,
        delta=delta,
    )
