"""TSensDP — the truncation-based DP mechanism of Sec. 6.2 / Theorem 6.1.

Given a query ``Q``, a database ``D`` with primary private relation ``PR``,
a total budget ``ε`` and a public upper bound ``ℓ`` on tuple sensitivity:

1. spend ``ε_tsens = ε/2`` on learning a truncation threshold:

   a. release ``Q̂ = Q(T(D, ℓ)) + Lap(ℓ / (ε_tsens/2))`` — a rough estimate
      of the (nearly untruncated) count;
   b. run SVT with budget ``ε_tsens/2`` over the rescaled queries
      ``q_i = (Q(T(D, i)) − Q̂) / i`` for ``i = 1..ℓ−1`` against threshold
      0.  Each ``q_i`` has global sensitivity 1 because ``Q(T(·, i))`` has
      global sensitivity ``i``.  The first ``i`` whose noisy ``q_i``
      clears the noisy threshold becomes ``τ`` (default ``ℓ``);

2. spend the remaining ``ε − ε_tsens`` answering:
   ``Q(T(D, τ)) + Lap(τ / (ε − ε_tsens))``.

Every ``Q(T(D, i))`` is read off one
:class:`~repro.dp.truncation.TruncationOracle`, whose tuple sensitivities
come from one probe of the primary's tuples and whose base count is one
count: no multiplicity table is built.

The combination is ε-DP by sequential composition (Theorem 6.1).  The
returned :class:`TSensDPOutcome` carries non-private diagnostics (bias,
error) for experiment reporting only — they are never released by the
mechanism itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

import numpy as np

from repro.engine.database import Database
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.jointree import DecompositionTree
from repro.dp.accountant import BudgetAccountant
from repro.dp.marking import declassified
from repro.dp.primitives import above_threshold, laplace_mechanism
from repro.dp.truncation import TruncationOracle
from repro.exceptions import MechanismConfigError


@dataclass
class TSensDPOutcome:
    """One run of the TSensDP mechanism.

    ``answer`` is the DP release.  Everything else is diagnostic: the
    learned threshold ``tau`` (equals the global sensitivity of the final
    Laplace step), the non-private true and truncated counts, and the
    derived bias/error statistics the paper's Table 2 reports.
    """

    answer: float
    tau: int
    global_sensitivity: int
    noisy_estimate: float
    true_count: int
    truncated_count: int
    epsilon: float
    epsilon_threshold: float
    ledger: Dict[str, float]

    @property
    def bias(self) -> int:
        """Truncation bias ``|Q(D) − Q(T(D, τ))|`` (non-private)."""
        return abs(self.true_count - self.truncated_count)

    @property
    def relative_bias(self) -> float:
        """Bias relative to the true count (0 when the count is 0)."""
        if self.true_count == 0:
            return 0.0
        return self.bias / self.true_count

    @property
    def error(self) -> float:
        """Absolute error ``|answer − Q(D)|`` (non-private)."""
        return abs(self.answer - self.true_count)

    @property
    def relative_error(self) -> float:
        """Error relative to the true count (0 when the count is 0)."""
        if self.true_count == 0:
            return 0.0
        return self.error / self.true_count


def run_tsens_dp(
    query: ConjunctiveQuery,
    db: Database,
    primary: str,
    epsilon: float,
    ell: int,
    tree: Optional[DecompositionTree] = None,
    oracle: Optional[TruncationOracle] = None,
    rng: Optional[np.random.Generator] = None,
    clamp_nonnegative: bool = True,
) -> TSensDPOutcome:
    """Run TSensDP once and return the release plus diagnostics.

    Parameters
    ----------
    query, db, primary:
        The counting query, instance, and primary private relation.
    epsilon:
        Total privacy budget (split in halves as in the paper's Sec. 7.3).
    ell:
        Public upper bound on tuple sensitivity.  DP holds for any value;
        accuracy degrades when it is far from the true local sensitivity
        (the paper's parameter analysis, reproduced in experiment E6).
    tree:
        Decomposition for the default oracle's session.
    oracle:
        Reuse hook: pass a :class:`~repro.dp.truncation.TruncationOracle`
        (one probe of the primary plus one count) when running the
        mechanism repeatedly on the same instance.
    rng:
        Source of randomness (defaults to a fresh nondeterministic one).
    clamp_nonnegative:
        Clamp the released count at 0 (postprocessing, free of charge), as
        the paper does in Table 2.
    """
    if ell < 1:
        raise MechanismConfigError(f"ell must be >= 1, got {ell}")
    if rng is None:
        rng = np.random.default_rng()
    accountant = BudgetAccountant(epsilon)
    epsilon_threshold = epsilon / 2.0
    epsilon_estimate = epsilon_threshold / 2.0
    epsilon_svt = epsilon_threshold - epsilon_estimate
    epsilon_answer = epsilon - epsilon_threshold

    if oracle is None:
        oracle = TruncationOracle(query, db, primary, tree=tree)

    # Step 1a: rough estimate at the loosest truncation.
    accountant.spend(epsilon_estimate, "estimate")
    noisy_estimate = laplace_mechanism(
        oracle.truncated_count(ell), ell, epsilon_estimate, rng
    )

    # Step 1b: SVT over the rescaled threshold queries.
    accountant.spend(epsilon_svt, "svt")

    def threshold_queries() -> Iterator[float]:
        for i in range(1, ell):
            yield (oracle.truncated_count(i) - noisy_estimate) / i

    found = above_threshold(
        threshold_queries(), threshold=0.0, epsilon=epsilon_svt, rng=rng
    )
    tau = (found + 1) if found is not None else ell

    # Step 2: answer at the learned threshold.
    accountant.spend(epsilon_answer, "answer")
    truncated = oracle.truncated_count(tau)
    answer = laplace_mechanism(truncated, tau, epsilon_answer, rng)
    if clamp_nonnegative and answer < 0:
        answer = 0.0

    true_count = declassified(oracle.base_count, reason="debug field for experiments")
    return TSensDPOutcome(
        answer=answer,
        tau=tau,
        global_sensitivity=tau,
        noisy_estimate=noisy_estimate,
        true_count=true_count,
        truncated_count=declassified(truncated, reason="debug field for experiments"),
        epsilon=epsilon,
        epsilon_threshold=epsilon_threshold,
        ledger=accountant.ledger(),
    )
