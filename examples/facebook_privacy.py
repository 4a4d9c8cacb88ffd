#!/usr/bin/env python
"""Differentially private graph-pattern counting on an ego-network.

Reproduces the paper's Facebook scenario end to end through the session
API: build the circle edge tables, prepare each triangle / path / cycle /
star counting query once, then answer it under ε-differential privacy
with TSensDP and the PrivSQL-style baseline via the unified
``session.release(...)`` facade.  R2 is the primary private relation, as
in Sec. 7.3; a :class:`~repro.dp.accountant.BudgetAccountant` tracks the
combined spend of both releases per query.

Run with::

    python examples/facebook_privacy.py [epsilon]
"""

import sys

import numpy as np

from repro import prepare
from repro.datasets import generate_ego_network, graph_statistics
from repro.dp import BudgetAccountant
from repro.experiments.table2 import loose_bound
from repro.workloads import facebook_workloads


def main() -> None:
    epsilon = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    db = generate_ego_network(seed=0)
    print(f"ego-network tables: {graph_statistics(db)}")
    print(f"privacy budget ε = {epsilon} per release "
          f"(half for threshold learning)\n")
    rng = np.random.default_rng(2026)

    for workload in facebook_workloads():
        assert workload.primary is not None
        # One prepare per query; the TSensDP release reuses its truncation
        # oracle (one probe of the primary plus one count).  Only the
        # local-sensitivity line printed below builds tables, on the
        # oracle's fork.
        session = prepare(workload.query, db, tree=workload.tree)
        oracle = session.truncation_oracle(workload.primary)
        ell = loose_bound(oracle.max_primary_sensitivity, floor=workload.ell)
        accountant = BudgetAccountant(2 * epsilon)
        tsens_out = session.release(
            epsilon,
            mechanism="tsensdp",
            primary=workload.primary,
            ell=ell,
            accountant=accountant,
            rng=rng,
        )
        privsql_out = session.release(
            epsilon,
            mechanism="privsql",
            primary=workload.primary,
            accountant=accountant,
            rng=rng,
        )
        print(f"=== {workload.name}: {workload.description}")
        print(f"  true count          : {tsens_out.true_count:,}")
        print(f"  local sensitivity   : {oracle.local_sensitivity:,}")
        print(
            f"  TSensDP             : answer={tsens_out.answer:,.0f}"
            f"  τ={tsens_out.tau}  GS={tsens_out.global_sensitivity}"
            f"  rel.err={tsens_out.relative_error:.2%}"
        )
        print(
            f"  PrivSQL             : answer={privsql_out.answer:,.0f}"
            f"  GS={privsql_out.global_sensitivity:,}"
            f"  rel.err={privsql_out.relative_error:.2%}"
        )
        print(
            f"  budget ledger       : {accountant.ledger()} "
            f"(remaining {accountant.remaining:.3g})"
        )
        print()


if __name__ == "__main__":
    main()
