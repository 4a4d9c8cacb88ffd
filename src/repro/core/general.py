"""TSens for general queries: disconnected hypergraphs and cyclic queries.

Two Sec. 5.4 extensions on top of Algorithm 2's per-tree tables
(:func:`repro.core.acyclic.sensitivity_from_tables`):

* **Disconnected join trees** — the join of attribute-disjoint components is
  a cross product, so a tuple's sensitivity within one component multiplies
  by the output counts of all the others.  We run Algorithm 2 per component
  and scale each component's multiplicity tables by the product of the
  other components' counts.
* **General (cyclic) joins** — when no join tree exists, a generalized
  hypertree decomposition groups atoms into nodes (Fig. 5's hypertrees for
  q3, q△, q◦); :func:`repro.query.ghd.component_trees` plans one per
  cyclic component when the caller supplies no tree.

:func:`tsens_from_states` runs over the per-component
:class:`~repro.evaluation.joinstate.JoinState` objects of that plan —
the session layer's, folded under committed updates — so a sensitivity
read after an update reuses every botjoin, topjoin and table factor
instead of recomputing the pipeline, and recomputes only the witnesses.
It is the only TSens read; the one-shot :func:`repro.core.api.tsens` is a
read of a throwaway session.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence

from repro.engine.database import Database
from repro.evaluation.joinstate import JoinState
from repro.query.conjunctive import ConjunctiveQuery
from repro.core.acyclic import select_overall_witness, sensitivity_from_tables
from repro.core.result import SensitiveTuple, SensitivityResult


def tsens_from_states(
    query: ConjunctiveQuery,
    db: Database,
    states: Sequence[JoinState],
    skip_relations: Iterable[str] = (),
) -> SensitivityResult:
    """TSens over prebuilt (usually *maintained*) per-component states.

    ``states`` holds one :class:`JoinState` per component of the plan, in
    component order, each bound to ``db`` — exactly what
    :attr:`repro.evaluation.incremental.IncrementalEvaluator.component_states`
    provides.  Component counts come off the maintained root botjoins, so
    the cross-component multipliers cost nothing extra.
    """
    skip = set(skip_relations)
    results = [
        sensitivity_from_tables(
            state.query, db, state.query.relation_names,
            state.multiplicity_table, "tsens", skip,
        )
        for state in states
    ]
    if len(results) == 1:
        return results[0]
    # Sensitivities in component i scale by ∏_{j≠i} |Q_j(D)| (the
    # cross-product argument).
    counts = [state.count for state in states]
    per_relation: Dict[str, SensitiveTuple] = {}
    tables = {}
    for index, result in enumerate(results):
        multiplier = math.prod(counts[:index] + counts[index + 1:])
        for relation, table in result.tables.items():
            tables[relation] = table.scaled(multiplier)
        for relation, witness in result.per_relation.items():
            per_relation[relation] = SensitiveTuple(
                relation, witness.assignment, witness.sensitivity * multiplier
            )
    local, witness = select_overall_witness(per_relation)
    return SensitivityResult(
        query_name=query.name,
        method="tsens",
        local_sensitivity=local,
        witness=witness,
        per_relation=per_relation,
        tables=tables,
    )
