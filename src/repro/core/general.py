"""TSens for general queries: disconnected hypergraphs and cyclic queries.

Two Sec. 5.4 extensions on top of :func:`repro.core.acyclic.tsens_connected`:

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
The one-shot :func:`repro.core.api.tsens` is a read of a throwaway
session.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.engine.database import Database
from repro.evaluation.joinstate import JoinState
from repro.query.conjunctive import ConjunctiveQuery
from repro.core.acyclic import select_overall_witness, tsens_connected
from repro.core.result import SensitiveTuple, SensitivityResult


def tsens_from_states(
    query: ConjunctiveQuery,
    db: Database,
    states: Sequence[JoinState],
    skip_relations: Iterable[str] = (),
) -> SensitivityResult:
    """TSens over prebuilt (usually *maintained*) per-component states.

    ``states`` holds one :class:`JoinState` per connected component of
    ``query``, in component order, each bound to ``db`` — exactly what
    :attr:`repro.evaluation.incremental.IncrementalEvaluator.component_states`
    provides.  Component counts come off the maintained root botjoins, so
    the cross-component multipliers cost nothing extra.
    """
    skip = set(skip_relations)
    if len(states) == 1:
        return tsens_connected(
            query, db, skip_relations=skip & set(query.relation_names),
            state=states[0],
        )
    sub_results: List[SensitivityResult] = []
    sub_counts: List[int] = []
    for state in states:
        sub = state.query
        sub_skip = skip & set(sub.relation_names)
        sub_results.append(
            tsens_connected(sub, db, skip_relations=sub_skip, state=state)
        )
        sub_counts.append(state.count)
    return _combine_component_results(query, sub_results, sub_counts)


def _combine_component_results(
    query: ConjunctiveQuery,
    sub_results: Sequence[SensitivityResult],
    sub_counts: Sequence[int],
) -> SensitivityResult:
    """Combine per-component results: sensitivities in component ``i``
    scale by ``∏_{j≠i} |Q_j(D)|`` (the cross-product argument)."""
    per_relation: Dict[str, SensitiveTuple] = {}
    tables = {}
    for index, result in enumerate(sub_results):
        multiplier = 1
        for j, count in enumerate(sub_counts):
            if j != index:
                multiplier *= count
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
