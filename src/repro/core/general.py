"""TSens for general queries: disconnected hypergraphs and cyclic queries.

Two Sec. 5.4 extensions on top of :func:`repro.core.acyclic.tsens_connected`:

* **Disconnected join trees** — the join of attribute-disjoint components is
  a cross product, so a tuple's sensitivity within one component multiplies
  by the output counts of all the others.  We run Algorithm 2 per component
  and scale each component's multiplicity tables by the product of the
  other components' counts.
* **General (cyclic) joins** — when no join tree exists, a generalized
  hypertree decomposition groups atoms into nodes (Fig. 5's hypertrees for
  q3, q△, q◦); :func:`repro.query.ghd.auto_decompose` finds one
  automatically when none is supplied.

Both paths run over per-component
:class:`~repro.evaluation.joinstate.JoinState` objects.
:func:`tsens` builds throwaway states (the historical one-shot
behaviour); :func:`tsens_from_states` accepts *maintained* states — the
session layer's, folded under committed updates — so a sensitivity read
after an update reuses every botjoin, topjoin and table factor instead
of recomputing the pipeline, and recomputes only the witnesses.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.engine.database import Database
from repro.evaluation.joinstate import JoinState
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.ghd import auto_decompose
from repro.query.jointree import DecompositionTree
from repro.core.acyclic import select_overall_witness, tsens_connected
from repro.core.result import SensitiveTuple, SensitivityResult


def tsens(
    query: ConjunctiveQuery,
    db: Database,
    tree: Optional[DecompositionTree] = None,
    skip_relations: Iterable[str] = (),
    component_trees: Optional[Mapping[str, DecompositionTree]] = None,
    max_width: int = 3,
) -> SensitivityResult:
    """TSens for any full CQ without self-joins.

    Parameters
    ----------
    query, db:
        The query and instance.
    tree:
        Decomposition for a *connected* query.  Ignored when the query is
        disconnected (use ``component_trees`` instead).
    skip_relations:
        Relations certified to have tuple sensitivity ≤ 1 (superkey
        argument); their tables are not computed.
    component_trees:
        For disconnected queries: optional mapping from a component's first
        relation name to the decomposition to use for that component.
    max_width:
        Node-size cap handed to the automatic GHD search for cyclic
        components without an explicit decomposition.
    """
    query.validate_against(db)
    components = query.connected_components()
    if len(components) == 1:
        if tree is None:
            tree = auto_decompose(query, max_width=max_width)
        return tsens_connected(query, db, tree=tree, skip_relations=skip_relations)

    states: List[JoinState] = []
    for index, component in enumerate(components):
        sub = query.subquery(component, name=f"{query.name}#c{index}")
        key = component[0].relation
        sub_tree = None
        if component_trees and key in component_trees:
            sub_tree = component_trees[key]
        if sub_tree is None:
            sub_tree = auto_decompose(sub, max_width=max_width)
        states.append(JoinState(sub, sub_tree, db))
    return tsens_from_states(query, db, states, skip_relations=skip_relations)


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
