"""Explain a TSens read: per-node intermediate sizes and cost structure.

Theorem 5.1's running time is governed by concrete intermediates — the
botjoin/topjoin group tables and each relation's multiplicity table.  This
module profiles the session's maintained
:class:`~repro.evaluation.joinstate.JoinState` next to the TSens read taken
from it, recording per node the rows of its bound atoms, botjoin/topjoin
sizes and grouping attributes, and per relation the multiplicity-table
factor shapes and the read's sensitivity (selections included).  Useful
for:

* spotting *why* a query is slow (e.g. which botjoin or topjoin of q3's
  wide GHD nodes dominates);
* checking double-acyclicity in practice (all multiplicity tables stay
  factored);
* teaching — ``print(prepare(q, db).explain())`` walks the whole
  algorithm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.evaluation.joinstate import JoinState
from repro.query.classify import classify
from repro.query.conjunctive import ConjunctiveQuery
from repro.core.result import SensitivityResult


@dataclass
class NodeProfile:
    """Size accounting for one decomposition-tree node.

    ``materialised_rows`` is what the state stores for the node itself: the
    summed distinct rows of its bound atoms.  No bag of a GHD node is
    built; the passes join its atoms inside their own joins.
    """

    node_id: str
    relations: Tuple[str, ...]
    materialised_rows: int
    botjoin_rows: int
    botjoin_attributes: Tuple[str, ...]
    topjoin_rows: Optional[int]            # None at the root
    children: Tuple[str, ...]


@dataclass
class TableProfile:
    """Shape of one relation's multiplicity table, and the sensitivity of
    the relation's most sensitive tuple in the read (its selection
    honoured)."""

    relation: str
    factor_sizes: Tuple[int, ...]
    attributes: Tuple[str, ...]
    max_sensitivity: int
    dense_size_if_materialised: int


@dataclass
class Explanation:
    """Full cost breakdown of one TSens read."""

    query_name: str
    query_class: str
    tree_width: int
    tree_max_degree: int
    local_sensitivity: int
    nodes: List[NodeProfile] = field(default_factory=list)
    tables: List[TableProfile] = field(default_factory=list)
    seconds: float = 0.0

    def largest_intermediate(self) -> int:
        """The biggest distinct-row count among the profiled structures.

        Those are each node's summed atoms, botjoins, topjoins and final
        table factors.  The transient joins inside a pass level or a table
        build (its :func:`~repro.evaluation.joinstate.join_aggregate`
        stages) are not profiled, so this is not a bound on peak memory."""
        sizes = [n.materialised_rows for n in self.nodes]
        sizes += [n.botjoin_rows for n in self.nodes]
        sizes += [n.topjoin_rows for n in self.nodes if n.topjoin_rows is not None]
        sizes += [max(t.factor_sizes) for t in self.tables if t.factor_sizes]
        return max(sizes, default=0)

    def __str__(self) -> str:
        lines = [
            f"TSens explanation for {self.query_name} "
            f"({self.query_class}, width={self.tree_width}, "
            f"d={self.tree_max_degree}) — LS={self.local_sensitivity}, "
            f"{self.seconds:.3f}s",
            "nodes:",
        ]
        for node in self.nodes:
            top = "-" if node.topjoin_rows is None else f"{node.topjoin_rows:,}"
            lines.append(
                f"  {node.node_id} [{','.join(node.relations)}]: "
                f"materialised={node.materialised_rows:,} "
                f"botjoin={node.botjoin_rows:,} on "
                f"({','.join(node.botjoin_attributes) or 'ε'}) topjoin={top}"
            )
        lines.append("multiplicity tables:")
        for table in self.tables:
            shape = " × ".join(f"{s:,}" for s in table.factor_sizes) or "1"
            lines.append(
                f"  {table.relation}: factors {shape} "
                f"(dense would be {table.dense_size_if_materialised:,}) "
                f"max δ = {table.max_sensitivity:,}"
            )
        return "\n".join(lines)


def explain(
    query: ConjunctiveQuery,
    state: JoinState,
    result: SensitivityResult,
) -> Explanation:
    """The cost profile of ``state`` and of the TSens read ``result`` taken
    from it.

    ``state`` is the session's maintained :class:`JoinState` of a
    one-component plan (:meth:`repro.session.PreparedQuery.explain`
    rejects a plan with more than one component); sizes reflect the folded
    structures without recomputing anything the session already holds.
    The profile's local sensitivity and each table's maximum are
    ``result``'s (a TSens or, on a path query, an Algorithm 1 read: the
    same tables), so selections and skipped relations count exactly as in
    the read; tables are listed in body order.  ``seconds`` measures the
    profiling walk.
    """
    start = time.perf_counter()
    tree = state.tree
    bound = state.bound
    botjoins = state.botjoins
    topjoins = state.topjoins()

    nodes = []
    for node_id in tree.pre_order():
        top = topjoins[node_id]
        nodes.append(
            NodeProfile(
                node_id=node_id,
                relations=tree.node(node_id).relations,
                materialised_rows=sum(
                    atom.distinct_count() for atom in bound.atoms(node_id)
                ),
                botjoin_rows=botjoins[node_id].distinct_count(),
                botjoin_attributes=tuple(sorted(tree.shared_with_parent(node_id))),
                topjoin_rows=None if top is None else top.distinct_count(),
                children=tree.children(node_id),
            )
        )

    tables = []
    for relation in query.relation_names:  # body order, whatever read made them
        table = result.tables.get(relation)
        if table is None:
            continue
        sizes = tuple(f.distinct_count() for f in table.factors)
        dense = 1
        for size in sizes:
            dense *= max(1, size)
        tables.append(
            TableProfile(
                relation=relation,
                factor_sizes=sizes,
                attributes=table.attributes,
                max_sensitivity=result.per_relation[relation].sensitivity,
                dense_size_if_materialised=dense,
            )
        )
    elapsed = time.perf_counter() - start

    return Explanation(
        query_name=query.name,
        query_class=classify(query),
        tree_width=tree.width(),
        tree_max_degree=tree.max_degree(),
        local_sensitivity=result.local_sensitivity,
        nodes=nodes,
        tables=tables,
        seconds=elapsed,
    )
