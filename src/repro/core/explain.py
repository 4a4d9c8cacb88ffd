"""Explain a TSens run: per-node intermediate sizes and cost structure.

Theorem 5.1's running time is governed by concrete intermediates — the
botjoin/topjoin group tables and each relation's multiplicity table.  This
module re-runs the two passes while recording, per node, the rows of its
bound atoms, botjoin/topjoin sizes and grouping attributes, and per
relation the multiplicity-table factor shapes.  Useful for:

* spotting *why* a query is slow (e.g. which botjoin or topjoin of q3's
  wide GHD nodes dominates);
* checking double-acyclicity in practice (all multiplicity tables stay
  factored);
* teaching — ``print(explain(...))`` walks the whole algorithm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.engine.database import Database
from repro.evaluation.joinstate import JoinState
from repro.query.classify import classify
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.ghd import auto_decompose
from repro.query.jointree import DecompositionTree
from repro.exceptions import QueryStructureError


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
    """Shape of one relation's multiplicity table."""

    relation: str
    factor_sizes: Tuple[int, ...]
    attributes: Tuple[str, ...]
    max_sensitivity: int
    dense_size_if_materialised: int


@dataclass
class Explanation:
    """Full cost breakdown of one TSens run."""

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
    db: Database,
    tree: Optional[DecompositionTree] = None,
    skip_relations: Tuple[str, ...] = (),
    state: Optional[JoinState] = None,
) -> Explanation:
    """Run TSens once, recording the cost profile (connected queries).

    ``state`` lets session callers profile their *maintained*
    :class:`JoinState` — sizes reflect the folded structures without
    recomputing botjoins/topjoins/tables the session already holds; the
    recorded ``seconds`` then measure only the (cheap) profiling walk.
    One-shot calls build a throwaway state, which is the historical
    full computation.
    """
    if not query.is_connected():
        raise QueryStructureError("explain() covers connected queries")
    start = time.perf_counter()
    if state is None:
        if tree is None:
            tree = auto_decompose(query)
        state = JoinState(query, tree, db)
    else:
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
    local = 1 if skip_relations else 0
    for relation in query.relation_names:
        if relation in skip_relations:
            continue
        table = state.multiplicity_table(relation)
        sizes = tuple(f.distinct_count() for f in table.factors)
        dense = 1
        for size in sizes:
            dense *= max(1, size)
        max_sens = table.max_sensitivity()
        local = max(local, max_sens)
        tables.append(
            TableProfile(
                relation=relation,
                factor_sizes=sizes,
                attributes=table.attributes,
                max_sensitivity=max_sens,
                dense_size_if_materialised=dense,
            )
        )
    elapsed = time.perf_counter() - start

    return Explanation(
        query_name=query.name,
        query_class=classify(query),
        tree_width=tree.width(),
        tree_max_degree=tree.max_degree(),
        local_sensitivity=local,
        nodes=nodes,
        tables=tables,
        seconds=elapsed,
    )
