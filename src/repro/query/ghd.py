"""Generalized hypertree decompositions (Sec. 5.4 "General joins").

For a cyclic query, Algorithm 2 still applies if the atoms can be grouped
into *nodes* — each node standing for the bag join of its atoms — such
that the node tree is a valid join tree (running intersection over node
attribute sets).  The paper parameterises the resulting complexity by the
max node size ``p``: ``O(m^p d n^{p d} log n)``.

Two entry points:

* :func:`ghd_from_groups` — build a decomposition from an explicit grouping
  plus tree shape.  This is how the paper's Fig. 5 decompositions for q3,
  q△ and q◦ are specified (:mod:`repro.workloads`).
* :func:`auto_decompose` — GYO tree when the query is already acyclic,
  otherwise a bounded search that merges small groups of atoms until the
  contracted hypergraph becomes acyclic.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.query.conjunctive import ConjunctiveQuery
from repro.query.gyo import gyo_join_tree, gyo_reduce
from repro.query.hypergraph import Hypergraph
from repro.query.jointree import DecompositionTree, TreeNode
from repro.exceptions import DecompositionError


def _group_attributes(query: ConjunctiveQuery, group: Sequence[str]) -> FrozenSet[str]:
    attrs: FrozenSet[str] = frozenset()
    for rel in group:
        attrs = attrs | query.atom(rel).variable_set
    return attrs


def ghd_from_groups(
    query: ConjunctiveQuery,
    groups: Mapping[str, Sequence[str]],
    root: str,
    parent: Mapping[str, str],
) -> DecompositionTree:
    """Build a decomposition from explicit node groups and tree edges.

    Parameters
    ----------
    query:
        The query being decomposed.
    groups:
        Mapping from node id to the relations assigned to that node.  Every
        query relation must appear in exactly one group.
    root:
        Node id of the tree root.
    parent:
        Mapping from non-root node id to parent node id.

    Validity (running intersection, complete assignment) is checked by the
    :class:`~repro.query.jointree.DecompositionTree` constructor; an extra
    check here confirms the grouping covers the query exactly.
    """
    assigned: List[str] = []
    for rels in groups.values():
        assigned.extend(rels)
    if sorted(assigned) != sorted(query.relation_names):
        raise DecompositionError(
            f"groups cover {sorted(assigned)} but query has "
            f"{sorted(query.relation_names)}"
        )
    nodes = [
        TreeNode(node_id, tuple(rels), _group_attributes(query, rels))
        for node_id, rels in groups.items()
    ]
    return DecompositionTree(nodes, root, parent)


def _contracted_tree(
    query: ConjunctiveQuery, groups: Sequence[Tuple[str, ...]]
) -> Optional[DecompositionTree]:
    """Try to arrange ``groups`` into a join tree via GYO on the contracted
    hypergraph (one super-edge per group).  Returns ``None`` when the
    contraction is still cyclic."""
    names = [f"g{i}" for i in range(len(groups))]
    edges = {
        name: _group_attributes(query, group) for name, group in zip(names, groups)
    }
    hg = Hypergraph(edges)
    acyclic, eliminations = gyo_reduce(hg)
    if not acyclic:
        return None
    parent: Dict[str, str] = {}
    root = eliminations[-1][0]
    for ear, witness in eliminations[:-1]:
        if witness is None:
            return None  # disconnected contraction; caller handles components
        parent[ear] = witness
    nodes = [
        TreeNode(name, tuple(group), edges[name]) for name, group in zip(names, groups)
    ]
    try:
        return DecompositionTree(nodes, root, parent)
    except DecompositionError:
        return None


def auto_decompose(
    query: ConjunctiveQuery, max_width: int = 3
) -> DecompositionTree:
    """Find a decomposition with node size ≤ ``max_width``.

    Acyclic queries get their GYO join tree (width 1).  For cyclic queries
    we search over partitions of the atoms with increasing node size,
    preferring fewer merged nodes.  The search is exhaustive over merges of
    at most two groups, which covers the paper's workloads (q3, q△, q◦ all
    need a single width-2 or width-3 node pair); wider queries should pass
    an explicit decomposition via :func:`ghd_from_groups`.
    """
    if not query.is_connected():
        raise DecompositionError(
            "auto_decompose needs a connected query; split into components first"
        )
    rels = list(query.relation_names)
    try:
        return gyo_join_tree(query)
    except Exception:
        pass
    if max_width < 2:
        raise DecompositionError(
            f"query {query.name} is cyclic and max_width={max_width} forbids merging"
        )
    # One merged group of size w (2..max_width), everything else singleton.
    for width in range(2, max_width + 1):
        for merged in combinations(rels, width):
            groups: List[Tuple[str, ...]] = [tuple(merged)]
            groups.extend((r,) for r in rels if r not in merged)
            tree = _contracted_tree(query, groups)
            if tree is not None:
                return tree
    # Two merged groups (disjoint), e.g. the paper's q◦ = {R1R2},{R3R4}.
    for width_a in range(2, max_width + 1):
        for group_a in combinations(rels, width_a):
            rest = [r for r in rels if r not in group_a]
            for width_b in range(2, max_width + 1):
                for group_b in combinations(rest, width_b):
                    groups = [tuple(group_a), tuple(group_b)]
                    groups.extend((r,) for r in rest if r not in group_b)
                    tree = _contracted_tree(query, groups)
                    if tree is not None:
                        return tree
    raise DecompositionError(
        f"no decomposition of width ≤ {max_width} found for {query.name}; "
        "supply one explicitly with ghd_from_groups()"
    )
