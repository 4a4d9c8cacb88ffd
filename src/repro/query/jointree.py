"""Decomposition trees: join trees and generalized hypertree decompositions.

A :class:`DecompositionTree` is a rooted tree whose nodes each cover one or
more query atoms.  Two uses:

* **Join tree** (Sec. 2.2): every node covers exactly one atom; produced by
  GYO decomposition of an acyclic query (:func:`repro.query.gyo.gyo_join_tree`).
* **Generalized hypertree decomposition** (Sec. 5.4 "General joins"): nodes
  may cover several atoms; each atom is assigned to exactly one node and the
  node's attribute set is the union of its atoms' variables.  Algorithm 2
  then runs over the node tree with each node standing for the bag join of
  its atoms (the passes join the atoms; no bag is stored).

The class enforces the *running intersection property* — for every variable,
the nodes whose attribute sets contain it form a connected subtree — which
is exactly the property Theorems 4.1/5.1 rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.query.conjunctive import ConjunctiveQuery
from repro.exceptions import DecompositionError


@dataclass(frozen=True)
class TreeNode:
    """One node of a decomposition tree.

    Attributes
    ----------
    node_id:
        Unique identifier within the tree.
    relations:
        The atoms (by relation name) assigned to this node.  Singleton
        for plain join trees.
    attributes:
        Variables covered by the node: the union of its atoms' variables.
    """

    node_id: str
    relations: Tuple[str, ...]
    attributes: FrozenSet[str]


class DecompositionTree:
    """A rooted decomposition tree with the running-intersection property.

    Parameters
    ----------
    nodes:
        The tree nodes.  ``node_id`` values must be unique.
    root:
        ``node_id`` of the root.
    parent:
        Mapping from non-root ``node_id`` to its parent's ``node_id``.
    """

    def __init__(
        self,
        nodes: Iterable[TreeNode],
        root: str,
        parent: Mapping[str, str],
    ):
        self._nodes: Dict[str, TreeNode] = {}
        for node in nodes:
            if node.node_id in self._nodes:
                raise DecompositionError(f"duplicate node id {node.node_id!r}")
            self._nodes[node.node_id] = node
        if root not in self._nodes:
            raise DecompositionError(f"root {root!r} is not a node")
        self._root = root
        self._parent: Dict[str, str] = dict(parent)
        self._children: Dict[str, List[str]] = {nid: [] for nid in self._nodes}
        for child, par in self._parent.items():
            if child not in self._nodes or par not in self._nodes:
                raise DecompositionError(f"parent edge {child!r}->{par!r} uses unknown node")
            self._children[par].append(child)
        self._validate_tree_shape()
        self._validate_relation_assignment()
        self._validate_running_intersection()

    # ------------------------------------------------------------ validation
    def _validate_tree_shape(self) -> None:
        if self._root in self._parent:
            raise DecompositionError("root must not have a parent")
        non_root = set(self._nodes) - {self._root}
        if set(self._parent) != non_root:
            missing = non_root - set(self._parent)
            raise DecompositionError(f"nodes without a parent edge: {sorted(missing)}")
        # Reachability check also rejects cycles: every node must be reached
        # exactly once walking down from the root.
        seen = set()
        stack = [self._root]
        while stack:
            nid = stack.pop()
            if nid in seen:
                raise DecompositionError("parent edges contain a cycle")
            seen.add(nid)
            stack.extend(self._children[nid])
        if seen != set(self._nodes):
            raise DecompositionError("tree is disconnected")

    def _validate_relation_assignment(self) -> None:
        assigned: Dict[str, str] = {}
        for node in self._nodes.values():
            for rel in node.relations:
                if rel in assigned:
                    raise DecompositionError(
                        f"relation {rel!r} assigned to both {assigned[rel]!r} "
                        f"and {node.node_id!r}"
                    )
                assigned[rel] = node.node_id

    def _validate_running_intersection(self) -> None:
        variables = set()
        for node in self._nodes.values():
            variables |= node.attributes
        for var in variables:
            holders = {nid for nid, n in self._nodes.items() if var in n.attributes}
            # The subgraph induced by `holders` must be connected.  Walk the
            # tree from any holder, moving only through holder nodes.
            start = next(iter(holders))
            seen = {start}
            stack = [start]
            while stack:
                nid = stack.pop()
                neighbours = list(self._children[nid])
                if nid in self._parent:
                    neighbours.append(self._parent[nid])
                for other in neighbours:
                    if other in holders and other not in seen:
                        seen.add(other)
                        stack.append(other)
            if seen != holders:
                raise DecompositionError(
                    f"running intersection violated for variable {var!r}: "
                    f"nodes {sorted(holders)} are not connected"
                )

    # -------------------------------------------------------------- accessors
    @property
    def root(self) -> str:
        return self._root

    @property
    def node_ids(self) -> Tuple[str, ...]:
        return tuple(self._nodes)

    def node(self, node_id: str) -> TreeNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise DecompositionError(f"unknown node {node_id!r}") from None

    def parent(self, node_id: str) -> Optional[str]:
        """Parent id, or ``None`` for the root."""
        return self._parent.get(node_id)

    def children(self, node_id: str) -> Tuple[str, ...]:
        return tuple(self._children[node_id])

    def neighbours(self, node_id: str) -> Tuple[str, ...]:
        """Siblings of ``node_id`` — the paper's ``N(R_j)``."""
        par = self.parent(node_id)
        if par is None:
            return ()
        return tuple(c for c in self._children[par] if c != node_id)

    def is_leaf(self, node_id: str) -> bool:
        return not self._children[node_id]

    def node_of_relation(self, relation: str) -> str:
        """The node id to which ``relation`` is assigned."""
        for node in self._nodes.values():
            if relation in node.relations:
                return node.node_id
        raise DecompositionError(f"relation {relation!r} not assigned to any node")

    @property
    def relations(self) -> Tuple[str, ...]:
        out: List[str] = []
        for node in self._nodes.values():
            out.extend(node.relations)
        return tuple(out)

    def shared_with_parent(self, node_id: str) -> FrozenSet[str]:
        """``A_i ∩ A_p(i)`` — the botjoin/topjoin grouping attributes."""
        par = self.parent(node_id)
        if par is None:
            return frozenset()
        return self.node(node_id).attributes & self.node(par).attributes

    # ------------------------------------------------------------- traversal
    def post_order(self) -> List[str]:
        """Children before parents (botjoin order)."""
        order: List[str] = []

        def visit(nid: str) -> None:
            for child in self._children[nid]:
                visit(child)
            order.append(nid)

        visit(self._root)
        return order

    def pre_order(self) -> List[str]:
        """Parents before children (topjoin order)."""
        order: List[str] = []
        stack = [self._root]
        while stack:
            nid = stack.pop()
            order.append(nid)
            stack.extend(reversed(self._children[nid]))
        return order

    # ------------------------------------------------------------ statistics
    def max_degree(self) -> int:
        """The paper's ``d``: max over nodes of (#children + 1 for the parent
        edge of non-root nodes).  Drives the ``O(m d n^d log n)`` bound of
        Theorem 5.1."""
        best = 0
        for nid in self._nodes:
            degree = len(self._children[nid]) + (0 if nid == self._root else 1)
            best = max(best, degree)
        return best

    def width(self) -> int:
        """Max number of relations per node (1 for plain join trees; the
        paper's ``p`` for generalized hypertree decompositions)."""
        return max(len(node.relations) for node in self._nodes.values())

    def rerooted(self, new_root: str) -> "DecompositionTree":
        """The same tree re-rooted at ``new_root`` (edges reoriented)."""
        self.node(new_root)
        if new_root == self._root:
            return self
        parent: Dict[str, str] = {}
        seen = {new_root}
        stack = [new_root]
        while stack:
            nid = stack.pop()
            neighbours = list(self._children[nid])
            if nid in self._parent:
                neighbours.append(self._parent[nid])
            for other in neighbours:
                if other not in seen:
                    seen.add(other)
                    parent[other] = nid
                    stack.append(other)
        return DecompositionTree(self._nodes.values(), new_root, parent)

    def covers_query(self, query: ConjunctiveQuery) -> bool:
        """True iff every atom of ``query`` is assigned to exactly one node
        and each node's attributes equal the union of its atoms' variables."""
        assigned = set(self.relations)
        if assigned != set(query.relation_names):
            return False
        for node in self._nodes.values():
            union: FrozenSet[str] = frozenset()
            for rel in node.relations:
                union = union | query.atom(rel).variable_set
            if union != node.attributes:
                return False
        return True

    def __repr__(self) -> str:
        lines: List[str] = []

        def visit(nid: str, depth: int) -> None:
            node = self._nodes[nid]
            rels = ",".join(node.relations)
            lines.append("  " * depth + f"{nid}[{rels}]({','.join(sorted(node.attributes))})")
            for child in self._children[nid]:
                visit(child, depth + 1)

        visit(self._root, 0)
        return "DecompositionTree:\n" + "\n".join(lines)


def join_tree_from_parents(
    query: ConjunctiveQuery, root: str, parent: Mapping[str, str]
) -> DecompositionTree:
    """Build a single-relation-per-node join tree from explicit parent edges.

    ``root`` and the keys/values of ``parent`` are relation names; node ids
    equal relation names.  Validation (running intersection) happens in the
    :class:`DecompositionTree` constructor.
    """
    nodes = [
        TreeNode(atom.relation, (atom.relation,), atom.variable_set)
        for atom in query.atoms
    ]
    return DecompositionTree(nodes, root, parent)
