"""Yannakakis-style evaluation of (decomposed) conjunctive queries.

This module binds a structural decomposition tree to a concrete database —
each node keeps its assigned atoms, renamed and selection-filtered, and no
bag is materialised — and then evaluates the query:

* :func:`count_query` — ``|Q(D)|`` via a single bottom-up botjoin pass
  (near-linear for join trees, the paper's query-evaluation baseline in
  Fig. 7 / Table 1);
* :func:`evaluate_query` — the full join output, using semijoin reduction
  before joining so intermediate sizes stay bounded by input + output.

Both passes (:func:`compute_botjoins`, :func:`compute_topjoins`) compute
each level as one :func:`~repro.evaluation.joinstate.join_aggregate` over
the node's atoms and its neighbours' levels, so a GHD node's ``n^p`` factor
(Theorem 5.1) is paid inside those early-aggregating joins rather than by a
stored bag.  They are shared with the sensitivity algorithms in
:mod:`repro.core.acyclic` and, with a per-level clamp, the top-k
approximation in :mod:`repro.core.topk`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.engine.operators import join, join_all, semijoin
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.ghd import component_trees
from repro.query.jointree import DecompositionTree
from repro.exceptions import InternalError, MultiplicityOverflowError


@dataclass
class BoundTree:
    """A decomposition tree bound to a database through its atoms.

    Nothing is joined at binding time: a node is the list of its bound
    atoms (:meth:`atoms`), and every pass joins those inside its own
    early-aggregating joins.

    Attributes
    ----------
    tree:
        The structural decomposition.
    atom_relations:
        ``relation name -> Relation``: each atom with the query's
        selection applied and columns renamed to query variables.
    query:
        The query this binding was made for.
    """

    tree: DecompositionTree
    atom_relations: Dict[str, Relation]
    query: ConjunctiveQuery

    def atoms(self, node_id: str) -> List[Relation]:
        """The bound atoms of one node, in the node's relation order."""
        return [self.atom_relations[rel] for rel in self.tree.node(node_id).relations]

    def atom_relation(self, relation: str) -> Relation:
        return self.atom_relations[relation]

    @property
    def node_relations(self) -> Dict[str, Relation]:
        """What :func:`bind` materialises: the atoms.  Read only by the
        layered benchmark's bind span (``perfbench/spans.py::_bound_rows``);
        delete it once that span is recorded from inside the program."""
        return self.atom_relations


def bind(
    query: ConjunctiveQuery, tree: DecompositionTree, db: Database
) -> BoundTree:
    """Bind every atom of ``query`` over ``db``; performs no join.

    Each atom is renamed to its query variables and filtered by its
    selection.  A GHD node's bag is never built here: the passes join its
    atoms, and that is where the paper's ``n^p`` per-node factor is paid.
    """
    query.validate_against(db)
    atom_relations: Dict[str, Relation] = {
        rel: query.bound_relation(db, rel) for rel in query.relation_names
    }
    return BoundTree(tree=tree, atom_relations=atom_relations, query=query)


def bound_delta(
    query: ConjunctiveQuery,
    relation: str,
    rows: Mapping[Tuple[object, ...], int],
    relation_cls,
) -> Relation:
    """A signed delta relation bound to ``relation``'s atom.

    Mirrors :meth:`ConjunctiveQuery.bound_relation` for a small update
    batch: columns are renamed positionally to the atom's variables and
    the query's selection (if any) filters rows *before* they enter the
    maintained join state — filtered rows still reach the database, they
    just contribute nothing to any derived level.
    """
    atom = query.atom(relation)
    predicate = query.selections.get(relation)
    if predicate is not None:
        rows = {
            row: cnt
            for row, cnt in rows.items()
            if predicate(dict(zip(atom.variables, row)))
        }
    return relation_cls(list(atom.variables), dict(rows))


def _pass_level(
    label: str,
    parts: List[Relation],
    keep: List[str],
    clamp: Optional[Callable[[Relation], Relation]],
) -> Relation:
    """One botjoin/topjoin level: ``join_aggregate(parts, keep)``, clamped.

    A columnar overflow is restated with the pass and node (``label``).
    """
    # joinstate imports this module, so its primitive is imported here.
    from repro.evaluation.joinstate import join_aggregate

    try:
        level = join_aggregate(parts, keep)
    except MultiplicityOverflowError as error:
        raise MultiplicityOverflowError(f"{label}: {error}") from error
    return level if clamp is None else clamp(level)


def compute_botjoins(
    bound: BoundTree, clamp: Optional[Callable[[Relation], Relation]] = None
) -> Dict[str, Relation]:
    """Botjoins ``K(v)`` for every node, in post-order (paper Eqn. 5/7).

    ``K(v) = γ_{A_v ∩ A_p(v)} r̃join(atoms(v), {K(c) | c ∈ children(v)})``.
    For the root the grouping attribute set is empty, so ``K(root)`` is a
    zero-arity relation whose single count is ``|Q(D)|``.  ``clamp``, if
    given, rewrites every level before its parent reads it (the top-k
    approximation).
    """
    tree = bound.tree
    botjoins: Dict[str, Relation] = {}
    for node_id in tree.post_order():
        parts = bound.atoms(node_id)
        parts += [botjoins[child] for child in tree.children(node_id)]
        botjoins[node_id] = _pass_level(
            f"botjoin K({node_id!r})",
            parts,
            sorted(tree.shared_with_parent(node_id)),
            clamp,
        )
    return botjoins


def compute_topjoins(
    bound: BoundTree,
    botjoins: Dict[str, Relation],
    clamp: Optional[Callable[[Relation], Relation]] = None,
) -> Dict[str, Optional[Relation]]:
    """Topjoins ``J(v)`` for every node, in pre-order (paper Eqn. 8).

    ``J(root)`` is ``None`` (the complement of the whole tree is empty).
    For a node whose parent is the root the topjoin omits ``J(parent)``;
    otherwise ``J(v) = γ_{A_v ∩ A_p} r̃join(atoms(p), J(p), {K(s) | s ∈ N(v)})``.
    ``clamp`` is applied to every level as in :func:`compute_botjoins`.
    """
    tree = bound.tree
    topjoins: Dict[str, Optional[Relation]] = {tree.root: None}
    for node_id in tree.pre_order():
        if node_id == tree.root:
            continue
        parent = tree.parent(node_id)
        if parent is None:
            raise InternalError(f"non-root node {node_id} has no parent")
        parts = bound.atoms(parent)
        parent_top = topjoins[parent]
        if parent_top is not None:
            parts.append(parent_top)
        parts += [botjoins[sibling] for sibling in tree.neighbours(node_id)]
        topjoins[node_id] = _pass_level(
            f"topjoin J({node_id!r})",
            parts,
            sorted(tree.shared_with_parent(node_id)),
            clamp,
        )
    return topjoins


def count_bound(bound: BoundTree) -> int:
    """``|Q(D)|`` from a bound tree via one botjoin pass."""
    botjoins = compute_botjoins(bound)
    return botjoins[bound.tree.root].total_count()


def semijoin_reduce(bound: BoundTree) -> Dict[str, Relation]:
    """Full (two-pass) semijoin reduction of the node bags.

    Each node's bag is joined from its atoms here, for this evaluation
    only.  After the bottom-up and top-down passes, every remaining tuple
    participates in at least one join result, so the final join phase never
    grows beyond the output size.  Returns the reduced node bags.
    """
    tree = bound.tree
    reduced = {node_id: join_all(bound.atoms(node_id)) for node_id in tree.node_ids}
    for node_id in tree.post_order():
        for child in tree.children(node_id):
            reduced[node_id] = semijoin(reduced[node_id], reduced[child])
    for node_id in tree.pre_order():
        parent = tree.parent(node_id)
        if parent is not None:
            reduced[node_id] = semijoin(reduced[node_id], reduced[parent])
    return reduced


def evaluate_bound(bound: BoundTree) -> Relation:
    """The full bag join output of a bound tree."""
    reduced = semijoin_reduce(bound)
    result: Optional[Relation] = None
    for node_id in bound.tree.pre_order():
        rel = reduced[node_id]
        result = rel if result is None else join(result, rel)
    if result is None:
        raise InternalError("bound query has no nodes to evaluate")
    return result


def count_query(
    query: ConjunctiveQuery, db: Database, tree: Optional[DecompositionTree] = None
) -> int:
    """``|Q(D)|`` under bag semantics.

    Disconnected queries multiply their components' counts (the join of
    attribute-disjoint components is a cross product).
    """
    total = 1
    for sub, sub_tree in component_trees(query, tree):
        total *= count_bound(bind(sub, sub_tree, db))
        if total == 0:
            return 0
    return total


def evaluate_query(
    query: ConjunctiveQuery, db: Database, tree: Optional[DecompositionTree] = None
) -> Relation:
    """The full join output ``Q(D)`` as a bag relation."""
    result: Optional[Relation] = None
    for sub, sub_tree in component_trees(query, tree):
        part = evaluate_bound(bind(sub, sub_tree, db))
        result = part if result is None else join(result, part)
    if result is None:
        raise InternalError("query has no connected components to evaluate")
    return result


def naive_join(query: ConjunctiveQuery, db: Database) -> Relation:
    """Left-deep join in body order — the brute-force oracle for tests."""
    parts = [query.bound_relation(db, rel) for rel in query.relation_names]
    return join_all(parts)
