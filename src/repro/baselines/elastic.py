"""Elastic sensitivity — the Flex baseline (Johnson, Near, Song 2017/2018).

Elastic sensitivity is a *static* upper bound on the local sensitivity of a
counting query with joins, computed from per-relation maximum frequencies
(``mf``) without evaluating the join.  We implement the distance-0 case
(which upper-bounds the local sensitivity at the given instance), following
the recursive rules of the Flex paper, plus the two extensions the TSens
paper applies in its experiments (Sec. 7.2):

* **cross products**: a join with no shared attributes uses the expression
  *size bound* as the max frequency of the (empty) join key;
* **join plan as input**: the analysis walks a caller-supplied binary join
  plan (post-order), so TSens and Elastic see the same join order.

Recursive state per expression ``E`` and protected relation ``r``:

* ``S(E; r)`` — elastic sensitivity: ``1`` if ``E`` is the base relation
  ``r``, ``0`` for other base relations, and for ``E = E1 ⋈_a E2``::

      S = max(mf(a, E1) * S(E2), mf(a, E2) * S(E1), S(E1) * S(E2))

* ``mf(x, E)`` — max frequency of attribute ``x``: computed from the data
  for base relations; for joins, ``mf(x, E1 ⋈_a E2) = mf(x, E1) * mf(a, E2)``
  when ``x`` comes from ``E1`` (symmetrically from ``E2``).
* ``size(E)`` — an upper bound on ``|E|`` used by the cross-product rule.

Faithful to Flex, selections do **not** change the analysis (max
frequencies come from the unfiltered relations) — this is one source of
looseness the TSens paper highlights.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.ghd import component_trees
from repro.query.jointree import DecompositionTree
from repro.exceptions import MechanismConfigError, UnknownRelationError

# A join plan is a relation name or a pair of sub-plans.
JoinPlan = Union[str, Tuple["JoinPlan", "JoinPlan"]]


@dataclass
class _Expression:
    """Static analysis state for one join-plan subtree."""

    attributes: Tuple[str, ...]
    size: int                      # upper bound on |E|
    max_freq: Dict[str, int]       # attribute -> mf upper bound
    sensitivity: Dict[str, int]    # protected relation -> S(E; r)


def plan_from_tree(tree: DecompositionTree) -> JoinPlan:
    """A left-deep join plan following the tree's post-order traversal.

    This is the "post-traversal of the join plan" order the TSens paper
    fixes for its Elastic runs, so both analyses join in the same order.
    """
    return _left_deep(
        name for node_id in tree.post_order() for name in tree.node(node_id).relations
    )


def default_plan(
    query: ConjunctiveQuery, tree: Optional[DecompositionTree] = None
) -> JoinPlan:
    """The plan the analysis walks when the caller gives none.

    :func:`plan_from_tree` over ``tree``; without one, over each connected
    component's default decomposition, the component plans chained
    left-deep.  The joins between components are cross products, which
    the cross-product rule (``mf(∅, E) = size(E)``) bounds.
    """
    return _left_deep(
        plan_from_tree(sub_tree) for _sub, sub_tree in component_trees(query, tree)
    )


def _left_deep(plans: Iterable[JoinPlan]) -> JoinPlan:
    return reduce(lambda left, right: (left, right), plans)


def _base_expression(
    query: ConjunctiveQuery, db: Database, relation: str
) -> _Expression:
    atom = query.atom(relation)
    base = db.relation(relation)
    # Rename columns to query variables but do NOT apply selections: Flex's
    # analysis is selection-oblivious by design.
    renamed = base.rename(dict(zip(base.schema.attributes, atom.variables)))
    max_freq = {
        var: renamed.max_frequency((var,)) for var in atom.variables
    }
    sensitivity = {name: 0 for name in query.relation_names}
    sensitivity[relation] = 1
    return _Expression(
        attributes=atom.variables,
        size=renamed.total_count(),
        max_freq=max_freq,
        sensitivity=sensitivity,
    )


def _join_expressions(left: _Expression, right: _Expression) -> _Expression:
    common = tuple(a for a in left.attributes if a in right.attributes)
    # mf of the (possibly empty) join key on each side; the cross-product
    # extension sets mf(∅, E) = size(E).
    left_key_mf = _key_frequency(left, common)
    right_key_mf = _key_frequency(right, common)

    sensitivity = {}
    for relation in left.sensitivity:
        s_left = left.sensitivity[relation]
        s_right = right.sensitivity[relation]
        sensitivity[relation] = max(
            left_key_mf * s_right,
            right_key_mf * s_left,
            s_left * s_right,
        )

    attributes = left.attributes + tuple(
        a for a in right.attributes if a not in set(left.attributes)
    )
    max_freq: Dict[str, int] = {}
    for attr in attributes:
        if attr in left.max_freq and attr in right.max_freq:
            max_freq[attr] = left.max_freq[attr] * right.max_freq[attr]
        elif attr in left.max_freq:
            max_freq[attr] = left.max_freq[attr] * right_key_mf
        else:
            max_freq[attr] = right.max_freq[attr] * left_key_mf
    size = min(left.size * right_key_mf, right.size * left_key_mf)
    return _Expression(
        attributes=attributes, size=size, max_freq=max_freq, sensitivity=sensitivity
    )


def _key_frequency(expression: _Expression, key: Sequence[str]) -> int:
    if not key:
        return expression.size
    # mf of a composite key is at most the min of its attributes' mfs.
    return min(expression.max_freq[a] for a in key)


def _walk(plan: JoinPlan, bases: Mapping[str, _Expression]) -> _Expression:
    """The analysis of ``plan`` over each relation's base expression."""
    if isinstance(plan, str):
        if plan not in bases:
            raise UnknownRelationError(plan)
        return bases[plan]
    if not (isinstance(plan, tuple) and len(plan) == 2):
        raise MechanismConfigError(f"malformed join plan node: {plan!r}")
    return _join_expressions(_walk(plan[0], bases), _walk(plan[1], bases))


def _base_expressions(
    query: ConjunctiveQuery, db: Database
) -> Dict[str, _Expression]:
    return {name: _base_expression(query, db, name) for name in query.relation_names}


def _plan_relations(plan: JoinPlan) -> Tuple[str, ...]:
    if isinstance(plan, str):
        return (plan,)
    return _plan_relations(plan[0]) + _plan_relations(plan[1])


def elastic_sensitivity(
    query: ConjunctiveQuery,
    db: Database,
    plan: Optional[JoinPlan] = None,
    tree: Optional[DecompositionTree] = None,
    protected: Optional[str] = None,
) -> int:
    """Elastic sensitivity upper bound on ``LS(Q, D)``.

    Parameters
    ----------
    query, db:
        The counting query and instance.
    plan:
        Binary join plan.  Defaults to :func:`default_plan`: a left-deep
        plan over ``tree``'s post-order (``tree`` defaults to each
        component's automatic decomposition).
    tree:
        Used only to derive the default plan.
    protected:
        When given, the bound treats only this relation as sensitive (the
        per-relation comparison of Fig. 6b).  Otherwise the bound is the
        max over all relations — comparable to ``LS`` over all insertions
        and deletions.
    """
    if plan is None:
        plan = default_plan(query, tree)
    covered = sorted(_plan_relations(plan))
    unknown = set(covered) - set(query.relation_names)
    if unknown:
        raise UnknownRelationError(sorted(unknown)[0])
    if covered != sorted(query.relation_names):
        raise MechanismConfigError(
            f"join plan covers {covered}, query has {sorted(query.relation_names)}"
        )
    expression = _walk(plan, _base_expressions(query, db))
    if protected is not None:
        if protected not in expression.sensitivity:
            raise UnknownRelationError(protected)
        return expression.sensitivity[protected]
    return max(expression.sensitivity.values())


def elastic_sensitivity_at_distance(
    query: ConjunctiveQuery,
    db: Database,
    protected: str,
    distance: int,
    plan: Optional[JoinPlan] = None,
    tree: Optional[DecompositionTree] = None,
) -> int:
    """Elastic sensitivity at distance ``k`` (Flex's ``Ŝ^(k)``).

    Upper-bounds the local sensitivity of any database at symmetric-
    difference distance ≤ ``k`` from ``D`` when only ``protected`` may
    change: the protected relation's max frequencies and size each grow by
    ``k`` (each added tuple can raise a frequency by at most one).  This is
    the quantity Flex maximises, discounted by ``e^{-βk}``, to obtain a
    smooth upper bound (see :mod:`repro.dp.flexdp`).
    """
    if distance < 0:
        raise MechanismConfigError(f"distance must be >= 0, got {distance}")
    return elastic_sensitivity_by_distance(query, db, protected, plan, tree)(distance)


def elastic_sensitivity_by_distance(
    query: ConjunctiveQuery,
    db: Database,
    protected: str,
    plan: Optional[JoinPlan] = None,
    tree: Optional[DecompositionTree] = None,
) -> Callable[[int], int]:
    """``k ↦ Ŝ^(k)`` (see :func:`elastic_sensitivity_at_distance`) for a
    scan over distances.

    Each relation's statistics are read here, once; each call walks the
    plan once, shifting only the protected relation's size and max
    frequencies by ``k``.
    """
    if protected not in query.relation_names:
        raise UnknownRelationError(protected)
    if plan is None:
        plan = default_plan(query, tree)
    bases = _base_expressions(query, db)
    for name, expression in bases.items():
        # Only the protected relation is sensitive in this analysis.
        expression.sensitivity = {protected: int(name == protected)}

    def at(distance: int) -> int:
        own = bases[protected]
        shifted = replace(
            own,
            size=own.size + distance,
            max_freq={attr: mf + distance for attr, mf in own.max_freq.items()},
        )
        return _walk(plan, {**bases, protected: shifted}).sensitivity[protected]

    return at


def elastic_per_relation(
    query: ConjunctiveQuery,
    db: Database,
    plan: Optional[JoinPlan] = None,
    tree: Optional[DecompositionTree] = None,
) -> Dict[str, int]:
    """Elastic sensitivity per protected relation (one analysis pass)."""
    if plan is None:
        plan = default_plan(query, tree)
    return dict(_walk(plan, _base_expressions(query, db)).sensitivity)
