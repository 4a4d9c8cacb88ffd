"""TSens — Algorithm 2, local sensitivity of acyclic (and decomposed) CQs.

Given a join tree (or generalized hypertree decomposition) ``T`` for a
connected full CQ without self-joins, TSens makes two passes over ``T``:

1. **Botjoins** ``K(v)`` in post-order (Eqn. 5/7) — multiplicities of the
   partial joins of the subtree rooted at ``v``, grouped on the attributes
   shared with the parent.
2. **Topjoins** ``J(v)`` in pre-order (Eqn. 4/8) — multiplicities of the
   partial joins of the *complement* of ``v``'s subtree, again grouped on
   the shared attributes.

The **multiplicity table** ``T^i`` of a relation ``R_i`` assigned to node
``v`` joins the topjoin of ``v``, the botjoins of ``v``'s children, and the
*other* relations assigned to ``v`` (Sec. 5.4 "General joins"),
grouped on ``R_i``'s effective attributes.  ``T^i[t]`` is simultaneously the
upward and the downward tuple sensitivity of ``t`` because the join excludes
``R_i`` itself — adding or removing ``t`` adds or removes exactly ``T^i[t]``
output tuples.

The local sensitivity is the max entry over all multiplicity tables
(Theorem 5.1); the argmax row, extended with extrapolated values for
exclusive attributes, is the most sensitive tuple.

All of this state — bound tree, botjoins, topjoins, tables — lives in a
:class:`~repro.evaluation.joinstate.JoinState`, and the only one a read
uses is the session's *maintained* instance, whose structures were folded
under committed updates instead of rebuilt
(:func:`repro.core.general.tsens_from_states` reads it; the one-shot
:func:`repro.core.api.tsens` is a read of a throwaway session).  Each read
takes the witnesses off the tables with :func:`best_witness`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.evaluation.joinstate import build_table, part_relation, table_layout
from repro.evaluation.yannakakis import BoundTree, compute_topjoins
from repro.query.conjunctive import ConjunctiveQuery
from repro.core.result import MultiplicityTable, SensitiveTuple, SensitivityResult

__all__ = [
    "best_witness",
    "compute_topjoins",
    "extrapolate_assignment",
    "multiplicity_table",
    "select_overall_witness",
    "sensitivity_from_tables",
]


def multiplicity_table(
    bound: BoundTree,
    botjoins: Dict[str, Relation],
    topjoins: Dict[str, Optional[Relation]],
    relation: str,
) -> MultiplicityTable:
    """The paper's ``T^i`` (Eqn. 6) for one base relation.

    Joins everything *except* ``relation``: the node's topjoin, the node's
    children botjoins, and the other relations assigned to the same node,
    grouped by the relation's effective attributes.  The join does not run
    in written order and group once at the end:
    :func:`~repro.evaluation.joinstate.join_aggregate` starts from the
    first part, joins next the part with the smallest UES upper bound, and
    sums out each attribute as soon as no later part and no output column
    needs it — so q3's root tables never materialise the many-to-many
    ``K(gOC) ⋈ K(gSP)`` join on NK that written order implies.

    The paper notes (Sec. 5.2) that these partial joins "may not share any
    attributes in general" — materialising their cross product is exactly
    the ``n^d`` blow-up of Theorem 5.1.  We avoid it losslessly: the parts
    split into attribute-connected components, ``γ`` distributes over the
    cross product of components, and the result is stored as a *factored*
    :class:`~repro.core.result.MultiplicityTable` (the same representation
    Algorithm 1 uses for path queries), so doubly acyclic queries never pay
    the cross product.

    This explicit-dicts form exists for callers that substitute their own
    botjoins/topjoins (the top-k clamping approximation); everyone else
    reads tables straight off a :class:`JoinState`, which shares the same
    symbolic layout so maintained and freshly built tables are identical.
    """
    layout = table_layout(bound.query, bound.tree, relation)
    return build_table(
        layout, lambda part: part_relation(part, bound, botjoins, topjoins)
    )


def best_witness(
    table: MultiplicityTable,
    query: ConjunctiveQuery,
    db: Database,
    relation: str,
) -> SensitiveTuple:
    """The most sensitive tuple of ``relation`` honouring its selection.

    Without a selection predicate this is the table argmax.  With one,
    tuples failing the predicate have sensitivity 0, and the brute-force
    Theorem 3.1 enumeration has two kinds of candidate left:

    * insertions — table entries whose exclusive attributes take their
      fixed representative value: entries stream out in descending
      sensitivity until the first whose extrapolated assignment passes;
    * deletions — the relation's existing tuples that pass, all scored
      by one :meth:`MultiplicityTable.sensitivities_of` lookup (ties to the
      smallest tuple).
      Only these reach exclusive values other than the representative one.

    The larger of the two wins; a tie keeps the insertion.
    """
    predicate = query.selections.get(relation)
    if predicate is None:
        partial, sensitivity = table.argmax()
        if partial is None:
            return SensitiveTuple(relation, {}, 0)
        assignment = extrapolate_assignment(query, db, relation, partial)
        return SensitiveTuple(relation, assignment, sensitivity)
    best = SensitiveTuple(relation, {}, 0)
    for partial, sensitivity in table.iter_descending():
        if sensitivity == 0:
            break
        assignment = extrapolate_assignment(query, db, relation, dict(partial))
        if predicate(assignment):
            best = SensitiveTuple(relation, assignment, sensitivity)
            break
    existing = query.bound_relation(db, relation)
    rows = list(existing)
    scores = table.sensitivities_of(
        [dict(zip(existing.attributes, row)) for row in rows]
    )
    top = max(scores, default=0)
    if top > best.sensitivity:
        row = min(row for row, score in zip(rows, scores) if score == top)
        best = SensitiveTuple(relation, dict(zip(existing.attributes, row)), top)
    return best


def extrapolate_assignment(
    query: ConjunctiveQuery,
    db: Database,
    relation: str,
    partial: Dict[str, object],
) -> Dict[str, object]:
    """Fill values for exclusive attributes of ``relation`` (Sec. 5.4).

    Exclusive attributes do not affect the sensitivity, so any value works;
    we take the relation's representative-domain pick for determinism.
    """
    assignment = dict(partial)
    atom = query.atom(relation)
    base_attrs = db.relation(relation).schema.attributes
    var_to_column = dict(zip(atom.variables, base_attrs))
    for var in query.exclusive_variables(relation):
        if var not in assignment:
            column = var_to_column[var]
            domain = db.representative_domain(column, relation)
            assignment[var] = min(domain, key=repr)
    return assignment


def select_overall_witness(
    per_relation: Dict[str, SensitiveTuple],
) -> Tuple[int, Optional[SensitiveTuple]]:
    """``LS(Q, D)`` and one witness from the per-relation maxima.

    Ties prefer a witness with a concrete assignment, then relation order
    — the deterministic rule every TSens variant shares.
    """
    local = max((w.sensitivity for w in per_relation.values()), default=0)
    if local <= 0:
        return local, None
    candidates = [w for w in per_relation.values() if w.sensitivity == local]
    with_assignment = [w for w in candidates if w.assignment]
    return local, (with_assignment or candidates)[0]


def sensitivity_from_tables(
    query: ConjunctiveQuery,
    db: Database,
    order: Sequence[str],
    table_of: Callable[[str], MultiplicityTable],
    method: str,
    skip_relations: Iterable[str] = (),
) -> SensitivityResult:
    """The witness of each relation in ``order``, and the overall one.

    A skipped relation is certified to have tuple sensitivity ≤ 1 (its
    attributes form a superkey of the join output, as LINEITEM's do in
    the paper's q3): it gets bound 1 and no table.  Every other relation
    reads its table from ``table_of`` and its witness off that table with
    :func:`best_witness`.  Overall ties go to a concrete witness, then to
    the earlier relation in ``order``.
    """
    skip = set(skip_relations)
    tables: Dict[str, MultiplicityTable] = {}
    per_relation: Dict[str, SensitiveTuple] = {}
    for relation in order:
        if relation in skip:
            per_relation[relation] = SensitiveTuple(relation, {}, 1)
            continue
        table = tables[relation] = table_of(relation)
        per_relation[relation] = best_witness(table, query, db, relation)
    local, witness = select_overall_witness(per_relation)
    return SensitivityResult(
        query_name=query.name,
        method=method,
        local_sensitivity=local,
        witness=witness,
        per_relation=per_relation,
        tables=tables,
    )

