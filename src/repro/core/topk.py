"""Top-k frequency approximation of TSens (Sec. 5.4 "Efficient approximations").

The exact algorithm's topjoins and botjoins can grow quadratically for some
queries (the paper hits this on cyclic q3).  The approximation keeps, in
every topjoin/botjoin, only the ``k`` largest frequencies exactly and clamps
every other entry **up** to the k-th largest frequency.  Each clamped count
dominates the true count, and counts propagate through ``r̃join``/``γ`` by
products and sums of non-negative numbers, so every downstream multiplicity
is an over-estimate: the result is a valid **upper bound** on each tuple
sensitivity and on the local sensitivity, trading tightness for bounded
frequency skew in the intermediates.

``tsens_topk`` runs the same botjoin/topjoin passes as the exact algorithm
(:func:`~repro.evaluation.yannakakis.compute_botjoins`,
:func:`~repro.evaluation.yannakakis.compute_topjoins`) with a per-level
clamp, and reuses the exact multiplicity-table construction from
:mod:`repro.core.acyclic`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.engine.columnar import ColumnarRelation, clamp_counts_to_top_k
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.evaluation.joinstate import JoinState
from repro.evaluation.yannakakis import bind, compute_botjoins, compute_topjoins
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.gyo import gyo_join_tree
from repro.query.jointree import DecompositionTree
from repro.core.acyclic import multiplicity_table, sensitivity_from_tables
from repro.core.result import SensitivityResult
from repro.exceptions import MechanismConfigError, QueryStructureError


def clamp_to_top_k(relation: Relation, k: int) -> Relation:
    """Clamp all but the ``k`` largest counts up to the k-th largest.

    Entries keep their keys; only counts below the k-th largest rise to it.
    With ``k >= distinct_count`` the relation is returned unchanged.
    Columnar relations take a vectorized path (``np.partition`` +
    ``np.maximum``) and stay columnar.
    """
    if k <= 0:
        raise MechanismConfigError(f"top-k clamp needs k >= 1, got {k}")
    if relation.distinct_count() <= k:
        return relation
    if isinstance(relation, ColumnarRelation):
        return clamp_counts_to_top_k(relation, k)
    counts = sorted(relation.counts.values(), reverse=True)
    threshold = counts[k - 1]
    clamped = {
        row: (cnt if cnt >= threshold else threshold)
        for row, cnt in relation.items()
    }
    return Relation._from_counts(relation.schema, clamped)


def tsens_topk(
    query: ConjunctiveQuery,
    db: Database,
    k: int,
    tree: Optional[DecompositionTree] = None,
    skip_relations: Iterable[str] = (),
    state: Optional[JoinState] = None,
) -> SensitivityResult:
    """Upper-bound TSens with per-pass top-k clamping (connected queries).

    Identical to :func:`repro.core.acyclic.tsens_connected` except that each
    botjoin and topjoin is clamped with :func:`clamp_to_top_k` before use.
    The returned local sensitivity satisfies
    ``LS(Q, D) <= result.local_sensitivity`` (tested property), with
    equality for ``k`` at least the number of distinct boundary values.

    ``state`` (a maintained :class:`JoinState` on ``tree`` over ``db``)
    supplies the bound tree so sessions skip re-binding after updates.
    Clamping is *not* linear, so the clamped botjoin/topjoin passes cannot
    be folded incrementally — they rerun per call over the maintained
    atoms, with clamping applied at every level exactly as the one-shot
    computation does.
    """
    if not query.is_connected():
        raise QueryStructureError("tsens_topk needs a connected query")
    if state is not None:
        bound = state.bound
    else:
        if tree is None:
            tree = gyo_join_tree(query)
        bound = bind(query, tree, db)

    def clamp(level: Relation) -> Relation:
        return clamp_to_top_k(level, k)

    botjoins = compute_botjoins(bound, clamp)
    topjoins = compute_topjoins(bound, botjoins, clamp)
    # No witness cache: the clamped tables are not the state's.
    return sensitivity_from_tables(
        query, db, query.relation_names,
        lambda relation: multiplicity_table(bound, botjoins, topjoins, relation),
        f"tsens-top{k}", skip_relations,
    )
