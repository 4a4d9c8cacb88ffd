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
clamp, over the bound atoms of the session's maintained
:class:`~repro.evaluation.joinstate.JoinState`, and reuses the exact
multiplicity-table construction from :mod:`repro.core.acyclic`.  The
one-shot form is ``prepare(q, db, tree=t).top_k(k)``.
"""

from __future__ import annotations

from typing import Iterable

from repro.engine.columnar import ColumnarRelation, clamp_counts_to_top_k
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.evaluation.joinstate import JoinState
from repro.evaluation.yannakakis import compute_botjoins, compute_topjoins
from repro.query.conjunctive import ConjunctiveQuery
from repro.core.acyclic import multiplicity_table, sensitivity_from_tables
from repro.core.result import SensitivityResult
from repro.exceptions import MechanismConfigError


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
    state: JoinState,
    k: int,
    skip_relations: Iterable[str] = (),
) -> SensitivityResult:
    """Upper-bound TSens with per-pass top-k clamping over one plan.

    ``state`` is the maintained :class:`JoinState` of a one-component plan
    over ``db`` (the session's; :meth:`repro.session.PreparedQuery.top_k`
    rejects a plan with more than one component).  Identical to an exact
    TSens read of that state except that each botjoin and topjoin is
    clamped with :func:`clamp_to_top_k` before use.  The returned local
    sensitivity satisfies ``LS(Q, D) <= result.local_sensitivity``
    (tested property), with equality for ``k`` at least the number of
    distinct boundary values.

    Clamping is *not* linear, so the clamped botjoin/topjoin passes cannot
    be folded incrementally — they rerun per call over the maintained
    bound atoms, with clamping applied at every level.
    """
    bound = state.bound

    def clamp(level: Relation) -> Relation:
        return clamp_to_top_k(level, k)

    botjoins = compute_botjoins(bound, clamp)
    topjoins = compute_topjoins(bound, botjoins, clamp)
    return sensitivity_from_tables(
        query, db, query.relation_names,
        lambda relation: multiplicity_table(bound, botjoins, topjoins, relation),
        f"tsens-top{k}", skip_relations,
    )
