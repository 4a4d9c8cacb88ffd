"""Public dispatch API for local-sensitivity computation.

:func:`local_sensitivity` picks the right algorithm for the query shape:

=======================  ==================================================
query shape              algorithm
=======================  ==================================================
path join                Algorithm 1 (:func:`repro.core.path.ls_path_join`),
                         whose sweeps and tables are Algorithm 2's over
                         the path's join tree
acyclic / cyclic /       Algorithm 2 over the session's plan: a join tree
disconnected             or GHD per component (:func:`tsens`, over
                         :func:`repro.core.general.tsens_from_states`)
any, ``method="naive"``  brute force (:func:`repro.core.naive`)
any, ``method="reeval"`` per-candidate count probes by delta
                         propagation over the session's evaluator
                         (:func:`repro.baselines.reeval`)
=======================  ==================================================

All algorithms return the same :class:`~repro.core.result.SensitivityResult`.

These functions are thin one-shot wrappers over
:func:`repro.session.prepare`: each call plans a throwaway
:class:`~repro.session.PreparedQuery` and asks it once (brute force
alone skips the planning), so every algorithm reads the one maintained
join state a session holds.  Callers issuing repeated queries, DP
releases or updates against the same instance should hold the session
instead — same results, none of the re-planning.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.engine.database import Database
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.jointree import DecompositionTree
from repro.core.naive import naive_local_sensitivity
from repro.core.result import SensitivityResult
from repro.session import prepare, validate_method


def local_sensitivity(
    query: ConjunctiveQuery,
    db: Database,
    method: str = "auto",
    tree: Optional[DecompositionTree] = None,
    skip_relations: Iterable[str] = (),
) -> SensitivityResult:
    """Compute ``LS(Q, D)`` and a most sensitive tuple (Definition 2.3).

    The Sec. 5.4 top-k clamping upper bound is
    ``prepare(query, db).top_k(k)``, and the paper's full re-evaluation
    strawman is ``reevaluation_sensitivity(query, db, mode="full")``.

    Parameters
    ----------
    query:
        Full conjunctive query without self-joins, optionally with
        per-atom selections.
    db:
        Database instance.
    method:
        ``"auto"`` (path algorithm for path queries, TSens otherwise),
        ``"path"``, ``"tsens"``, ``"naive"``, or ``"reeval"`` (the
        re-evaluation baseline, exact but slower than TSens).
    tree:
        A decomposition covering the whole query (default: the plan of
        :func:`~repro.query.ghd.component_trees`), as in
        :func:`~repro.session.prepare`.
    skip_relations:
        Relations certified to have tuple sensitivity ≤ 1 (e.g. their
        attributes form a superkey of the output); their tables are skipped.

    Examples
    --------
    >>> from repro.query import parse_query
    >>> from repro.engine import Database, Relation
    >>> q = parse_query("Q(A,B,C) :- R(A,B), S(B,C)")
    >>> db = Database({
    ...     "R": Relation(["A", "B"], [(1, 2), (3, 2)]),
    ...     "S": Relation(["B", "C"], [(2, 4)]),
    ... })
    >>> result = local_sensitivity(q, db)
    >>> result.local_sensitivity
    2
    >>> result.witness.relation
    'S'
    """
    validate_method(method)
    if method == "naive":
        # Dispatched before planning: brute force needs no decomposition,
        # so it must keep working on queries no GHD search can cover.
        return naive_local_sensitivity(query, db)
    session = prepare(query, db, tree=tree)
    return session.sensitivity(method=method, skip_relations=skip_relations)


def most_sensitive_tuples(
    query: ConjunctiveQuery,
    db: Database,
    tree: Optional[DecompositionTree] = None,
    skip_relations: Iterable[str] = (),
) -> Mapping[str, object]:
    """Per-relation most sensitive tuples (the paper's Fig. 6b report).

    Returns a mapping ``relation -> SensitiveTuple``, skipping relations in
    ``skip_relations`` (reported with bound 1, as the paper does for
    LINEITEM in q3).
    """
    session = prepare(query, db, tree=tree)
    return session.most_sensitive(skip_relations=skip_relations)


def tsens(
    query: ConjunctiveQuery,
    db: Database,
    tree: Optional[DecompositionTree] = None,
    skip_relations: Iterable[str] = (),
) -> SensitivityResult:
    """TSens (Algorithm 2 with the Sec. 5.4 extensions) for any full CQ
    without self-joins: ``local_sensitivity(..., method="tsens")``.

    Runs over a join tree or GHD per connected component, scaling each
    component's sensitivities by the other components' counts.  ``tree``
    covers the whole query, as in :func:`~repro.session.prepare`.
    """
    session = prepare(query, db, tree=tree)
    return session.sensitivity(method="tsens", skip_relations=skip_relations)
