"""Public dispatch API for local-sensitivity computation.

:func:`local_sensitivity` picks the right algorithm for the query shape:

=======================  ==================================================
query shape              algorithm
=======================  ==================================================
path join                Algorithm 1 (:func:`repro.core.path.ls_path_join`),
                         whose sweeps and tables are Algorithm 2's over
                         the path's join tree
acyclic / cyclic /       Algorithm 2 with join tree or GHD
disconnected             (:func:`repro.core.general.tsens`)
any, ``method="naive"``  brute force (:func:`repro.core.naive`)
any, ``method="reeval"`` per-candidate count probes
                         (:func:`repro.baselines.reeval`), incremental
                         delta propagation or full re-runs per
                         ``reeval_mode``
=======================  ==================================================

All algorithms return the same :class:`~repro.core.result.SensitivityResult`.

Since the session API landed these functions are thin one-shot wrappers
over :func:`repro.session.prepare`: each call plans a throwaway
:class:`~repro.session.PreparedQuery` and asks it once.  Callers issuing
repeated queries, DP releases or updates against the same instance should
hold the session instead — same results, none of the re-planning.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.engine.database import Database
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.jointree import DecompositionTree
from repro.core.naive import naive_local_sensitivity
from repro.core.result import SensitivityResult
from repro.session import prepare
from repro.exceptions import MechanismConfigError


def local_sensitivity(
    query: ConjunctiveQuery,
    db: Database,
    method: str = "auto",
    tree: Optional[DecompositionTree] = None,
    skip_relations: Iterable[str] = (),
    top_k: Optional[int] = None,
    max_width: int = 3,
    reeval_mode: str = "incremental",
) -> SensitivityResult:
    """Compute ``LS(Q, D)`` and a most sensitive tuple (Definition 2.3).

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
        Decomposition override for TSens on connected queries.
    skip_relations:
        Relations certified to have tuple sensitivity ≤ 1 (e.g. their
        attributes form a superkey of the output); their tables are skipped.
    top_k:
        When set, uses the clamping approximation of Sec. 5.4 — the result
        is an upper bound on the true local sensitivity.
    max_width:
        GHD node-size cap for automatic decomposition of cyclic queries.
    reeval_mode:
        For ``method="reeval"``: ``"incremental"`` answers every probe
        from cached join-tree counts via delta propagation (near-linear
        total), ``"full"`` re-runs the count per probe (the paper's
        strawman, kept as a cross-check).

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
    if method not in ("auto", "path", "tsens", "naive", "reeval"):
        raise MechanismConfigError(f"unknown method {method!r}")
    if method == "naive":
        # Dispatched before planning: brute force needs no decomposition,
        # so it must keep working on queries no GHD search can cover.
        return naive_local_sensitivity(query, db)
    session = prepare(query, db, tree=tree, max_width=max_width)
    return session.sensitivity(
        method=method,
        skip_relations=skip_relations,
        top_k=top_k,
        reeval_mode=reeval_mode,
    )


def most_sensitive_tuples(
    query: ConjunctiveQuery,
    db: Database,
    tree: Optional[DecompositionTree] = None,
    skip_relations: Iterable[str] = (),
    max_width: int = 3,
) -> Mapping[str, object]:
    """Per-relation most sensitive tuples (the paper's Fig. 6b report).

    Returns a mapping ``relation -> SensitiveTuple``, skipping relations in
    ``skip_relations`` (reported with bound 1, as the paper does for
    LINEITEM in q3).  ``max_width`` caps the automatic GHD node size for
    cyclic queries, like everywhere else in the stack.
    """
    session = prepare(query, db, tree=tree, max_width=max_width)
    return session.most_sensitive(skip_relations=skip_relations)
