"""Re-evaluation baseline: local sensitivity via per-tuple count probes.

Sections 4.1/5.2 of the paper discuss the natural alternative to TSens:
re-run a (near-linear) count-only Yannakakis evaluation once per candidate
tuple deletion/insertion.  This matches the naive algorithm of Theorem 3.1
but uses the efficient evaluator per probe; the paper estimates it at
``×10k+`` the cost of TSens on its workloads.

Two probe engines are available through ``mode``:

``"incremental"`` (default)
    :class:`~repro.evaluation.incremental.IncrementalEvaluator` — build
    the join-tree botjoins and topjoins once, then answer every candidate
    with one short delta join chain at its relation's node
    (Berkholz-style).  Whole relations probe in one vectorized batch, so
    the baseline runs *unsampled* at bench scale.
``"full"``
    The historical strawman: one complete re-evaluation per candidate.
    Kept as the cross-check the incremental engine is validated against,
    and as the runtime reference for the ablation bench.

Both modes support *sampling* a bounded number of candidates per relation
(``max_probes_per_relation``), which the bench uses to extrapolate the
full-mode runtime on databases where exhaustive re-running is hopeless.
Sampling draws identical candidates in both modes for a given seed, so
sampled results are mode-independent too.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.engine.database import Database
from repro.evaluation.incremental import IncrementalEvaluator
from repro.evaluation.yannakakis import _component_trees, bind, count_bound
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.jointree import DecompositionTree
from repro.core.result import SensitiveTuple, SensitivityResult
from repro.exceptions import MechanismConfigError

REEVAL_MODES: Tuple[str, ...] = ("incremental", "full")


def _candidates(
    db: Database,
    relation: str,
    include_insertions: bool,
    max_probes: Optional[int],
    rng: np.random.Generator,
) -> List[Tuple[object, ...]]:
    """Deletion + insertion candidate tuples for one relation, possibly
    sampled.  Deletion and insertion probes need no distinction: the count
    is multilinear in the multiplicities, so both deltas equal ``w(t)``.

    Candidates come in sorted order, so neither a sample nor the first of
    several equally sensitive tuples (the smallest, as in ``argmax_count``)
    depends on the relation's physical row order."""
    candidates: List[Tuple[object, ...]] = list(db.relation(relation))
    if include_insertions:
        candidates.extend(db.representative_tuples(relation))
    candidates.sort()
    if max_probes is not None and len(candidates) > max_probes:
        picks = rng.choice(len(candidates), size=max_probes, replace=False)
        candidates = [candidates[i] for i in sorted(picks)]
    return candidates


def reevaluation_sensitivity(
    query: ConjunctiveQuery,
    db: Database,
    tree: Optional[DecompositionTree] = None,
    max_probes_per_relation: Optional[int] = None,
    include_insertions: bool = True,
    seed: int = 0,
    mode: str = "incremental",
    max_width: int = 3,
    evaluator: Optional[IncrementalEvaluator] = None,
) -> SensitivityResult:
    """Local sensitivity via one count probe per candidate tuple.

    Parameters
    ----------
    query, db:
        The query and instance.
    tree:
        Decomposition used by every evaluation (defaults to automatic).
    max_probes_per_relation:
        When set, probe at most this many deletion and insertion candidates
        per relation, sampled uniformly without replacement.  The result is
        then a *lower* bound on the local sensitivity — the bench uses this
        mode purely to extrapolate runtime, never for accuracy claims.
    include_insertions:
        Probe representative-domain insertions in addition to deletions.
    mode:
        ``"incremental"`` (cached join-tree counts, delta propagation per
        probe) or ``"full"`` (one complete re-evaluation per probe).  Both
        return identical results; ``"full"`` exists as the cross-check.
    max_width:
        GHD node-size cap for the automatic decomposition of cyclic
        queries (ignored when ``tree`` is given).
    evaluator:
        For ``mode="incremental"``: a live
        :class:`~repro.evaluation.incremental.IncrementalEvaluator` whose
        cached state already reflects ``db`` (e.g. the one a
        :class:`~repro.session.PreparedQuery` maintains).  Skips the
        build; ignored in ``"full"`` mode.
    """
    if mode not in REEVAL_MODES:
        raise MechanismConfigError(
            f"unknown reeval mode {mode!r} (known: {', '.join(REEVAL_MODES)})"
        )
    query.validate_against(db)
    rng = np.random.default_rng(seed)

    if mode == "incremental":
        if evaluator is None:
            evaluator = IncrementalEvaluator(
                query, db, tree=tree, max_width=max_width
            )
        probe_evaluator = evaluator

        def deltas_of(relation: str, rows) -> List[int]:
            return probe_evaluator.delta_batch(relation, rows)
    else:
        pairs = _component_trees(query, tree, max_width)

        def full_count(instance: Database) -> int:
            total = 1
            for sub, sub_tree in pairs:
                total *= count_bound(bind(sub, sub_tree, instance))
                if total == 0:
                    return 0
            return total

        base = full_count(db)

        def deltas_of(relation: str, rows) -> List[int]:
            # One full re-evaluation per probe — the O(runs) strawman.
            return [
                full_count(db.add_tuple(relation, row)) - base for row in rows
            ]

    per_relation = {}
    for relation in query.relation_names:
        atom = query.atom(relation)
        candidates = _candidates(
            db, relation, include_insertions, max_probes_per_relation, rng
        )
        deltas = deltas_of(relation, candidates)
        best_delta, best_row = 0, None
        for row, delta in zip(candidates, deltas):
            if delta > best_delta:
                best_delta, best_row = delta, row
        if best_row is None:
            per_relation[relation] = SensitiveTuple(relation, {}, 0)
        else:
            assignment = dict(zip(atom.variables, best_row))
            per_relation[relation] = SensitiveTuple(relation, assignment, best_delta)

    local = max((w.sensitivity for w in per_relation.values()), default=0)
    witness = None
    if local > 0:
        witness = next(w for w in per_relation.values() if w.sensitivity == local)
    method = "reeval" if max_probes_per_relation is None else "reeval-sampled"
    if mode == "incremental":
        method += "-incremental"
    return SensitivityResult(
        query_name=query.name,
        method=method,
        local_sensitivity=local,
        witness=witness,
        per_relation=per_relation,
        tables={},
    )
