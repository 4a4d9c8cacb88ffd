"""Prepared-query sessions: plan once, answer many times.

Every historical entry point (:func:`repro.core.api.local_sensitivity`,
the DP runners, the CLI) was a stateless one-shot function: each call
re-parsed, re-classified, re-decomposed, re-bound and re-counted.  A
:class:`PreparedQuery` does that planning exactly once —

* classify the query shape (path / acyclic / cyclic / disconnected),
* build the decomposition (GYO join tree or automatic GHD) per connected
  component, through :func:`~repro.query.ghd.component_trees`,
* on first use, bind the tree and materialise the cached join-tree counts
  of :class:`~repro.evaluation.incremental.IncrementalEvaluator` —

and then serves repeated reads (:meth:`~PreparedQuery.count`,
:meth:`~PreparedQuery.sensitivity`, :meth:`~PreparedQuery.top_k`,
:meth:`~PreparedQuery.most_sensitive`, :meth:`~PreparedQuery.explain`),
unified DP releases over the three mechanisms
(:meth:`~PreparedQuery.release` with
:class:`~repro.dp.accountant.BudgetAccountant` integration), and a
*stream of committed updates* (:meth:`~PreparedQuery.insert`,
:meth:`~PreparedQuery.delete`, :meth:`~PreparedQuery.apply`) that
maintain the cached state — never a full rebuild.

Maintenance covers the whole TSens join-state, not just counts: each
component's :class:`~repro.evaluation.joinstate.JoinState` folds every
committed update into its botjoins (leaf-to-root), topjoins
(root-to-leaf) and factored multiplicity tables (one patched factor),
so sensitivity reads after updates refresh from maintained structures.
It is the only state a read uses: path, top-k and explain reads run on
it too, whatever tree was prepared.  Result objects are cached per
configuration and invalidated exactly when a mutation lands, so a
session is always observationally equivalent to a fresh session over its
current database (pinned by ``tests/property/test_session_equivalence.py``
and ``tests/property/test_sensitivity_maintenance.py``).

Quickstart::

    from repro import prepare

    session = prepare(query, db)             # plan once
    session.count()                          # |Q(D)| from cached state
    session.sensitivity().local_sensitivity  # LS(Q, D), cached
    session.insert("R", (1, 2))              # O(path) maintenance
    session.count()                          # maintained, no rebuild
    session.release(1.0, mechanism="tsensdp", primary="R", ell=50)

**Thread safety.**  Every public read (``count``, ``sensitivity``,
``top_k``, ``most_sensitive``, ``explain``, ``probe``, ``stats``,
``release``, ``truncation_oracle``) and every mutation (``insert``,
``delete``, ``apply``) serialises on one re-entrant lock per session
(:attr:`PreparedQuery.lock`), so a read can never interleave with a
half-committed update batch: it observes the session either entirely
before or entirely after any concurrent ``apply``.  Callers needing a
*sequence* of reads against one consistent snapshot hold the lock
themselves (``with session.lock: ...``), or read a
:meth:`~PreparedQuery.fork`, which no later update of its parent
reaches.  The epoch-pinned serving layer in :mod:`repro.serve` is built
on forks: each epoch owns a session, and its writer folds every batch
into a fork of the head session, never into a session readers use.
"""

from __future__ import annotations

import copy
import threading

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.engine.database import Database
from repro.evaluation.incremental import IncrementalEvaluator, compact_updates
from repro.query.classify import is_path_query
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.ghd import component_trees
from repro.query.jointree import DecompositionTree
from repro.core.explain import Explanation, explain as _explain
from repro.core.general import tsens_from_states
from repro.core.naive import naive_local_sensitivity
from repro.core.path import PathState, ls_path_join
from repro.core.result import SensitiveTuple, SensitivityResult
from repro.core.topk import tsens_topk
from repro.exceptions import (
    InternalError,
    MechanismConfigError,
    QueryStructureError,
    SessionError,
    UnknownRelationError,
)

#: Mechanisms the :meth:`PreparedQuery.release` facade dispatches over.
RELEASE_MECHANISMS: Tuple[str, ...] = ("tsensdp", "flexdp", "privsql")

#: Update operations understood by :meth:`PreparedQuery.apply`.
_INSERT_OPS = frozenset({"insert", "+"})
_DELETE_OPS = frozenset({"delete", "-"})

#: An update-stream element: ``(op, relation, row)``.
Update = Tuple[str, str, Sequence[object]]


def validate_method(method: str) -> None:
    """Reject an unknown ``method``."""
    if method not in ("auto", "path", "tsens", "naive", "reeval"):
        raise MechanismConfigError(f"unknown method {method!r}")


def prepare(
    query: ConjunctiveQuery,
    db: Database,
    backend: Optional[str] = None,
    tree: Optional[DecompositionTree] = None,
) -> "PreparedQuery":
    """Plan ``query`` over ``db`` once and return the reusable session.

    Parameters
    ----------
    query:
        Full conjunctive query without self-joins, optionally with
        per-atom selections.
    db:
        Database instance.  The session never mutates the caller's
        object; committed updates produce fresh immutable snapshots
        reachable via :attr:`PreparedQuery.db`.
    backend:
        Optional execution-backend name (``"python"``/``"columnar"``);
        when given, the database is converted up front so every cached
        structure lives on that backend.
    tree:
        A decomposition covering the whole query, which every read and
        update runs on.  Without one the session plans with
        :func:`~repro.query.ghd.component_trees`: a GYO join tree, or an
        automatic GHD for a cyclic query, per connected component.  Pass
        a wider GHD here, built by :func:`~repro.query.ghd.auto_decompose`
        with a larger node-size cap or by
        :func:`~repro.query.ghd.ghd_from_groups`.  Supplying one disables
        the path-algorithm shortcut.

    Examples
    --------
    >>> from repro.query import parse_query
    >>> from repro.engine import Database, Relation
    >>> q = parse_query("Q(A,B,C) :- R(A,B), S(B,C)")
    >>> db = Database({
    ...     "R": Relation(["A", "B"], [(1, 2), (3, 2)]),
    ...     "S": Relation(["B", "C"], [(2, 4)]),
    ... })
    >>> session = prepare(q, db)
    >>> session.count()
    2
    >>> session.sensitivity().local_sensitivity
    2
    >>> session.insert("S", (2, 5))
    4
    >>> session.sensitivity().local_sensitivity
    2
    """
    if backend is not None:
        db = db.with_backend(backend)
    return PreparedQuery(query, db, tree=tree)


def rebuild_per_update_counts(
    query: ConjunctiveQuery,
    db: Database,
    stream: Iterable[Update],
    tree: Optional[DecompositionTree] = None,
) -> List[int]:
    """The rebuild-per-update strawman: ``|Q(D)|`` after each stream element,
    re-planning from scratch every time.

    This is the historical usage pattern a maintained
    :class:`PreparedQuery` replaces, kept as the shared baseline (and
    exact-equivalence oracle) for the session benchmarks — the CLI
    ``bench-session`` command and ``benchmarks/bench_session_updates.py``
    both measure against this exact loop.
    """
    counts: List[int] = []
    current = db
    for op, relation, row in stream:
        if op in _INSERT_OPS:
            current = current.add_tuple(relation, row)
        elif op in _DELETE_OPS:
            current = current.remove_tuple(relation, row)
        else:
            raise SessionError(
                f"unknown update op {op!r} (use 'insert' or 'delete')"
            )
        counts.append(prepare(query, current, tree=tree).count())
    return counts


class PreparedQuery:
    """A query planned once, serving reads, DP releases and updates.

    Use :func:`prepare` to construct.  All methods answer against the
    session's *current* database (:attr:`db`), which advances with every
    committed update; cached results are invalidated on mutation and
    recomputed lazily, so any read is equivalent to the corresponding
    one-shot function on :attr:`db`.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        db: Database,
        tree: Optional[DecompositionTree] = None,
    ):
        query.validate_against(db)
        self._query = query
        self._db = db
        # One re-entrant lock serialises every public read and mutation;
        # see the module docstring's thread-safety contract.
        self._lock = threading.RLock()
        # Planned once: classification + per-component decomposition.
        self._is_path = tree is None and is_path_query(query)
        self._pairs = component_trees(query, tree)
        # Built on first count/update/reeval use.
        self._evaluator: Optional[IncrementalEvaluator] = None
        # (kind, config) -> result caches, cleared on every mutation.
        self._results: Dict[Tuple, object] = {}
        self._oracles: Dict[str, object] = {}
        self._updates_applied = 0

    # ------------------------------------------------------------- accessors
    @property
    def query(self) -> ConjunctiveQuery:
        return self._query

    @property
    def db(self) -> Database:
        """The current database snapshot (advances with committed updates)."""
        return self._db

    @property
    def backend(self) -> str:
        """Execution backend the session's relations live on."""
        return self._db.backend

    @property
    def tree(self) -> Optional[DecompositionTree]:
        """The prepared decomposition for connected queries (``None`` when
        the query is disconnected — see :attr:`component_trees`)."""
        if len(self._pairs) == 1:
            return self._pairs[0][1]
        return None

    @property
    def component_trees(
        self,
    ) -> Tuple[Tuple[ConjunctiveQuery, DecompositionTree], ...]:
        """The prepared ``(subquery, decomposition)`` pair per component."""
        return tuple(self._pairs)

    @property
    def updates_applied(self) -> int:
        """Number of committed updates since :func:`prepare`."""
        return self._updates_applied

    @property
    def lock(self) -> "threading.RLock":
        """The session's state lock (re-entrant).

        Every public read and mutation acquires it internally, so single
        calls are always atomic with respect to a concurrent
        :meth:`apply`.  Hold it explicitly to make a *sequence* of reads
        observe one consistent snapshot::

            with session.lock:
                count = session.count()
                ls = session.sensitivity().local_sensitivity

        The serving layer's writer holds it only while it forks the head
        session, so a fork never copies a half-built lazy level; it folds
        each batch into the fork, without this lock.
        """
        return self._lock

    def close(self) -> None:
        """No-op, kept so sessions stay usable as context managers.

        A session holds no resources beyond memory; reads keep working
        after ``close``.
        """

    def __enter__(self) -> "PreparedQuery":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (
            f"PreparedQuery({self._query.name}, backend={self.backend}, "
            f"components={len(self._pairs)}, updates={self._updates_applied})"
        )

    # ----------------------------------------------------------------- reads
    def _ensure_evaluator(self) -> IncrementalEvaluator:
        if self._evaluator is None:
            self._evaluator = IncrementalEvaluator(
                self._query, self._db, component_pairs=self._pairs
            )
        return self._evaluator

    def _states(self):
        """The maintained per-component join states (botjoins eagerly,
        topjoins/tables lazily) that committed updates fold deltas into.
        Every TSens-family read goes through these, so a read after an
        update refreshes from maintained state instead of recomputing
        the bind/botjoin/topjoin/table pipeline from scratch."""
        return self._ensure_evaluator().component_states

    def _only_state(self, read: str):
        """The maintained state of a one-component plan, for ``read``."""
        if len(self._pairs) != 1:
            raise QueryStructureError(
                f"{read} needs a one-component plan; pass prepare() a tree "
                f"covering all of {self._query.name}"
            )
        return self._states()[0]

    def count(self) -> int:
        """``|Q(D)|`` on the current database, from maintained state."""
        with self._lock:
            return self._ensure_evaluator().base_count

    def probe(
        self, relation: str, rows: Sequence[Sequence[object]]
    ) -> List[int]:
        """``w(t)`` for every probe tuple — hypothetical count-change
        magnitudes, from cached join-tree state.

        ``w(t)`` is the number of join results one occurrence of ``t``
        participates in: inserting one occurrence of ``rows[i]`` into
        ``relation`` would yield ``count() + probe(...)[i]``, deleting an
        existing occurrence ``count() - probe(...)[i]``.  All rows ride
        one probe-id-tagged delta relation through a single join chain at
        the relation's node: its other atoms, its children's botjoins and
        its maintained topjoin (vectorized on the columnar backend), so
        probing a thousand tuples costs one pass, not a thousand — this is
        the kernel the serving layer's admission queue coalesces
        concurrent probe requests onto.  The database is not modified.
        """
        with self._lock:
            return self._ensure_evaluator().delta_batch(
                relation, [tuple(row) for row in rows]
            )

    def _skip(self, skip_relations: Iterable[str]) -> Tuple[str, ...]:
        """``skip_relations`` as a sorted tuple of distinct names, each a
        relation of the query; an unknown one raises
        :class:`~repro.exceptions.UnknownRelationError`."""
        skip = set(skip_relations)
        for relation in skip:
            if relation not in self._query.relation_names:
                raise UnknownRelationError(relation)
        return tuple(sorted(skip))

    def sensitivity(
        self,
        method: str = "auto",
        skip_relations: Iterable[str] = (),
    ) -> SensitivityResult:
        """``LS(Q, D)`` and witnesses — the session form of
        :func:`repro.core.api.local_sensitivity`.

        Parameters and semantics match the one-shot function; the
        decomposition prepared at session creation is reused instead of
        being re-derived, ``"path"``, ``"tsens"`` and ``"reeval"`` reads
        all run on its maintained state, also when it was prepared with
        ``tree=``, and results are cached per configuration until the
        next committed update.  The top-k bound is :meth:`top_k`.
        """
        validate_method(method)
        if method == "auto":
            # Resolve before caching so e.g. an "auto" read and an explicit
            # "tsens" read of the same non-path query share one result.
            method = "path" if self._is_path else "tsens"
        skip = self._skip(skip_relations)
        key = ("sensitivity", method, skip)
        with self._lock:
            if key not in self._results:
                self._results[key] = self._compute_sensitivity(method, skip)
            return self._results[key]  # type: ignore[return-value]

    def _compute_sensitivity(
        self, method: str, skip: Tuple[str, ...]
    ) -> SensitivityResult:
        if method == "naive":
            return naive_local_sensitivity(self._query, self._db)
        if method == "reeval":
            if skip:
                raise MechanismConfigError(
                    "method='reeval' does not support skip_relations; "
                    "use method='tsens' for that knob"
                )
            # Imported lazily: repro.baselines imports repro.core.result, so
            # a top-level import would cycle during package initialisation.
            from repro.baselines.reeval import reevaluation_sensitivity

            return reevaluation_sensitivity(
                self._query, self._db, evaluator=self._ensure_evaluator()
            )
        if method == "path":
            return ls_path_join(
                self._query,
                self._db,
                PathState(self._query, self._states()[0]),
                skip_relations=skip,
            )
        return tsens_from_states(
            self._query, self._db, self._states(), skip_relations=skip
        )

    def top_k(
        self, k: int, skip_relations: Iterable[str] = ()
    ) -> SensitivityResult:
        """The Sec. 5.4 top-k clamping upper bound (``tsens-top<k>``),
        over the session's prepared decomposition (a GHD included).

        ``k`` is an integer ``>= 1`` (a ``bool`` is not), else
        :class:`~repro.exceptions.MechanismConfigError`; a plan of several
        components raises :class:`~repro.exceptions.QueryStructureError`.
        Cached per ``(k, skip_relations)`` until the next committed update.
        """
        # Imported lazily, as in release(): repro.dp imports the one-shot API.
        from repro.dp.primitives import _is_count

        if not _is_count(k):
            raise MechanismConfigError(f"top_k needs an integer k >= 1, got {k!r}")
        k, skip = int(k), self._skip(skip_relations)
        key = ("top_k", k, skip)
        with self._lock:
            if key not in self._results:
                # Clamping is not linear, so the clamped passes are not
                # maintained: each key reruns them on the current state.
                self._results[key] = tsens_topk(
                    self._query, self._db, self._only_state("top_k"), k, skip
                )
            return self._results[key]  # type: ignore[return-value]

    def most_sensitive(
        self, skip_relations: Iterable[str] = ()
    ) -> Mapping[str, SensitiveTuple]:
        """Per-relation most sensitive tuples (the paper's Fig. 6b view)."""
        return self.sensitivity(
            method="tsens", skip_relations=skip_relations
        ).per_relation

    def explain(self, skip_relations: Iterable[str] = ()) -> Explanation:
        """TSens cost profile over the prepared decomposition.

        Profiles the *maintained* join state: the botjoins/topjoins/tables
        the session already holds (folded under updates) are measured in
        place rather than recomputed.  The local sensitivity and per-table
        maxima are the session's default read's (``sensitivity()``,
        selections included): a path query's Algorithm 1 read takes them
        off the same tables as TSens, so the profile reuses that cached
        read instead of adding a ``tsens`` one.  A plan of several
        components raises :class:`~repro.exceptions.QueryStructureError`.
        """
        skip = self._skip(skip_relations)
        key = ("explain", skip)
        with self._lock:
            if key not in self._results:
                state = self._only_state("explain")
                result = self.sensitivity(skip_relations=skip)
                self._results[key] = _explain(self._query, state, result)
            return self._results[key]  # type: ignore[return-value]

    def stats(self) -> Dict[str, object]:
        """Epoch/state metadata for operational monitoring.

        A plain JSON-able dictionary describing the session: execution
        backend, per-relation cardinalities, how many
        updates have been committed, and — once the evaluator exists —
        which maintained levels each component has materialised (botjoin
        node count, topjoins, multiplicity tables).  These are the only
        maintained structures: ``method="path"`` reads use them too.
        Everything here is structural metadata, not query answers; the
        server's ``stats`` endpoint and ``repro explain`` both surface it.
        """
        with self._lock:
            maintained: List[Dict[str, object]] = []
            if self._evaluator is not None:
                for state in self._evaluator.component_states:
                    maintained.append(
                        {
                            "relations": list(state.query.relation_names),
                            "nodes": len(state.tree.node_ids),
                            "botjoins": len(state.botjoins),
                            "topjoins_materialised": state.topjoins_materialised,
                            "tables_materialised": list(
                                state.tables_materialised
                            ),
                        }
                    )
            return {
                "query": str(self._query),
                "backend": self.backend,
                "components": len(self._pairs),
                "is_path": self._is_path,
                "relation_cardinalities": {
                    name: self._db.relation(name).total_count()
                    for name in self._query.relation_names
                },
                "updates_applied": self._updates_applied,
                "evaluator_built": self._evaluator is not None,
                "cached_results": len(self._results),
                "cached_oracles": len(self._oracles),
                "maintained_components": maintained,
            }

    def fork(self) -> "PreparedQuery":
        """An independent session at this session's snapshot that shares
        its maintained structure.

        The fork shares the plan, the database snapshot and every
        maintained relation and table, and copies only the dicts a fold or
        a lazy build writes (:meth:`IncrementalEvaluator.fork`), so it
        costs O(nodes + tables) and keeps every botjoin, topjoin and
        table built so far.  It has its own lock and empty result
        caches.  An update, or a level built lazily, on either session
        leaves the other unchanged.  The serving layer folds each update
        batch into a fork of its head session and publishes the fork as
        the next epoch.
        """
        with self._lock:
            clone = copy.copy(self)
            clone._lock = threading.RLock()
            if self._evaluator is not None:
                clone._evaluator = self._evaluator.fork()
            clone._results = {}
            clone._oracles = {}
            return clone

    # -------------------------------------------------------------- releases
    def release(
        self,
        epsilon: float,
        mechanism: str = "tsensdp",
        primary: Optional[str] = None,
        accountant=None,
        rng=None,
        ell: Optional[int] = None,
        delta: float = 1e-6,
        clamp_nonnegative: bool = True,
        max_threshold: int = 4096,
    ):
        """Release ``|Q(D)|`` under ε-DP through one of the three mechanisms.

        A facade over :func:`repro.dp.tsensdp.run_tsens_dp`,
        :func:`repro.dp.flexdp.run_flex_dp` and
        :func:`repro.dp.privsql.run_privsql`.  TSensDP reads the session's
        cached truncation oracle (one probe of the primary on the
        maintained state), so repeated releases on an unchanged database
        skip all sensitivity work.  FlexDP and PrivSQL take the session's
        maintained count, so a release counts only an instance the
        session does not hold: PrivSQL's truncated one.

        Parameters
        ----------
        epsilon:
            Privacy budget for *this* release, a finite real > 0.
        mechanism:
            ``"tsensdp"`` (truncation at a learned threshold),
            ``"flexdp"`` (smooth elastic sensitivity, (ε, δ)-DP) or
            ``"privsql"`` (frequency-cap truncation via foreign keys).
        primary:
            The primary private relation.  Required.
        accountant:
            Optional :class:`~repro.dp.accountant.BudgetAccountant`
            tracking a *total* budget across releases; ``epsilon`` is
            drawn from it (raising
            :class:`~repro.exceptions.PrivacyBudgetError` on overdraft)
            before the mechanism runs.
        ell:
            Required public tuple-sensitivity bound, an integer >= 1 (tsensdp).
        delta:
            The δ of (ε, δ)-DP, a real in (0, 1) (flexdp only).
        clamp_nonnegative:
            Clamp the released count at 0 (free post-processing).
        max_threshold:
            Upper end of PrivSQL's frequency-cap scan, an integer >= 1 (privsql).

        Returns
        -------
        The mechanism's outcome object (``TSensDPOutcome`` /
        ``FlexDPOutcome`` / ``PrivSQLOutcome``), carrying the release in
        ``.answer`` plus non-private diagnostics.
        """
        if mechanism not in RELEASE_MECHANISMS:
            raise MechanismConfigError(
                f"unknown mechanism {mechanism!r} "
                f"(known: {', '.join(RELEASE_MECHANISMS)})"
            )
        if primary is None:
            raise MechanismConfigError(
                "release() needs primary=<private relation name>"
            )
        if primary not in self._query.relation_names:
            raise MechanismConfigError(
                f"primary {primary!r} is not a relation of {self._query.name}"
            )
        # Every pure-configuration check must precede the accountant spend:
        # a release that dies on bad config must not burn privacy budget.
        # repro.dp imports the one-shot API whose wrapper lives above this
        # module; import lazily to avoid an initialisation cycle.
        from repro.dp.primitives import validate_release

        validate_release(mechanism, epsilon, ell=ell, delta=delta, max_threshold=max_threshold)
        with self._lock:
            if accountant is not None:
                accountant.spend(epsilon, f"{mechanism}:{primary}")
            if mechanism == "tsensdp":
                from repro.dp.tsensdp import run_tsens_dp

                return run_tsens_dp(
                    self._query,
                    self._db,
                    primary,
                    epsilon,
                    ell,
                    tree=self.tree,
                    oracle=self.truncation_oracle(primary),
                    rng=rng,
                    clamp_nonnegative=clamp_nonnegative,
                )
            if mechanism == "flexdp":
                from repro.dp.flexdp import run_flex_dp

                return run_flex_dp(
                    self._query,
                    self._db,
                    primary,
                    epsilon,
                    delta=delta,
                    tree=self.tree,
                    rng=rng,
                    clamp_nonnegative=clamp_nonnegative,
                    true_count=self.count(),
                )
            from repro.dp.privsql import run_privsql

            return run_privsql(
                self._query,
                self._db,
                primary,
                epsilon,
                tree=self.tree,
                max_threshold=max_threshold,
                rng=rng,
                clamp_nonnegative=clamp_nonnegative,
                true_count=self.count(),
            )

    def truncation_oracle(self, primary: str):
        """The session's cached :class:`~repro.dp.truncation.TruncationOracle`
        for ``primary`` — per-tuple sensitivities, truncated counts across
        thresholds, and ``max_primary_sensitivity``.  Shared with
        ``release(mechanism="tsensdp")`` and invalidated on mutation.

        The oracle probes the primary's tuples and reads the count on this
        session's maintained state, so it builds no multiplicity table.
        """
        from repro.dp.truncation import TruncationOracle

        with self._lock:
            if primary not in self._oracles:
                self._oracles[primary] = TruncationOracle(
                    self._query, self._db, primary, tree=self.tree, session=self
                )
            return self._oracles[primary]

    # --------------------------------------------------------------- updates
    def insert(self, relation: str, row: Sequence[object]) -> int:
        """Commit ``D ← D ∪ {t}``; returns the maintained ``|Q(D)|``.

        The row folds into every maintained level (:meth:`apply`); cached
        results and oracles are invalidated.
        """
        return self._apply_parsed([(True, relation, tuple(row))])

    def delete(self, relation: str, row: Sequence[object]) -> int:
        """Commit ``D ← D \\ {t}`` (no-op when absent); returns ``|Q(D)|``."""
        return self._apply_parsed([(False, relation, tuple(row))])

    def apply(self, batch: Iterable[Update]) -> int:
        """Commit a stream of ``("insert"|"delete", relation, row)`` updates
        atomically; returns the maintained count after the whole batch.

        ``"+"`` / ``"-"`` are accepted as op shorthands.  The stream is
        *compacted* before execution — per relation, opposite-signed
        updates of the same tuple cancel (replaying the paper's
        clamped-delete semantics against the pre-batch database) and
        same-signed duplicates coalesce — and the surviving signed delta
        relations fold into every maintained structure in one vectorized
        pass each.  The batch is all-or-nothing: every element is
        validated up front, the folds are staged, and a failure anywhere
        (malformed element, unknown op or relation, count overflow)
        raises without committing — the session stays bit-identical to
        its pre-batch state.  On success :attr:`updates_applied` advances
        by the number of stream elements (compaction is an execution
        strategy, not a semantic change) and caches are invalidated once,
        not per element.
        """
        updates: List[Tuple[bool, str, Tuple[object, ...]]] = []
        for element in batch:
            try:
                op, relation, row = element
                row = tuple(row)
            except (TypeError, ValueError):
                raise SessionError(
                    f"malformed update {element!r}; expected (op, relation, row)"
                ) from None
            if op in _INSERT_OPS:
                insert = True
            elif op in _DELETE_OPS:
                insert = False
            else:
                raise SessionError(
                    f"unknown update op {op!r} (use 'insert' or 'delete')"
                )
            updates.append((insert, relation, row))
        return self._apply_parsed(updates)

    def _apply_parsed(
        self, updates: List[Tuple[bool, str, Tuple[object, ...]]]
    ) -> int:
        """Compact, validate, fold and commit a parsed update stream."""
        with self._lock:
            evaluator = self._ensure_evaluator()
            if not updates:
                return evaluator.base_count
            for _insert, relation, _row in updates:
                # Checked here (not just in the evaluator) because a batch
                # of absent-row deletes compacts to nothing and would
                # otherwise skip the evaluator's own validation.
                if relation not in self._query.relation_names:
                    raise UnknownRelationError(relation)
            deltas = compact_updates(evaluator.db, updates)
            count = evaluator.apply_batch(deltas)
            # Even a fully-cancelled batch committed: the database is
            # bitwise unchanged but the stream elements were applied.
            self._after_mutation(len(updates))
            return count

    def _after_mutation(self, n: int = 1) -> None:
        if self._evaluator is None:
            raise InternalError("mutation applied before the evaluator was built")
        self._db = self._evaluator.db
        self._updates_applied += n
        self._invalidate_caches()

    def _invalidate_caches(self) -> None:
        """Drop every cache keyed against the pre-mutation database.

        Lint rule R003 requires any method that rebinds the tracked
        database field to route through this helper, so a new cache can
        never be forgotten at one of the mutation sites.
        """
        self._results.clear()
        self._oracles.clear()
