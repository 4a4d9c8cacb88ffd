"""Incremental delta re-evaluation over cached join-tree counts.

The paper's re-evaluation strawman (Sections 4.1/5.2) answers "how does
``|Q(D)|`` change if tuple ``t`` is inserted into / deleted from ``R``?"
by re-running a full count-only Yannakakis pass per candidate — ``O(n)``
per probe, ``O(n)`` probes, which is why :mod:`repro.baselines.reeval`
historically had to sample.  Berkholz, Keppeler & Schweikardt ("Answering
FO+MOD queries under updates") observe that counting under single-tuple
updates only needs *delta propagation* over a materialized structure.
This module implements that idea on the repo's decomposition trees:

**Base structure.**  Bind the tree and compute every botjoin ``K(v)``
(:func:`repro.evaluation.yannakakis.compute_botjoins`) in the
component's maintained :class:`~repro.evaluation.joinstate.JoinState`.
The first *probe* also materialises that state's topjoins ``J(v)`` —
the join of everything outside ``v``'s subtree, grouped on the
attributes ``v`` shares with its parent — which the TSens tables read
too.  Topjoins are lazy, so count-only users (sessions maintaining
``|Q(D)|`` under updates) never pay for them.

**Probe (per hypothetical update).**  ``|Q(D)|`` is multilinear in each
relation's multiplicity vector, so changing the multiplicity of ``t ∈ R``
by ``±1`` changes the count by exactly ``±w(t)`` where ``w(t)`` is the
number of join results (with multiplicity) one occurrence of ``t``
participates in — the paper's tuple sensitivity ``T^R[t]`` (Sec. 5,
Eqn. 6).  With ``v`` the node holding ``R``::

    ΔK(v) = γ_{shared(v)} (Δt r̃join (v's other atoms) r̃join ∏_c K(c))
    w(t)  = γ_∅ (ΔK(v) r̃join J(v))            (the root has no J: w(t) = ΔK(v))

Each probe is one short join chain at ``R``'s node against maintained
relations instead of a full re-evaluation, turning the re-evaluation
baseline from ``O(runs · n)`` into ``O(updates)`` after one ``O(n)``
build.

**Batching.**  Probes are independent and the chain is linear, so a
whole batch runs it *once*: the delta relation carries an extra
probe-id column (:data:`PROBE_ATTRIBUTE`) that joins ignore and group-bys
retain, keeping per-probe contributions separate.  On the columnar
backend the batch runs entirely inside the vectorized join/group-by
kernels — a handful of numpy passes for thousands of probes.

**Applied updates.**  Beyond hypothetical probes, the evaluator can
*commit* updates.  A whole update stream compacts into per-relation
signed delta *relations* (:func:`compact_updates`: matching ``+t``/``-t``
pairs cancel, duplicate tuples coalesce into multiplicities) and
:meth:`IncrementalEvaluator.apply_batch` folds each delta relation into
the database and into the per-component
:class:`~repro.evaluation.joinstate.JoinState` — the maintained layer
owning the botjoins (and, lazily, the topjoins and multiplicity tables
the sensitivity algorithms and probes read) — in one vectorized pass per
relation side, with no re-decomposition and no re-binding of untouched
relations.  Probes read that folded state directly.  Each touched
component folds the batch into a fork of its state, and the components
adopt their forks only once every fork has folded, so a mid-batch failure
leaves the evaluator bit-identical to its pre-batch state.  This is the
engine behind :class:`repro.session.PreparedQuery`'s mutation methods.

Deltas stay non-negative throughout (the update's sign factors out), so
both relation backends can represent them; columnar ``int64`` overflow
surfaces as :class:`~repro.exceptions.MultiplicityOverflowError`, exactly
as a full re-evaluation would.
"""

from __future__ import annotations

import copy
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.database import Database
from repro.engine.operators import group_by, join, patch
from repro.engine.relation import Row
from repro.evaluation.joinstate import JoinState, RelationDelta, _overflow_named
from repro.evaluation.yannakakis import _component_trees
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.jointree import DecompositionTree
from repro.exceptions import SchemaError, SessionError, UnknownRelationError

#: Reserved column name carrying the probe index through a batch pass.
PROBE_ATTRIBUTE = "__probe__"


def compact_updates(
    db: Database, updates: Sequence[Tuple[bool, str, Row]]
) -> List[RelationDelta]:
    """Compact an ordered update stream into per-relation signed deltas.

    ``updates`` is a sequence of ``(insert, relation, row)`` triples in
    application order.  Compaction replays each tuple's sign sequence
    against its pre-batch database multiplicity with the same clamping
    the sequential path applies (deleting an absent occurrence is a
    no-op), then keeps only the *net* change — matching ``+t``/``-t``
    pairs cancel and duplicate inserts coalesce into one multiplicity.
    The result is one :class:`RelationDelta` per touched relation (in
    first-touch order) whose tuples are single-signed and whose minus
    counts never exceed the pre-batch multiplicity, which is what makes
    bag monus an exact delta downstream.  Cross-relation order is
    irrelevant: every derived structure is multilinear in each relation's
    multiplicity vector, so per-relation nets commute.
    """
    by_relation: Dict[str, Dict[Row, List[bool]]] = {}
    for insert, relation, row in updates:
        signs_of = by_relation.setdefault(relation, {})
        signs_of.setdefault(tuple(row), []).append(insert)
    deltas: List[RelationDelta] = []
    for relation, signs_of in by_relation.items():
        base = db.relation(relation)
        plus: Dict[Row, int] = {}
        minus: Dict[Row, int] = {}
        mixed = [row for row, signs in signs_of.items() if not all(signs)]
        starts = dict(zip(mixed, base.multiplicities(mixed)))
        for row, signs in signs_of.items():
            if all(signs):
                # Pure inserts never clamp: net is just the count, no
                # multiplicity lookup needed.
                plus[row] = len(signs)
                continue
            start = current = starts[row]
            for sign in signs:
                if sign:
                    current += 1
                elif current > 0:
                    current -= 1
            net = current - start
            if net > 0:
                plus[row] = net
            elif net < 0:
                minus[row] = -net
        if plus or minus:
            deltas.append(RelationDelta(relation, plus, minus))
    return deltas


def _patched_relation(base, delta: RelationDelta):
    """``base`` with ``delta`` folded in (minus first, then plus).

    Each side is one :func:`~repro.engine.operators.patch`, whatever its
    size — on the columnar backend the database relation's rows stay in
    code order and the patch costs a lookup of the delta rows plus a copy
    of the arrays it changes.  After compaction the two sides are
    tuple-disjoint, so the fold order is mathematically free —
    minus-first matches the staged join folds.

    The monus drops exactly the minus side's total count if and only if
    no row loses more copies than ``base`` holds, so that comparison is
    the over-delete guard; the rows are looked up only to name the
    offending one.
    """
    for rows, insert in ((delta.minus, False), (delta.plus, True)):
        if not rows:
            continue
        patched = patch(base, type(base)(base.schema, dict(rows)), insert)
        if not insert and (
            base.total_count() - patched.total_count() != sum(rows.values())
        ):
            deleted = list(rows)
            for row, available in zip(deleted, base.multiplicities(deleted)):
                if rows[row] > available:
                    raise SessionError(
                        f"delta deletes {rows[row]} of {row!r} from "
                        f"{delta.relation!r} but only {available} exist; "
                        "compact the update stream against the current "
                        "database first"
                    )
        base = patched
    return base


class IncrementalEvaluator:
    """Answer count-update probes, and apply update streams, from cached
    join-tree state.

    Parameters
    ----------
    query:
        Full conjunctive query (any shape; disconnected queries are
        handled per component with cross-product multipliers).
    db:
        The database instance the cache is built over.  ``delta`` probes
        are hypothetical and leave the evaluator untouched;
        :meth:`apply_batch` commits updates, after which :attr:`db`
        reflects the mutated instance.
    tree:
        Decomposition override for connected queries (defaults to GYO /
        automatic GHD, like the rest of the evaluation stack).
    max_width:
        GHD node-size cap for the automatic decomposition of cyclic
        queries (ignored when ``tree`` is given).
    component_pairs:
        Advanced: pre-decomposed ``(subquery, tree)`` pairs, one per
        connected component, as produced by the session layer's prepare
        step.  Skips re-deriving the decomposition; overrides ``tree``.

    Examples
    --------
    >>> from repro.engine import Database, Relation
    >>> from repro.query import parse_query
    >>> q = parse_query("Q(A,B,C) :- R(A,B), S(B,C)")
    >>> db = Database({
    ...     "R": Relation(["A", "B"], [(1, 2), (3, 2)]),
    ...     "S": Relation(["B", "C"], [(2, 4)]),
    ... })
    >>> ev = IncrementalEvaluator(q, db)
    >>> ev.base_count
    2
    >>> ev.delta("S", (2, 9))     # inserting (2,9) adds both R tuples
    2
    >>> ev.apply_batch(compact_updates(ev.db, [(True, "S", (2, 9))]))
    4
    >>> ev.delta_batch("R", [(1, 2), (5, 5)])
    [2, 0]
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        db: Database,
        tree: Optional[DecompositionTree] = None,
        max_width: int = 3,
        component_pairs: Optional[
            Sequence[Tuple[ConjunctiveQuery, DecompositionTree]]
        ] = None,
    ):
        query.validate_against(db)
        if PROBE_ATTRIBUTE in query.variables:
            raise SchemaError(
                f"query variable {PROBE_ATTRIBUTE!r} collides with the "
                "reserved probe column"
            )
        self._query = query
        self._db = db
        #: One maintained state per connected component, in component order.
        self._states: List[JoinState] = []
        self._component_of: Dict[str, int] = {}
        if component_pairs is None:
            component_pairs = _component_trees(query, tree, max_width)
        for sub, sub_tree in component_pairs:
            for relation in sub.relation_names:
                self._component_of[relation] = len(self._states)
            self._states.append(JoinState(sub, sub_tree, db))
        self._commit_totals()

    def fork(self) -> "IncrementalEvaluator":
        """A copy over the same database whose component states are
        :meth:`JoinState.fork` copies: a batch applied to either leaves
        the other unchanged."""
        clone = copy.copy(self)
        clone._states = [state.fork() for state in self._states]
        return clone

    def _commit(self, new_db: Database) -> None:
        """Fold a fully-staged update into committed state.

        Rebinding the database and refreshing the derived totals happen
        here and nowhere else (enforced by lint rule R002), so no fallible
        staging step can leave them disagreeing."""
        self._db = new_db
        self._commit_totals()

    def _commit_totals(self) -> None:
        self._base_count = math.prod(state.count for state in self._states)

    def _multiplier(self, index: int) -> int:
        """The product of the other components' counts, which scales every
        delta of component ``index``."""
        return math.prod(
            state.count for other, state in enumerate(self._states) if other != index
        )

    # ------------------------------------------------------------- accessors
    @property
    def query(self) -> ConjunctiveQuery:
        return self._query

    @property
    def db(self) -> Database:
        """The database the cached state currently reflects (tracks
        applied updates)."""
        return self._db

    @property
    def base_count(self) -> int:
        """``|Q(D)|`` on the current (post-update) database (cached)."""
        return self._base_count

    @property
    def component_states(self) -> Tuple[JoinState, ...]:
        """The maintained :class:`JoinState` of every connected component,
        in component order.  The sensitivity algorithms consume these
        directly, so session reads after updates reuse the folded
        botjoins/topjoins/tables instead of rebuilding them."""
        return tuple(self._states)

    # ----------------------------------------------------------------- probes
    def delta(self, relation: str, row: Sequence[object]) -> int:
        """``w(t)`` — the count change magnitude of a ``±1`` update of ``row``.

        Inserting one occurrence of ``row`` into ``relation`` yields
        ``base_count + delta``; deleting one *existing* occurrence yields
        ``base_count - delta``.  Tuples that fail the relation's selection
        predicate or join nothing have delta 0.
        """
        return self.delta_batch(relation, [row])[0]

    def delta_batch(
        self, relation: str, rows: Sequence[Sequence[object]]
    ) -> List[int]:
        """``w(t)`` for every probe tuple, via one shared join chain.

        All probes ride a single delta relation tagged with a probe-id
        column, so the cost is one join chain at the relation's node
        regardless of the batch size — on the columnar backend every step
        is a vectorized kernel call.
        """
        if relation not in self._component_of:
            raise UnknownRelationError(relation)
        rows = [tuple(row) for row in rows]
        if not rows:
            return []
        index = self._component_of[relation]
        state = self._states[index]
        multiplier = self._multiplier(index)
        if multiplier == 0:
            # Arity checks must still run for a consistent error surface.
            self._check_probe_arity(state, relation, rows)
            return [0] * len(rows)
        probe = self._probe_relation(state, relation, rows)
        collapsed = self._propagate(state, relation, probe)
        per_probe = {key[0]: cnt for key, cnt in collapsed.items()}
        return [per_probe.get(i, 0) * multiplier for i in range(len(rows))]

    # -------------------------------------------------------- applied updates
    def apply_batch(self, deltas: Sequence[RelationDelta]) -> int:
        """Commit a compacted batch of delta relations atomically.

        The batch folds into every maintained structure in one vectorized
        pass per touched relation side: each database relation takes one
        :func:`~repro.engine.operators.patch` per side, then each touched
        component's :class:`JoinState` folds its deltas into a fork
        (:meth:`JoinState.stage_update_batch`), patching every maintained
        relation the same way.  An ``int64`` overflow names the structure
        it hit (``relation 'R'`` for the database relation itself).
        Validation and every fallible step (including columnar ``int64``
        overflow anywhere on a delta path) run before any component
        adopts its fork, so a raising batch leaves the evaluator — counts
        and sensitivity state — bit-identical to its pre-batch value.
        Returns the maintained ``|Q(D)|``.
        """
        deltas = [delta for delta in deltas if not delta.is_empty()]
        if not deltas:
            return self._base_count
        # ---- validate the whole batch before touching anything
        for delta in deltas:
            if delta.relation not in self._component_of:
                raise UnknownRelationError(delta.relation)
            state = self._states[self._component_of[delta.relation]]
            self._check_probe_arity(
                state, delta.relation, list(delta.plus) + list(delta.minus)
            )
        # ---- stage (all fallible, over-deletes too): patched database +
        # join-state forks
        new_db = self._db
        for delta in deltas:
            with _overflow_named(f"relation {delta.relation!r}"):
                patched = _patched_relation(new_db.relation(delta.relation), delta)
            new_db = new_db.with_relation(delta.relation, patched)
        by_component: Dict[int, List[RelationDelta]] = {}
        for delta in deltas:
            by_component.setdefault(
                self._component_of[delta.relation], []
            ).append(delta)
        works = {
            index: self._states[index].stage_update_batch(group)
            for index, group in by_component.items()
        }
        # ---- commit (nothing below raises)
        for index, work in works.items():
            self._states[index].commit_update_batch(work)
        # Witness extrapolation reads representative domains across the
        # whole database, so *every* component's cached witnesses can go
        # stale when they share a base column name with a touched relation
        # (each touched component already dropped its own in its fork).
        touched_columns = set()
        for delta in deltas:
            touched_columns.update(self._db.relation(delta.relation).schema.attributes)
        for state in self._states:
            state.drop_domain_dependent_witnesses(touched_columns)
        self._commit(new_db)
        return self._base_count

    # ----------------------------------------------------------- propagation
    @staticmethod
    def _check_probe_arity(
        state: JoinState, relation: str, rows: Sequence[Row]
    ) -> None:
        atom = state.query.atom(relation)
        for row in rows:
            if len(row) != atom.arity:
                raise SchemaError(
                    f"probe {row!r} has arity {len(row)}, atom {atom} "
                    f"expects {atom.arity}"
                )

    def _probe_relation(
        self, state: JoinState, relation: str, rows: Sequence[Row]
    ):
        """The tagged delta relation: one row per probe, selection applied."""
        self._check_probe_arity(state, relation, rows)
        atom = state.query.atom(relation)
        attributes = list(atom.variables) + [PROBE_ATTRIBUTE]
        relation_cls = type(self._db.relation(relation))
        counts = {row + (index,): 1 for index, row in enumerate(rows)}
        probe = relation_cls(attributes, counts)
        predicate = state.query.selections.get(relation)
        if predicate is not None:
            probe = probe.filter(predicate)
        return probe

    @staticmethod
    def _propagate(state: JoinState, relation: str, probe):
        """``w(t)`` per probe id: ``T^R`` evaluated at the tagged probes.

        The probe joins the other atoms of ``relation``'s node ``v`` and
        its children's botjoins, groups on the attributes ``v`` shares
        with its parent, then joins the maintained topjoin ``J(v)`` (the
        root has none).  Every join partner's attributes lie inside
        ``A_v``, so the delta never grows beyond ``A_v ∪ {probe}``.
        """
        tree = state.tree
        node_id = tree.node_of_relation(relation)
        delta = probe
        for other in tree.node(node_id).relations:
            if other != relation:
                delta = join(delta, state.bound.atom_relation(other))
        for child in tree.children(node_id):
            delta = join(delta, state.botjoins[child])
        delta = group_by(
            delta, sorted(tree.shared_with_parent(node_id)) + [PROBE_ATTRIBUTE]
        )
        top = state.topjoins()[node_id]
        if top is not None:
            delta = group_by(join(delta, top), [PROBE_ATTRIBUTE])
        return delta
