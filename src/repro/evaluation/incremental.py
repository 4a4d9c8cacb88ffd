"""Incremental delta re-evaluation over cached join-tree counts.

The paper's re-evaluation strawman (Sections 4.1/5.2) answers "how does
``|Q(D)|`` change if tuple ``t`` is inserted into / deleted from ``R``?"
by re-running a full count-only Yannakakis pass per candidate — ``O(n)``
per probe, ``O(n)`` probes, which is why :mod:`repro.baselines.reeval`
historically had to sample.  Berkholz, Keppeler & Schweikardt ("Answering
FO+MOD queries under updates") observe that counting under single-tuple
updates only needs *delta propagation* over a materialized structure.
This module implements that idea on the repo's decomposition trees:

**Base structure (built once).**  Bind the tree and compute every botjoin
``K(v)`` (:func:`repro.evaluation.yannakakis.compute_botjoins`).  The
first *probe* additionally caches, for every non-root node ``v`` with
parent ``p``, the *sibling complement* ``J(v) = rel_p r̃join (r̃join of
K(c) for siblings c of v)`` — everything ``K(p)`` multiplies ``K(v)``
with.  Probe state is lazy so count-only users (sessions maintaining
``|Q(D)|`` under updates) never pay for it.

**Probe (per hypothetical update).**  ``|Q(D)|`` is multilinear in each
relation's multiplicity vector, so changing the multiplicity of ``t ∈ R``
by ``±1`` changes the count by exactly ``±w(t)`` where ``w(t)`` is the
number of join results (with multiplicity) one occurrence of ``t``
participates in.  ``w(t)`` is obtained by pushing the one-tuple delta
relation up the leaf-to-root path::

    ΔK(v)  = γ_{shared(v)} (Δrel_v r̃join ∏_c K(c))        (v's node)
    ΔK(p)  = γ_{shared(p)} (ΔK(v) r̃join J(v))              (each ancestor)
    w(t)   = ΔK(root).total_count()

Each probe therefore touches only the path from ``R``'s node to the root
— ``O(depth)`` small joins against cached relations instead of a full
re-evaluation, turning the re-evaluation baseline from ``O(runs · n)``
into ``O(updates)`` after one ``O(n)`` build.

**Batching.**  Probes are independent and propagation is linear, so a
whole batch propagates in *one* pass: the delta relation carries an extra
probe-id column (:data:`PROBE_ATTRIBUTE`) that joins ignore and group-bys
retain, keeping per-probe contributions separate.  On the columnar
backend the batch pass runs entirely inside the vectorized join/group-by
kernels — one numpy pass per tree edge for thousands of probes.

**Applied updates (streams).**  Beyond hypothetical probes, the evaluator
can *commit* updates: :meth:`IncrementalEvaluator.apply_insert` /
:meth:`~IncrementalEvaluator.apply_delete` fold the one-tuple delta into
the per-component :class:`~repro.evaluation.joinstate.JoinState` — the
maintained layer owning the botjoins (and, lazily, the topjoins and
multiplicity tables the sensitivity algorithms read) — recomputing only
the touched leaf-to-root path, no re-decomposition, no re-binding of
untouched relations, no visits to off-path subtrees.  Sibling
complements and within-node complements that the update invalidates are
merely *marked* stale and rebuilt lazily before the next probe, so a
stream of updates interleaved with count reads never pays for probe
state it does not use.  This is the engine behind
:class:`repro.session.PreparedQuery`'s mutation methods.

**Batched streams.**  A whole update stream compacts into per-relation
signed delta *relations* (:func:`compact_updates`: matching ``+t``/``-t``
pairs cancel, duplicate tuples coalesce into multiplicities) and
:meth:`IncrementalEvaluator.apply_batch` folds each delta relation into
the database and every maintained level in one vectorized pass per
relation side — the same leaf-to-root/root-to-leaf walks, but carrying a
bag of tuples instead of one.  The entire batch is staged then committed
across all components, so a mid-batch failure leaves the evaluator
bit-identical to its pre-batch state.

Deltas stay non-negative throughout (the update's sign factors out), so
both relation backends can represent them; columnar ``int64`` overflow
surfaces as :class:`~repro.exceptions.MultiplicityOverflowError`, exactly
as a full re-evaluation would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.database import Database
from repro.engine.operators import difference, group_by, join, union_all
from repro.engine.relation import Row
from repro.evaluation.joinstate import AppliedUpdate, JoinState, RelationDelta
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

    Single-tuple sides take the array-level ``add``/``remove`` fast path;
    larger sides go through one vectorized union/monus kernel pass.
    After compaction the two sides are tuple-disjoint, so the fold order
    is mathematically free — minus-first matches the staged join folds.
    """
    if delta.minus:
        if len(delta.minus) == 1:
            ((row, cnt),) = delta.minus.items()
            base = base.remove(row, cnt)
        else:
            base = difference(base, type(base)(base.schema, dict(delta.minus)))
    if delta.plus:
        if len(delta.plus) == 1:
            ((row, cnt),) = delta.plus.items()
            base = base.add(row, cnt)
        else:
            base = union_all([base, type(base)(base.schema, dict(delta.plus))])
    return base


@dataclass
class _Component:
    """Cached evaluation state for one connected component of the query.

    The join-tree structure itself (bound tree, botjoins, and — for
    sensitivity consumers — topjoins and multiplicity tables) lives in
    the component's maintained :class:`JoinState`; this wrapper adds the
    evaluator's probe-only caches and the cross-component multiplier.
    """

    state: JoinState
    #: product of the other components' counts (scales every delta).
    multiplier: int = 1
    #: ``v -> rel_{parent(v)} r̃join (r̃join of K(c) for siblings c of v)``.
    #: Built lazily on the first probe; see :meth:`_ensure_probe_state`.
    sibling_complement: Dict[str, object] = field(default_factory=dict)
    #: relation -> bag join of the *other* atoms in its node (GHD nodes).
    node_others: Dict[str, Optional[object]] = field(default_factory=dict)
    probe_ready: bool = False
    #: parents whose children's complements an applied update invalidated.
    stale_parents: Set[str] = field(default_factory=set)
    #: multi-atom nodes whose ``node_others`` an applied update invalidated.
    stale_other_nodes: Set[str] = field(default_factory=set)

    @property
    def query(self) -> ConjunctiveQuery:
        return self.state.query

    @property
    def bound(self):
        return self.state.bound

    @property
    def botjoins(self) -> Dict[str, object]:
        return self.state.botjoins

    @property
    def count(self) -> int:
        return self.state.count


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
        ``apply_insert`` / ``apply_delete`` commit updates, after which
        :attr:`db` reflects the mutated instance.
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
    >>> ev.apply_insert("S", (2, 9))
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
        self._components: List[_Component] = []
        self._component_of: Dict[str, int] = {}
        if component_pairs is None:
            component_pairs = _component_trees(query, tree, max_width)
        for sub, sub_tree in component_pairs:
            component = self._build_component(sub, sub_tree, db)
            index = len(self._components)
            self._components.append(component)
            for relation in sub.relation_names:
                self._component_of[relation] = index
        self._commit_totals()

    # -------------------------------------------------------------- building
    @staticmethod
    def _build_component(
        sub: ConjunctiveQuery,
        sub_tree: DecompositionTree,
        db: Database,
    ) -> _Component:
        return _Component(state=JoinState(sub, sub_tree, db))

    @staticmethod
    def _edge_complements(
        component: _Component, parent: str
    ) -> Dict[str, object]:
        """Sibling complements for every child of ``parent``.

        Prefix/suffix products keep this linear in the child count even
        for high-degree nodes.
        """
        bound, botjoins = component.bound, component.botjoins
        children = bound.tree.children(parent)
        out: Dict[str, object] = {}
        if not children:
            return out
        base = bound.relation(parent)
        prefix = [base]
        for child in children[:-1]:
            prefix.append(join(prefix[-1], botjoins[child]))
        suffix: List[Optional[object]] = [None] * len(children)
        for i in range(len(children) - 2, -1, -1):
            nxt = botjoins[children[i + 1]]
            suffix[i] = nxt if suffix[i + 1] is None else join(nxt, suffix[i + 1])
        for i, child in enumerate(children):
            complement = prefix[i]
            if suffix[i] is not None:
                complement = join(complement, suffix[i])
            out[child] = complement
        return out

    @staticmethod
    def _node_other_complements(
        component: _Component, node_id: str
    ) -> Dict[str, Optional[object]]:
        """Within-node complements for the relations of one (GHD) node."""
        bound = component.bound
        node = bound.tree.node(node_id)
        out: Dict[str, Optional[object]] = {}
        for relation in node.relations:
            others = [r for r in node.relations if r != relation]
            if not others:
                out[relation] = None
                continue
            acc = bound.atom_relation(others[0])
            for other in others[1:]:
                acc = join(acc, bound.atom_relation(other))
            out[relation] = acc
        return out

    def _ensure_probe_state(self, component: _Component) -> None:
        """Build (or refresh the stale parts of) the probe-only caches."""
        tree = component.bound.tree
        if not component.probe_ready:
            component.sibling_complement = {}
            component.node_others = {}
            for parent in tree.node_ids:
                component.sibling_complement.update(
                    self._edge_complements(component, parent)
                )
                component.node_others.update(
                    self._node_other_complements(component, parent)
                )
            component.probe_ready = True
        else:
            for parent in sorted(component.stale_parents):
                component.sibling_complement.update(
                    self._edge_complements(component, parent)
                )
            for node_id in sorted(component.stale_other_nodes):
                component.node_others.update(
                    self._node_other_complements(component, node_id)
                )
        component.stale_parents.clear()
        component.stale_other_nodes.clear()

    def _commit(self, new_db: Database) -> None:
        """Fold a fully-staged update into committed state.

        Rebinding the database and refreshing the derived totals happen
        here and nowhere else (enforced by lint rule R002), so no fallible
        staging step can leave them disagreeing."""
        self._db = new_db
        self._commit_totals()

    def _commit_totals(self) -> None:
        total = 1
        for component in self._components:
            total *= component.count
        self._base_count = total
        for i, component in enumerate(self._components):
            multiplier = 1
            for j, other in enumerate(self._components):
                if j != i:
                    multiplier *= other.count
            component.multiplier = multiplier

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
        return tuple(component.state for component in self._components)

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
        """``w(t)`` for every probe tuple, via one shared propagation pass.

        All probes ride a single delta relation tagged with a probe-id
        column, so the cost is one leaf-to-root pass regardless of the
        batch size — on the columnar backend every step is a vectorized
        kernel call.
        """
        if relation not in self._component_of:
            raise UnknownRelationError(relation)
        rows = [tuple(row) for row in rows]
        if not rows:
            return []
        component = self._components[self._component_of[relation]]
        if component.multiplier == 0:
            # Arity checks must still run for a consistent error surface.
            self._check_probe_arity(component, relation, rows)
            return [0] * len(rows)
        self._ensure_probe_state(component)
        probe = self._probe_relation(component, relation, rows)
        collapsed = self._propagate(component, relation, probe)
        per_probe = {key[0]: cnt for key, cnt in collapsed.items()}
        return [
            per_probe.get(i, 0) * component.multiplier for i in range(len(rows))
        ]

    def count_after_insert(self, relation: str, row: Sequence[object]) -> int:
        """``|Q(D ∪ {t})|`` without re-evaluating."""
        return self._base_count + self.delta(relation, tuple(row))

    def count_after_delete(self, relation: str, row: Sequence[object]) -> int:
        """``|Q(D \\ {t})|`` without re-evaluating.

        Deleting an absent tuple is a no-op (the paper's ``D \\ {t}``
        semantics), so the base count is returned unchanged in that case.
        """
        row = tuple(row)
        if self._db.relation(relation).multiplicity(row) == 0:
            return self._base_count
        return self._base_count - self.delta(relation, row)

    # -------------------------------------------------------- applied updates
    def apply_insert(self, relation: str, row: Sequence[object]) -> int:
        """Commit ``D ← D ∪ {t}`` and return the maintained ``|Q(D)|``.

        Only the botjoins on the path from ``relation``'s node to its
        component root are recomputed; probe-only caches the update
        invalidates are marked stale and refreshed on the next probe.
        """
        return self._apply(relation, tuple(row), insert=True)

    def apply_delete(self, relation: str, row: Sequence[object]) -> int:
        """Commit ``D ← D \\ {t}`` and return the maintained ``|Q(D)|``.

        Deleting an absent tuple is a no-op, matching ``D \\ {t}``.
        """
        row = tuple(row)
        if relation not in self._component_of:
            raise UnknownRelationError(relation)
        if self._db.relation(relation).multiplicity(row) == 0:
            component = self._components[self._component_of[relation]]
            self._check_probe_arity(component, relation, [row])
            return self._base_count
        return self._apply(relation, row, insert=False)

    def _apply(self, relation: str, row: Row, insert: bool) -> int:
        delta = RelationDelta(
            relation,
            {row: 1} if insert else {},
            {} if insert else {row: 1},
        )
        return self.apply_batch([delta])

    def apply_batch(self, deltas: Sequence[RelationDelta]) -> int:
        """Commit a compacted batch of delta relations atomically.

        The batch folds into every maintained structure in one vectorized
        pass per touched relation side: the database relations are patched
        via union/monus, then each touched component's
        :class:`JoinState` stages the whole batch against an overlay.
        Validation and every fallible step (including columnar ``int64``
        overflow anywhere on a delta path) run before the first cache
        mutation, so a raising batch leaves the evaluator — counts and
        sensitivity state — bit-identical to its pre-batch value.
        Returns the maintained ``|Q(D)|``.
        """
        deltas = [delta for delta in deltas if not delta.is_empty()]
        if not deltas:
            return self._base_count
        # ---- validate the whole batch before touching anything
        for delta in deltas:
            if delta.relation not in self._component_of:
                raise UnknownRelationError(delta.relation)
            component = self._components[self._component_of[delta.relation]]
            self._check_probe_arity(
                component, delta.relation, list(delta.plus) + list(delta.minus)
            )
        for delta in deltas:
            if not delta.minus:
                continue
            rows = list(delta.minus)
            have = self._db.relation(delta.relation).multiplicities(rows)
            for row, available in zip(rows, have):
                if delta.minus[row] > available:
                    raise SessionError(
                        f"delta deletes {delta.minus[row]} of {row!r} from "
                        f"{delta.relation!r} but only {available} exist; "
                        "compact the update stream against the current "
                        "database first"
                    )
        # ---- stage (all fallible): patched database + join-state overlays
        new_db = self._db
        for delta in deltas:
            new_db = new_db.with_relation(
                delta.relation,
                _patched_relation(new_db.relation(delta.relation), delta),
            )
        by_component: Dict[int, List[RelationDelta]] = {}
        for delta in deltas:
            by_component.setdefault(
                self._component_of[delta.relation], []
            ).append(delta)
        stagings = [
            (
                self._components[index],
                self._components[index].state.stage_update_batch(group),
            )
            for index, group in by_component.items()
        ]
        # ---- commit (nothing below raises)
        touched_columns: Set[str] = set()
        for component, staging in stagings:
            touched_columns.update(staging.touched_columns)
            for report in component.state.commit_update_batch(staging):
                self._mark_probe_caches_stale(component, report)
        # Witness extrapolation reads representative domains across the
        # whole database, so *every* component's cached witnesses can go
        # stale when they share a base column name with a touched relation
        # (the touched components already dropped their own at commit).
        for component in self._components:
            component.state.drop_domain_dependent_witnesses(touched_columns)
        self._commit(new_db)
        return self._base_count

    @staticmethod
    def _mark_probe_caches_stale(
        component: _Component, report: AppliedUpdate
    ) -> None:
        """Invalidate the probe-only complements an applied update moved."""
        if report.filtered:
            return  # filtered out before the join: no cached state moved
        tree = component.state.tree
        if report.node_multi_atom:
            component.stale_other_nodes.add(report.node_id)
        if tree.children(report.node_id):
            # rel_node changed: every child-edge complement under the node
            # embeds it, whether or not the botjoin delta survives below.
            component.stale_parents.add(report.node_id)
        for changed in report.changed_botjoins:
            parent = tree.parent(changed)
            if parent is not None:
                # changed's botjoin moved: its siblings' complements (and
                # the parent's other child edges) are stale; changed's own
                # complement does not involve it.
                component.stale_parents.add(parent)

    # ----------------------------------------------------------- propagation
    @staticmethod
    def _check_probe_arity(
        component: _Component, relation: str, rows: Sequence[Row]
    ) -> None:
        atom = component.query.atom(relation)
        for row in rows:
            if len(row) != atom.arity:
                raise SchemaError(
                    f"probe {row!r} has arity {len(row)}, atom {atom} "
                    f"expects {atom.arity}"
                )

    def _probe_relation(
        self, component: _Component, relation: str, rows: Sequence[Row]
    ):
        """The tagged delta relation: one row per probe, selection applied."""
        self._check_probe_arity(component, relation, rows)
        atom = component.query.atom(relation)
        attributes = list(atom.variables) + [PROBE_ATTRIBUTE]
        relation_cls = type(self._db.relation(relation))
        counts = {row + (index,): 1 for index, row in enumerate(rows)}
        probe = relation_cls(attributes, counts)
        predicate = component.query.selections.get(relation)
        if predicate is not None:
            probe = probe.filter(predicate)
        return probe

    def _propagate(self, component: _Component, relation: str, probe):
        """Push the tagged delta from ``relation``'s node to the root.

        Every join partner's attributes are contained in the current
        node's attribute set, so the delta never grows columns beyond
        ``A_v ∪ {probe}`` and shrinks to the parent-shared attributes at
        each group-by — the per-probe work is bounded by the path, not
        the database.
        """
        tree = component.bound.tree
        node_id = tree.node_of_relation(relation)
        delta = probe
        others = component.node_others[relation]
        if others is not None:
            delta = join(delta, others)
        for child in tree.children(node_id):
            delta = join(delta, component.botjoins[child])
        delta = group_by(
            delta, sorted(tree.shared_with_parent(node_id)) + [PROBE_ATTRIBUTE]
        )
        while tree.parent(node_id) is not None:
            parent = tree.parent(node_id)
            delta = join(delta, component.sibling_complement[node_id])
            delta = group_by(
                delta, sorted(tree.shared_with_parent(parent)) + [PROBE_ATTRIBUTE]
            )
            node_id = parent
        return delta
