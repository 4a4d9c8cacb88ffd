"""Maintained join-state for TSens: botjoins, topjoins and multiplicity
tables that survive committed updates.

The TSens pipeline over one connected component is a chain of derived
structures (paper Sec. 5): bind the decomposition tree, compute botjoins
``K(v)`` bottom-up, topjoins ``J(v)`` top-down, then per-relation
multiplicity tables ``T^i`` whose max entry is the local sensitivity.
Historically each sensitivity read rebuilt the whole chain even though the
session layer already maintained the botjoins under single-tuple updates.
A :class:`JoinState` owns the *entire* chain and keeps every level
consistent under committed updates:

* **Botjoins** are folded along the leaf-to-root path of the updated
  relation's node, exactly as before (bag union for inserts, monus for
  deletes — monus is exact because a delete's delta never exceeds the
  removed tuple's own contribution).
* **Topjoins** are the mirror image.  ``J(v)`` is the complement of
  ``v``'s subtree, so an update at node ``u`` leaves ``J`` unchanged on
  the whole ``u``-to-root path and changes it *everywhere else* — but
  each changed node has exactly one changed input (``rel_u`` for ``u``'s
  children, ``ΔK(path child)`` for siblings of path nodes, ``ΔJ(parent)``
  below), so the delta propagates root-to-leaf through small joins
  against cached relations, never re-joining full inputs.
* **Multiplicity tables** are stored factored by attribute-connected
  components (the same layout the one-shot algorithm uses).  An update
  changes exactly one input part of each table — the updated atom for
  co-located relations, the path-child botjoin for tables on the path,
  the node's topjoin everywhere else — so only the one factor containing
  that part is patched (``factor ± γ(Δpart ⋈ other parts)``); all other
  factors are reused as-is.

Every level below the botjoins is **lazy**: a count-only consumer never
materialises topjoins or tables, and an update folds deltas only into
the structures that exist.  All fallible delta math (including columnar
``int64`` overflow) is *staged* against pre-update state and committed in
one non-raising sweep, so a raising update leaves the state untouched.

Layering: this module sits in ``evaluation`` and only imports the result
types from :mod:`repro.core.result`; the algorithm layer
(:mod:`repro.core.acyclic` and friends) consumes a :class:`JoinState` —
one-shot callers build a throwaway instance, sessions keep one alive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.engine.database import Database
from repro.engine.operators import difference, group_by, join, join_all, union_all
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.evaluation.yannakakis import (
    BoundTree,
    bind,
    bound_delta,
    compute_botjoins,
    compute_topjoins,
)
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.jointree import DecompositionTree
from repro.core.result import MultiplicityTable
from repro.exceptions import InternalError, QueryStructureError


def effective_attributes(
    query: ConjunctiveQuery, relation: str
) -> Tuple[str, ...]:
    """Attributes of ``relation`` shared with at least one other atom."""
    atom = query.atom(relation)
    exclusive = set(query.exclusive_variables(relation))
    return tuple(v for v in atom.variables if v not in exclusive)


@dataclass(frozen=True)
class _TablePart:
    """One symbolic input of a multiplicity table.

    ``kind`` is ``"top"`` (the node's topjoin), ``"bot"`` (a child's
    botjoin) or ``"atom"`` (another relation materialised in the same
    node); ``key`` is the node id or relation name respectively.
    """

    kind: str
    key: str


@dataclass(frozen=True)
class _TableComponent:
    """One attribute-connected factor of a table: its parts, in join
    order, and the effective attributes the factor is grouped on."""

    parts: Tuple[_TablePart, ...]
    effective: Tuple[str, ...]


@dataclass(frozen=True)
class TableLayout:
    """Symbolic shape of one relation's multiplicity table.

    The layout depends only on the query and the decomposition — never on
    the data — so it is computed once and reused to both build the table
    and locate the single factor an update touches.
    """

    relation: str
    node_id: str
    effective: Tuple[str, ...]
    components: Tuple[_TableComponent, ...]


def table_layout(
    query: ConjunctiveQuery, tree: DecompositionTree, relation: str
) -> TableLayout:
    """The factored shape of ``relation``'s table ``T^i`` (paper Eqn. 6).

    Groups the table's inputs — topjoin, child botjoins, co-located atoms
    — into attribute-connected components with the same greedy sweep the
    one-shot algorithm applied to the materialised relations, so the
    factorisation (and therefore every downstream argmax/tie-break) is
    bit-identical whether the table is built fresh or maintained.
    """
    node_id = tree.node_of_relation(relation)
    parts: List[Tuple[_TablePart, Tuple[str, ...]]] = []
    if node_id != tree.root:
        parts.append(
            (
                _TablePart("top", node_id),
                tuple(sorted(tree.shared_with_parent(node_id))),
            )
        )
    for child in tree.children(node_id):
        parts.append(
            (_TablePart("bot", child), tuple(sorted(tree.shared_with_parent(child))))
        )
    for other in tree.node(node_id).relations:
        if other != relation:
            parts.append(
                (_TablePart("atom", other), tuple(query.atom(other).variables))
            )
    effective = effective_attributes(query, relation)

    remaining = list(parts)
    components: List[_TableComponent] = []
    covered: List[str] = []
    while remaining:
        seed_part, seed_attrs = remaining.pop(0)
        group = [seed_part]
        attrs = set(seed_attrs)
        changed = True
        while changed:
            changed = False
            for other in list(remaining):
                if attrs & set(other[1]):
                    group.append(other[0])
                    attrs |= set(other[1])
                    remaining.remove(other)
                    changed = True
        component_effective = tuple(a for a in effective if a in attrs)
        covered.extend(component_effective)
        components.append(_TableComponent(tuple(group), component_effective))
    missing = [a for a in effective if a not in covered]
    if missing and parts:
        raise QueryStructureError(
            f"multiplicity table for {relation!r} is missing attributes "
            f"{missing}; the decomposition does not cover the query"
        )
    return TableLayout(relation, node_id, effective, tuple(components))


def build_table(
    layout: TableLayout,
    part_value: Callable[[_TablePart], Relation],
) -> MultiplicityTable:
    """Materialise a table from its layout and a part-resolving callback."""
    if not layout.components:
        # Single-relation query: Q(D) = R, every tuple has sensitivity 1.
        table = Relation(
            Schema(layout.effective), {(): 1} if not layout.effective else {}
        )
        return MultiplicityTable(layout.relation, (table,))
    factors: List[Relation] = []
    for component in layout.components:
        parts = [part_value(part) for part in component.parts]
        factors.append(group_by(join_all(parts), component.effective))
    return MultiplicityTable(layout.relation, tuple(factors))


Row = Tuple[object, ...]


@dataclass(frozen=True)
class RelationDelta:
    """A compacted, signed delta relation for one base relation.

    ``plus`` maps tuples to the (positive) multiplicity to insert,
    ``minus`` to the multiplicity to delete.  After compaction
    (:func:`repro.evaluation.incremental.compact_updates`) every tuple
    appears on at most one side, and every ``minus`` count is bounded by
    the tuple's pre-batch database multiplicity — which is exactly what
    makes bag monus an *exact* delta at every derived level.
    """

    relation: str
    plus: Mapping[Row, int]
    minus: Mapping[Row, int]

    def is_empty(self) -> bool:
        return not self.plus and not self.minus

    def tuple_count(self) -> int:
        """Distinct tuples carried by this delta (both signs)."""
        return len(self.plus) + len(self.minus)


class _BatchStaging:
    """Uncommitted overlay of a :class:`JoinState` for one update batch.

    Every read during staging goes through this overlay, so fold *k*
    sees the state produced by folds ``1..k-1`` while the committed
    structures stay untouched — any exception mid-batch (columnar
    overflow, say) simply abandons the overlay, leaving the state
    bit-identical to its pre-batch value.  Within a single fold all
    overlay reads refer to structures that fold does not change (each
    derived structure has exactly one changed input per update), so
    read-before-write ordering inside a fold is immaterial.
    """

    __slots__ = (
        "state", "atoms", "nodes", "botjoins", "topjoins", "tables",
        "reports", "touched_columns",
    )

    def __init__(self, state: "JoinState"):
        self.state = state
        self.atoms: Dict[str, Relation] = {}
        self.nodes: Dict[str, Relation] = {}
        self.botjoins: Dict[str, Relation] = {}
        self.topjoins: Dict[str, Relation] = {}
        self.tables: Dict[str, MultiplicityTable] = {}
        self.reports: List[AppliedUpdate] = []
        self.touched_columns: Set[str] = set()

    def atom(self, relation: str) -> Relation:
        got = self.atoms.get(relation)
        return got if got is not None else self.state.bound.atom_relations[relation]

    def node(self, node_id: str) -> Relation:
        got = self.nodes.get(node_id)
        return got if got is not None else self.state.bound.node_relations[node_id]

    def botjoin(self, node_id: str) -> Relation:
        got = self.botjoins.get(node_id)
        return got if got is not None else self.state.botjoins[node_id]

    def topjoin(self, node_id: str) -> Optional[Relation]:
        if node_id in self.topjoins:
            return self.topjoins[node_id]
        tops = self.state._topjoins
        if tops is None:
            raise InternalError("staging read of unmaterialised topjoins")
        return tops[node_id]

    def table(self, relation: str) -> MultiplicityTable:
        got = self.tables.get(relation)
        return got if got is not None else self.state._tables[relation]


@dataclass(frozen=True)
class AppliedUpdate:
    """What one committed update changed inside a :class:`JoinState`.

    Consumers holding caches *derived* from the state (the incremental
    evaluator's sibling complements, say) use this to invalidate exactly
    what moved.
    """

    relation: str
    node_id: str
    #: the row failed the relation's selection predicate: nothing changed.
    filtered: bool
    #: node ids whose botjoin was re-staged by this update.
    changed_botjoins: Tuple[str, ...]
    #: the touched node holds several atoms (GHD node).
    node_multi_atom: bool


class JoinState:
    """The maintained TSens join-state of one *connected* query component.

    Parameters
    ----------
    query:
        Connected full CQ without self-joins (a component subquery for
        disconnected queries).
    tree:
        Decomposition covering ``query`` (join tree or GHD).  Structural
        validation is the caller's job — the algorithm layer raises the
        same errors it always did before building a state.
    db:
        Database to bind against.  The state never mutates the caller's
        object; :meth:`apply_update` advances the *bound* relations only
        (the session layer owns the database snapshots).

    Botjoins are materialised eagerly (they are the count structure);
    topjoins and multiplicity tables appear on first use and are folded
    under updates from then on.  :attr:`witnesses` is a caller-managed
    per-relation witness cache which the state *invalidates* whenever an
    update touches the corresponding table, or may move the witness's
    extrapolated exclusive values — those come from
    :meth:`~repro.engine.database.Database.representative_domain`, which
    intersects active domains across *all database relations sharing the
    base column name*, so the dependency crosses relations (and, for
    disconnected queries, components): see
    :meth:`drop_domain_dependent_witnesses`.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        tree: DecompositionTree,
        db: Database,
    ):
        self.query = query
        self.bound: BoundTree = bind(query, tree, db)
        self.botjoins: Dict[str, Relation] = compute_botjoins(self.bound)
        self._topjoins: Optional[Dict[str, Optional[Relation]]] = None
        self._layouts: Dict[str, TableLayout] = {}
        self._tables: Dict[str, MultiplicityTable] = {}
        #: relation -> cached witness (managed by the algorithm layer).
        self.witnesses: Dict[str, object] = {}
        # Schema-only dependency data for witness invalidation (schemas
        # never change, so this stays valid across updates): each
        # relation's base columns, and the base columns its exclusive
        # query variables map to (the ones witness extrapolation reads
        # representative domains for).
        self._base_columns: Dict[str, frozenset] = {}
        self._exclusive_columns: Dict[str, frozenset] = {}
        for rel in query.relation_names:
            base_attrs = db.relation(rel).schema.attributes
            var_to_column = dict(zip(query.atom(rel).variables, base_attrs))
            self._base_columns[rel] = frozenset(base_attrs)
            self._exclusive_columns[rel] = frozenset(
                var_to_column[var] for var in query.exclusive_variables(rel)
            )

    # ------------------------------------------------------------- accessors
    @property
    def tree(self) -> DecompositionTree:
        return self.bound.tree

    @property
    def count(self) -> int:
        """``|Q(D)|`` for this component, from the root botjoin."""
        return self.botjoins[self.tree.root].total_count()

    @property
    def topjoins_materialised(self) -> bool:
        return self._topjoins is not None

    @property
    def tables_materialised(self) -> Tuple[str, ...]:
        return tuple(self._tables)

    def topjoins(self) -> Dict[str, Optional[Relation]]:
        """All topjoins ``J(v)``, built on first use, maintained after."""
        if self._topjoins is None:
            # First materialisation from committed botjoins — there is no
            # staged predecessor state for an update to corrupt.
            # repro-lint: disable=R002 -- lazy first build, not an update
            self._topjoins = compute_topjoins(self.bound, self.botjoins)
        return self._topjoins

    def layout(self, relation: str) -> TableLayout:
        if relation not in self._layouts:
            self._layouts[relation] = table_layout(self.query, self.tree, relation)
        return self._layouts[relation]

    def _part_value(self, part: _TablePart) -> Relation:
        if part.kind == "top":
            top = self.topjoins()[part.key]
            if top is None:  # layouts never reference the root topjoin
                raise InternalError(f"table layout references root topjoin {part.key}")
            return top
        if part.kind == "bot":
            return self.botjoins[part.key]
        return self.bound.atom_relation(part.key)

    def multiplicity_table(self, relation: str) -> MultiplicityTable:
        """``T^i`` for one relation — built once, patched under updates."""
        if relation not in self._tables:
            # Same lazy-first-build exemption as topjoins() above.
            # repro-lint: disable=R002 -- lazy first build, not an update
            self._tables[relation] = build_table(
                self.layout(relation), self._part_value
            )
        return self._tables[relation]

    def base_columns(self, relation: str) -> frozenset:
        """Base-schema column names of one of this component's relations."""
        return self._base_columns[relation]

    def drop_domain_dependent_witnesses(self, columns) -> None:
        """Invalidate witnesses whose extrapolated values may have moved.

        A witness's exclusive attributes take values from
        ``Database.representative_domain``, which intersects the active
        domains of every *database* relation whose base schema carries the
        column name — so updating any relation that shares a column name
        with one of ``R``'s exclusive columns can change ``R``'s witness
        even though ``R``'s multiplicity table did not move (and even when
        ``R`` lives in a different query component).  The evaluator calls
        this on *every* component state with the updated relation's base
        columns, on every committed update — including selection-filtered
        rows, which still land in the database and its domains.
        """
        columns = frozenset(columns)
        for relation, exclusive in self._exclusive_columns.items():
            if exclusive & columns:
                self.witnesses.pop(relation, None)

    # --------------------------------------------------------------- updates
    def apply_update(
        self, relation: str, row: Sequence[object], insert: bool
    ) -> AppliedUpdate:
        """Fold one committed ``±row`` update of ``relation`` into every
        materialised level of the state (a one-delta batch)."""
        row = tuple(row)
        delta = RelationDelta(
            relation,
            {row: 1} if insert else {},
            {} if insert else {row: 1},
        )
        return self.apply_update_batch([delta])[0]

    def apply_update_batch(
        self, deltas: Sequence[RelationDelta]
    ) -> Tuple[AppliedUpdate, ...]:
        """Fold whole signed delta relations into every materialised level.

        Each delta's minus side folds before its plus side (disjoint
        tuples after compaction, so the order is mathematically free but
        matches the single-update monus path exactly).  The entire batch
        is *staged* against an overlay first and committed in one
        non-raising sweep — a failure anywhere (unknown structure,
        columnar ``int64`` overflow) leaves the state bit-identical to
        its pre-batch value.  Returns one :class:`AppliedUpdate` report
        per signed fold, in fold order.
        """
        return self.commit_update_batch(self.stage_update_batch(deltas))

    def stage_update_batch(self, deltas: Sequence[RelationDelta]) -> _BatchStaging:
        """Stage a batch into an uncommitted overlay (all fallible work)."""
        staging = _BatchStaging(self)
        for delta in deltas:
            if delta.minus:
                self._stage_delta_fold(staging, delta.relation, delta.minus, False)
            if delta.plus:
                self._stage_delta_fold(staging, delta.relation, delta.plus, True)
        return staging

    def commit_update_batch(
        self, staging: _BatchStaging
    ) -> Tuple[AppliedUpdate, ...]:
        """Fold a fully-staged batch overlay into committed state.

        Dict assignments only; nothing here raises, so a failure anywhere
        in staging leaves every committed structure at its pre-batch
        value.  Committed attributes are assigned here and in ``__init__``
        only (enforced by lint rule R002).
        """
        for relation, atom in staging.atoms.items():
            self.bound.atom_relations[relation] = atom
        for node_id, node_relation in staging.nodes.items():
            self.bound.node_relations[node_id] = node_relation
        for changed, botjoin in staging.botjoins.items():
            self.botjoins[changed] = botjoin
        if self._topjoins is not None:
            for changed, topjoin in staging.topjoins.items():
                self._topjoins[changed] = topjoin
        for rel, table in staging.tables.items():
            self._tables[rel] = table
            self.witnesses.pop(rel, None)
        # Tables aside, any witness whose extrapolated exclusive values
        # read a representative domain the batch may have moved is stale
        # too — within this component; the evaluator repeats this for the
        # other components of a disconnected query.
        self.drop_domain_dependent_witnesses(staging.touched_columns)
        return tuple(staging.reports)

    def _stage_delta_fold(
        self,
        staging: _BatchStaging,
        relation: str,
        rows: Mapping[Row, int],
        insert: bool,
    ) -> None:
        """Stage one single-signed delta relation of ``relation``.

        ``|Q(D)|``, every botjoin, every topjoin and every table factor
        are multilinear in each relation's multiplicity vector, and the
        fold changes exactly one input of each derived structure — so the
        whole delta *relation* propagates through the same small join
        chains the one-tuple fold used, with every read going through the
        batch overlay (the state after all previous folds).
        """
        tree = self.tree
        node_id = tree.node_of_relation(relation)
        node = tree.node(node_id)
        multi_atom = len(node.relations) > 1
        # Whatever the selection filter keeps, the rows land in the
        # database, whose active domains feed witness extrapolation.
        staging.touched_columns.update(self._base_columns[relation])
        current_atom = staging.atom(relation)
        atom_delta = bound_delta(self.query, relation, rows, type(current_atom))
        if atom_delta.is_empty():
            staging.reports.append(
                AppliedUpdate(relation, node_id, True, (), multi_atom)
            )
            return
        if atom_delta.distinct_count() == 1:
            # Single-tuple fast path: array-level bump instead of a
            # union/difference kernel pass (keeps one-update batches as
            # cheap as the historical one-tuple fold).
            ((row, cnt),) = tuple(atom_delta.items())
            new_atom = (
                current_atom.add(row, cnt) if insert else current_atom.remove(row, cnt)
            )
        else:
            new_atom = (
                union_all([current_atom, atom_delta])
                if insert
                else difference(current_atom, atom_delta)
            )
        # The node-level delta joins the delta relation with the other
        # atoms materialised in the same node.  For deletes this uses the
        # pre-fold state, which is exactly the removed contribution.
        node_delta = atom_delta
        if not multi_atom:
            new_node_relation = new_atom
        else:
            for other in node.relations:
                if other != relation:
                    node_delta = join(node_delta, staging.atom(other))
            node_parts = [
                new_atom if rel == relation else staging.atom(rel)
                for rel in node.relations
            ]
            new_node_relation = join_all(node_parts)

        # ----- stage: botjoins along the leaf-to-root path
        staged_botjoins: Dict[str, Relation] = {}
        path_deltas: Dict[str, Relation] = {}
        #: ancestor -> ΔK(path child) ⋈ rel_ancestor, cached because the
        #: topjoin staging needs exactly this join as its sideways core.
        path_expanded: Dict[str, Relation] = {}
        delta = node_delta
        previous: Optional[str] = None
        current: Optional[str] = node_id
        while current is not None:
            if previous is None:
                for child in tree.children(current):
                    delta = join(delta, staging.botjoin(child))
            else:
                delta = join(delta, staging.node(current))
                path_expanded[current] = delta
                for child in tree.children(current):
                    if child != previous:
                        delta = join(delta, staging.botjoin(child))
            delta = group_by(delta, sorted(tree.shared_with_parent(current)))
            if delta.is_empty():
                break  # joins nothing from here up: no botjoin changes
            path_deltas[current] = delta
            staged_botjoins[current] = (
                union_all([staging.botjoin(current), delta])
                if insert
                else difference(staging.botjoin(current), delta)
            )
            previous, current = current, tree.parent(current)

        # ----- stage: topjoins everywhere off the path (if materialised)
        staged_topjoins: Dict[str, Relation] = {}
        topjoin_deltas: Dict[str, Relation] = {}
        if self._topjoins is not None:
            self._stage_topjoin_deltas(
                staging, node_id, node_delta, path_deltas, path_expanded,
                insert, staged_topjoins, topjoin_deltas,
            )

        # ----- stage: the one changed factor of each materialised table
        staged_tables: Dict[str, MultiplicityTable] = {}
        if self._tables:
            ancestors: Dict[str, str] = {}  # ancestor node -> its path child
            walk = node_id
            parent = tree.parent(walk)
            while parent is not None:
                ancestors[parent] = walk
                walk, parent = parent, tree.parent(parent)
            for rel in self._tables:
                if rel == relation:
                    continue  # T^i excludes R_i itself: unchanged by design
                patched = self._stage_table_patch(
                    staging, rel, relation, node_id, ancestors,
                    atom_delta, path_deltas, topjoin_deltas, insert,
                )
                if patched is not None:
                    staged_tables[rel] = patched

        # ----- merge the fold into the batch overlay
        staging.atoms[relation] = new_atom
        staging.nodes[node_id] = new_node_relation
        staging.botjoins.update(staged_botjoins)
        staging.topjoins.update(staged_topjoins)
        staging.tables.update(staged_tables)
        staging.reports.append(
            AppliedUpdate(
                relation, node_id, False, tuple(staged_botjoins), multi_atom
            )
        )

    def _stage_topjoin_deltas(
        self,
        staging: _BatchStaging,
        node_id: str,
        node_delta: Relation,
        path_deltas: Dict[str, Relation],
        path_expanded: Dict[str, Relation],
        insert: bool,
        staged: Dict[str, Relation],
        deltas: Dict[str, Relation],
    ) -> None:
        """Root-to-leaf mirror of the botjoin fold.

        ``J(v)`` is untouched for every ``v`` on the update path (the
        update happened inside ``v``'s subtree, and ``J(v)`` is the
        complement).  Every other node has exactly one changed input:

        * children of the updated node see ``Δrel_u``,
        * siblings of a path node ``p_{i-1}`` (children of ``p_i``) see
          ``ΔK(p_{i-1})``,
        * every node below a changed topjoin sees ``ΔJ(parent)``,

        so each delta is one small join chain against cached (pre-update)
        relations, grouped to the node's parent-shared attributes.  Empty
        deltas prune whole subtrees.
        """
        tree = self.tree
        if self._topjoins is None:
            raise InternalError("topjoin staging requires materialised topjoins")
        pending: List[str] = []

        def stage(target: str, dj: Relation) -> None:
            if dj.is_empty():
                return
            deltas[target] = dj
            old = staging.topjoin(target)
            if old is None:  # only non-root nodes are ever staged
                raise InternalError(f"staged topjoin of root node {target}")
            staged[target] = (
                union_all([old, dj]) if insert else difference(old, dj)
            )
            pending.append(target)

        def fan_out(core: Relation, parent: str, exclude: Optional[str]) -> None:
            """ΔJ for every child of ``parent`` except ``exclude``.

            The shared core delta is already joined with everything common
            to all children (the parent relation and topjoin — the only
            large inputs, probed once per update level, not per child);
            each target then picks up its *other* siblings' botjoins
            left-deep from the core.  Sibling botjoins may be mutually
            attribute-disjoint (they connect only through the parent
            relation), so products must stay seeded by the core — bare
            suffix products would cross-multiply.
            """
            targets = [c for c in tree.children(parent) if c != exclude]
            if not targets or core.is_empty():
                return
            for child in targets:
                acc = core
                for sibling in targets:
                    if sibling != child:
                        acc = join(acc, staging.botjoin(sibling))
                stage(child, group_by(acc, sorted(tree.shared_with_parent(child))))

        # Children of the updated node: the changed input is rel_u.
        if tree.children(node_id):
            core = node_delta
            own_top = staging.topjoin(node_id)
            if own_top is not None:
                core = join(core, own_top)
            fan_out(core, node_id, None)

        # Siblings of each path node: the changed input is ΔK(path child).
        previous, current = node_id, tree.parent(node_id)
        while current is not None:
            path_delta = path_deltas.get(previous)
            if path_delta is None:
                break  # the botjoin delta died below: nothing changes here up
            if any(c != previous for c in tree.children(current)):
                # ΔK(prev) ⋈ rel_current was already computed by the
                # botjoin fold; only the topjoin factor is new here.
                core = path_expanded[current]
                parent_top = staging.topjoin(current)
                if parent_top is not None:
                    core = join(core, parent_top)
                fan_out(core, current, previous)
            previous, current = current, tree.parent(current)

        # Below every changed topjoin: the changed input is ΔJ(parent).
        while pending:
            parent = pending.pop()
            if tree.children(parent):
                core = join(deltas[parent], staging.node(parent))
                fan_out(core, parent, None)

    def _staged_part_value(self, staging: _BatchStaging, part: _TablePart) -> Relation:
        """:meth:`_part_value` through the batch overlay."""
        if part.kind == "top":
            top = staging.topjoin(part.key)
            if top is None:  # layouts never reference the root topjoin
                raise InternalError(f"table layout references root topjoin {part.key}")
            return top
        if part.kind == "bot":
            return staging.botjoin(part.key)
        return staging.atom(part.key)

    def _stage_table_patch(
        self,
        staging: _BatchStaging,
        rel: str,
        updated_relation: str,
        updated_node: str,
        ancestors: Dict[str, str],
        atom_delta: Relation,
        path_deltas: Dict[str, Relation],
        topjoin_deltas: Dict[str, Relation],
        insert: bool,
    ) -> Optional[MultiplicityTable]:
        """The patched table for ``rel``, or ``None`` when it is unchanged.

        Exactly one symbolic part of the table moved in this fold; the
        patch replaces the one factor containing it with ``factor ±
        γ(Δpart ⋈ other parts)``, reusing every other factor object
        untouched.  All reads go through the overlay, so a fold sees the
        factors and parts produced by the previous folds of the batch.
        """
        layout = self.layout(rel)
        w = layout.node_id
        if w == updated_node:
            changed = _TablePart("atom", updated_relation)
            part_delta: Optional[Relation] = atom_delta
        elif w in ancestors:
            path_child = ancestors[w]
            changed = _TablePart("bot", path_child)
            part_delta = path_deltas.get(path_child)
        else:
            changed = _TablePart("top", w)
            part_delta = topjoin_deltas.get(w)
        if part_delta is None or part_delta.is_empty():
            return None
        table = staging.table(rel)
        for index, component in enumerate(layout.components):
            if changed not in component.parts:
                continue
            parts = [part_delta] + [
                self._staged_part_value(staging, part)
                for part in component.parts
                if part != changed
            ]
            factor_delta = group_by(join_all(parts), component.effective)
            if factor_delta.is_empty():
                return None
            old = table.factors[index]
            new_factor = (
                union_all([old, factor_delta])
                if insert
                else difference(old, factor_delta)
            )
            factors = (
                table.factors[:index] + (new_factor,) + table.factors[index + 1:]
            )
            return MultiplicityTable(rel, factors, table.multiplier)
        return None
