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
  relation's node.  Every maintained relation — atom, botjoin, topjoin,
  table factor — absorbs its delta through one engine operator,
  :func:`~repro.engine.operators.patch`: bag union for inserts, monus
  for deletes (monus is exact because a delete's delta never exceeds the
  removed tuples' own contribution).  On the columnar backend a patch
  locates the delta's rows in the relation's code-order key and copies
  only the arrays it changes, so it never re-sorts the relation.
* **Topjoins** are the mirror image.  ``J(v)`` is the complement of
  ``v``'s subtree, so an update at node ``u`` leaves ``J`` unchanged on
  the whole ``u``-to-root path and changes it *everywhere else* — but
  each changed node has exactly one changed input (the updated atom for
  ``u``'s children, ``ΔK(path child)`` for siblings of path nodes,
  ``ΔJ(parent)`` below), so the delta propagates root-to-leaf through
  small joins against cached relations, never re-joining full inputs.
* **GHD nodes** are never materialised as bags.  Wherever a delta
  crosses a node it joins that node's atoms through
  :func:`join_aggregate`, keeping only the attributes the node shares
  with its parent and children, so a fold's cost follows the delta.
* **Multiplicity tables** are stored factored by attribute-connected
  components (the same layout the one-shot algorithm uses).  An update
  changes exactly one input part of each table — the updated atom for
  co-located relations, the path-child botjoin for tables on the path,
  the node's topjoin everywhere else — so only the one factor containing
  that part is patched (``factor ± γ(Δpart ⋈ other parts)``); all other
  factors are reused as-is.  Both the cold build and the patch compute
  ``γ(⋈ parts)`` with :func:`join_aggregate`, which joins in UES-bound
  order and sums out attributes as soon as nothing later needs them.
* **Keyed factors** are never materialised.  When a component's two parts
  share exactly the attributes it sums out and one part has at most one
  row per value of its kept attributes, the group sums nothing, and the
  factor is a :class:`~repro.core.result.KeyedFactor` over the parts
  (:func:`table_factor`).  An update re-forms it over the new part
  instead of patching it, checks the key again only when the keyed part
  changed, and materialises it when the key breaks, so a maintained
  factor always has the form a cold build over the same parts picks.

Every level below the botjoins is **lazy**: a count-only consumer never
materialises topjoins or tables, and an update folds deltas only into
the structures that exist.  A batch folds into a :meth:`JoinState.fork`,
which shares every relation and copies only the dicts, and the state
adopts the fork's dicts once every fold succeeded.  So all fallible delta
math (including columnar ``int64`` overflow) runs before the state
changes, and a raising update leaves it untouched; an overflow names the
structure it hit (``atom 'S'``, ``botjoin K('S')``, ``topjoin J('S')`` or
a table factor).

Layering: this module sits in ``evaluation`` and only imports the result
types from :mod:`repro.core.result`; the algorithm layer
(:mod:`repro.core.acyclic` and friends) consumes a :class:`JoinState` —
one-shot callers build a throwaway instance, sessions keep one alive.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.database import Database
from repro.engine.operators import (
    group_by,
    join,
    join_all,
    max_rows_per_value,
    next_join,
    patch,
)
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
from repro.core.result import Factor, KeyedFactor, MultiplicityTable
from repro.exceptions import (
    InternalError,
    MultiplicityOverflowError,
    QueryStructureError,
)


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
    botjoin) or ``"atom"`` (another atom assigned to the same node);
    ``key`` is the node id or relation name respectively.
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

    Groups the table's inputs — topjoin, child botjoins, the node's other
    atoms — into attribute-connected components with one greedy sweep over
    their attributes, so the factorisation (and therefore every downstream
    argmax/tie-break) is bit-identical whether the table is built fresh or
    maintained.
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


def join_aggregate(parts: Sequence[Relation], keep: Sequence[str]) -> Relation:
    """``group_by(join_all(parts), keep)``, summing out attributes early.

    Starts from ``parts[0]``.  Before each stage, every attribute that
    neither ``keep`` nor a remaining part needs is summed out of the
    running result; the stage then joins the result with the part
    :func:`~repro.engine.operators.next_join` picks, plus every remaining
    part whose attributes the two cover (those joins only filter).  The
    last stage groups on ``keep`` in the given order, so the output is the
    same bag under the same schema whatever order the joins ran in — and a
    one-part list runs exactly ``group_by(join_all([part]), keep)``.
    """
    stage, remaining = list(parts[:1]), list(parts[1:])
    while remaining:
        joined = join_all(stage)
        needed = set(keep).union(*(part.attributes for part in remaining))
        kept = [a for a in joined.attributes if a in needed]
        result = joined if len(kept) == len(joined.attributes) else group_by(joined, kept)
        chosen = remaining.pop(next_join(result, remaining))
        covered = set(result.attributes) | set(chosen.attributes)
        stage = [result, chosen]
        stage += [part for part in remaining if covered.issuperset(part.attributes)]
        remaining = [
            part for part in remaining if not covered.issuperset(part.attributes)
        ]
    return group_by(join_all(stage), keep)


@contextmanager
def _overflow_named(label: str) -> Iterator[None]:
    """Restate a columnar overflow with the structure it hit, chained."""
    try:
        yield
    except MultiplicityOverflowError as error:
        raise MultiplicityOverflowError(f"{label}: {error}") from error


def _table_label(relation: str, index: int) -> str:
    return f"multiplicity table for {relation!r}, factor {index}"


def _key_part(
    parts: Sequence[Relation], keep: Sequence[str], known: Mapping[int, bool]
) -> Optional[int]:
    """The part a :class:`KeyedFactor` over ``parts`` keys on, or ``None``.

    ``γ_keep(⋈ parts)`` sums nothing when there are exactly two parts,
    they share exactly the attributes it sums out, and one of them has at
    most one row per value of its non-empty kept attributes — the ``mcf``
    of PostBOUND's UES bound, :func:`max_rows_per_value`, is 1.  ``known``
    holds the key checks of parts that have not changed since they were
    made; a known key is taken without checking the other part.
    """
    if len(parts) != 2:
        return None
    shared = set(parts[0].attributes) & set(parts[1].attributes)
    covered = set(parts[0].attributes) | set(parts[1].attributes)
    if not shared or shared & set(keep) or shared | set(keep) != covered:
        return None
    for index, keyed in known.items():
        if keyed:
            return index
    for index, part in enumerate(parts):
        if index in known:
            continue
        kept = [a for a in part.attributes if a not in shared]
        if kept and max_rows_per_value(part, kept) == 1:
            return index
    return None


def table_factor(parts: Sequence[Relation], keep: Sequence[str]) -> Factor:
    """``γ_keep(⋈ parts)``: a :class:`KeyedFactor` when the group sums
    nothing (:func:`_key_part`), else materialised by
    :func:`join_aggregate`."""
    key = _key_part(parts, keep, {})
    if key is None:
        return join_aggregate(parts, keep)
    return KeyedFactor((parts[0], parts[1]), keep, key)


def build_table(
    layout: TableLayout,
    part_value: Callable[[_TablePart], Relation],
) -> MultiplicityTable:
    """Build a table from its layout and a part-resolving callback."""
    if not layout.components:
        # Single-relation query: Q(D) = R, every tuple has sensitivity 1.
        table = Relation(
            Schema(layout.effective), {(): 1} if not layout.effective else {}
        )
        return MultiplicityTable(layout.relation, (table,))
    factors: List[Factor] = []
    for index, component in enumerate(layout.components):
        parts = [part_value(part) for part in component.parts]
        with _overflow_named(_table_label(layout.relation, index)):
            factors.append(table_factor(parts, component.effective))
    return MultiplicityTable(layout.relation, tuple(factors))


def part_relation(
    part: _TablePart,
    bound: BoundTree,
    botjoins: Mapping[str, Relation],
    topjoins: Optional[Mapping[str, Optional[Relation]]],
) -> Relation:
    """The relation one table part names, read off the given levels.

    ``topjoins`` is read only for a topjoin part, so a caller whose
    topjoins are not built may pass ``None`` for any other part.
    """
    if part.kind == "top":
        top = topjoins[part.key]
        if top is None:  # layouts never reference the root topjoin
            raise InternalError(f"table layout references root topjoin {part.key}")
        return top
    if part.kind == "bot":
        return botjoins[part.key]
    return bound.atom_relation(part.key)


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
        object; :meth:`apply_update_batch` advances the *bound* atoms only
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
        topjoins = self.topjoins() if part.kind == "top" else self._topjoins
        return part_relation(part, self.bound, self.botjoins, topjoins)

    def multiplicity_table(self, relation: str) -> MultiplicityTable:
        """``T^i`` for one relation — built once, patched under updates."""
        if relation not in self._tables:
            # Same lazy-first-build exemption as topjoins() above.
            # repro-lint: disable=R002 -- lazy first build, not an update
            self._tables[relation] = build_table(
                self.layout(relation), self._part_value
            )
        return self._tables[relation]

    def fork(self) -> "JoinState":
        """A copy that shares every relation and table with this state.

        Only the dicts that a fold or a lazy build writes are copied: the
        bound atoms, botjoins, topjoins, tables, layouts and witnesses.
        Relations are never mutated in place, so a batch committed to
        either copy, or a level built lazily on it, leaves the other
        unchanged.  Costs O(nodes + tables).
        """
        clone = copy.copy(self)
        clone.bound = replace(self.bound, atom_relations=dict(self.bound.atom_relations))
        clone.botjoins = dict(self.botjoins)
        if self._topjoins is not None:
            clone._topjoins = dict(self._topjoins)
        clone._tables = dict(self._tables)
        clone._layouts = dict(self._layouts)
        clone.witnesses = dict(self.witnesses)
        return clone

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
    def apply_update_batch(self, deltas: Sequence[RelationDelta]) -> None:
        """Fold whole signed delta relations into every materialised level.

        Each delta's minus side folds before its plus side (disjoint
        tuples after compaction, so the order is mathematically free).
        The entire batch folds into a :meth:`fork`, which this state
        adopts only once every fold succeeded — a failure anywhere
        (unknown structure, columnar ``int64`` overflow) leaves the state
        bit-identical to its pre-batch value.  A single committed update
        is a one-tuple batch.
        """
        self.commit_update_batch(self.stage_update_batch(deltas))

    def stage_update_batch(self, deltas: Sequence[RelationDelta]) -> "JoinState":
        """A :meth:`fork` of this state with the whole batch folded in.

        All fallible work runs here, on the fork; this state is left
        untouched whether the batch folds or raises.
        """
        work = self.fork()
        for delta in deltas:
            if delta.minus:
                work._stage_delta_fold(delta.relation, delta.minus, False)
            if delta.plus:
                work._stage_delta_fold(delta.relation, delta.plus, True)
        return work

    def commit_update_batch(self, work: "JoinState") -> None:
        """Adopt a fork that :meth:`stage_update_batch` returned.

        Rebinds this state's dicts to the fork's, so nothing here raises;
        the fork must not be used afterwards.  Committed attributes are
        assigned here, in :meth:`_commit_fold` and in ``__init__`` only
        (enforced by lint rule R002).
        """
        self.bound = work.bound
        self.botjoins = work.botjoins
        self._topjoins = work._topjoins
        self._tables = work._tables
        self._layouts = work._layouts
        self.witnesses = work.witnesses

    def _commit_fold(
        self,
        relation: str,
        atom: Relation,
        botjoins: Mapping[str, Relation],
        topjoins: Mapping[str, Relation],
        tables: Mapping[str, MultiplicityTable],
    ) -> None:
        """Write one fully staged fold into this state, a batch's fork.

        Runs after every read of the fold, so each fold reads the state
        the previous folds of the batch left.  Dict writes only.
        """
        self.bound.atom_relations[relation] = atom
        self.botjoins.update(botjoins)
        if self._topjoins is not None:
            self._topjoins.update(topjoins)
        self._tables.update(tables)
        for rel in tables:
            self.witnesses.pop(rel, None)

    def _stage_delta_fold(
        self,
        relation: str,
        rows: Mapping[Row, int],
        insert: bool,
    ) -> None:
        """Stage one single-signed delta relation of ``relation``.

        ``|Q(D)|``, every botjoin, every topjoin and every table factor
        are multilinear in each relation's multiplicity vector, and the
        fold changes exactly one input of each derived structure — so the
        whole delta *relation* propagates through the same small join
        chains the one-tuple fold used.  Called on a batch's fork only:
        every read sees the state after the batch's previous folds, and
        :meth:`_commit_fold` writes this fold's levels last.
        """
        tree = self.tree
        node_id = tree.node_of_relation(relation)
        # Whatever the selection filter keeps, the rows land in the
        # database, whose active domains feed witness extrapolation.
        self.drop_domain_dependent_witnesses(self._base_columns[relation])
        current_atom = self.bound.atom_relation(relation)
        atom_delta = bound_delta(self.query, relation, rows, type(current_atom))
        if atom_delta.is_empty():
            return
        with _overflow_named(f"atom {relation!r}"):
            new_atom = patch(current_atom, atom_delta, insert)
        # The node-level delta joins the delta relation with the other
        # atoms of the same node.  For deletes this uses the pre-fold
        # state, which is exactly the removed contribution.
        node_delta = atom_delta
        with _overflow_named(f"botjoin K({node_id!r})"):
            for other in tree.node(node_id).relations:
                if other != relation:
                    node_delta = join(node_delta, self.bound.atom_relation(other))

        # ----- stage: botjoins along the leaf-to-root path
        staged_botjoins: Dict[str, Relation] = {}
        path_deltas: Dict[str, Relation] = {}
        #: ancestor -> ΔK(path child) ⋈ atoms(ancestor), cached because
        #: the topjoin staging needs exactly this join as its sideways core.
        path_expanded: Dict[str, Relation] = {}
        delta = node_delta
        previous: Optional[str] = None
        current: Optional[str] = node_id
        while current is not None:
            with _overflow_named(f"botjoin K({current!r})"):
                if previous is not None:
                    delta = self._node_delta(current, delta)
                    path_expanded[current] = delta
                for child in tree.children(current):
                    if child != previous:
                        delta = join(delta, self.botjoins[child])
                delta = group_by(delta, sorted(tree.shared_with_parent(current)))
                if delta.is_empty():
                    break  # joins nothing from here up: no botjoin changes
                path_deltas[current] = delta
                staged_botjoins[current] = patch(self.botjoins[current], delta, insert)
            previous, current = current, tree.parent(current)

        # ----- stage: topjoins everywhere off the path (if materialised)
        staged_topjoins: Dict[str, Relation] = {}
        topjoin_deltas: Dict[str, Relation] = {}
        if self._topjoins is not None:
            self._stage_topjoin_deltas(
                node_id, node_delta, path_deltas, path_expanded,
                insert, staged_topjoins, topjoin_deltas,
            )

        # ----- stage: the one changed factor of each materialised table
        staged_tables: Dict[str, MultiplicityTable] = {}
        if self._tables:
            # Every table part this fold moves: its delta and new value.
            changes: Dict[_TablePart, Tuple[Relation, Relation]] = {
                _TablePart("atom", relation): (atom_delta, new_atom)
            }
            for node, delta in path_deltas.items():
                changes[_TablePart("bot", node)] = (delta, staged_botjoins[node])
            for node, delta in topjoin_deltas.items():
                changes[_TablePart("top", node)] = (delta, staged_topjoins[node])
            for rel in self._tables:
                if rel == relation:
                    continue  # T^i excludes R_i itself: unchanged by design
                patched = self._stage_table_patch(rel, changes, insert)
                if patched is not None:
                    staged_tables[rel] = patched

        self._commit_fold(
            relation, new_atom, staged_botjoins, staged_topjoins, staged_tables
        )

    def _node_delta(self, node_id: str, delta: Relation) -> Relation:
        """``delta`` joined with the node's atoms, early-aggregating.

        Keeps only what the passes read next: the attributes the node
        shares with its parent and with its children.
        """
        tree = self.tree
        keep = set(tree.shared_with_parent(node_id)).union(
            *(tree.shared_with_parent(child) for child in tree.children(node_id))
        )
        return join_aggregate([delta] + self.bound.atoms(node_id), sorted(keep))

    def _stage_topjoin_deltas(
        self,
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

        * children of the updated node see the updated atom's delta,
        * siblings of a path node ``p_{i-1}`` (children of ``p_i``) see
          ``ΔK(p_{i-1})``,
        * every node below a changed topjoin sees ``ΔJ(parent)``,

        so each delta is one small join chain against cached (pre-update)
        relations, grouped to the node's parent-shared attributes.  Empty
        deltas prune whole subtrees.
        """
        tree = self.tree
        topjoins = self._topjoins
        if topjoins is None:
            raise InternalError("topjoin staging requires materialised topjoins")
        pending: List[str] = []

        def stage(target: str, dj: Relation) -> None:
            if dj.is_empty():
                return
            deltas[target] = dj
            old = topjoins[target]
            if old is None:  # only non-root nodes are ever staged
                raise InternalError(f"staged topjoin of root node {target}")
            staged[target] = patch(old, dj, insert)
            pending.append(target)

        def fan_out(
            parent: str, exclude: Optional[str], core_of: Callable[[], Relation]
        ) -> None:
            """ΔJ for every child of ``parent`` except ``exclude``.

            The shared core delta ``core_of()`` is already joined with
            everything common to all children (the parent's atoms and
            topjoin — the only large inputs, probed once per update level,
            not per child); each target then picks up its *other*
            siblings' botjoins left-deep from the core.  Sibling botjoins
            may be mutually attribute-disjoint (they connect only through
            the parent relation), so products must stay seeded by the core
            — bare suffix products would cross-multiply.  An overflow in
            the core names the first target, whose delta needs it first.
            """
            targets = [c for c in tree.children(parent) if c != exclude]
            if not targets:
                return
            with _overflow_named(f"topjoin J({targets[0]!r})"):
                core = core_of()
            if core.is_empty():
                return
            for child in targets:
                with _overflow_named(f"topjoin J({child!r})"):
                    acc = core
                    for sibling in targets:
                        if sibling != child:
                            acc = join(acc, self.botjoins[sibling])
                    stage(child, group_by(acc, sorted(tree.shared_with_parent(child))))

        def with_topjoin(core: Relation, node: str) -> Relation:
            top = topjoins[node]
            return core if top is None else join(core, top)

        # Children of the updated node: the changed input is its atom.
        fan_out(node_id, None, lambda: with_topjoin(node_delta, node_id))

        # Siblings of each path node: the changed input is ΔK(path child).
        previous, current = node_id, tree.parent(node_id)
        while current is not None:
            if previous not in path_deltas:
                break  # the botjoin delta died below: nothing changes here up
            # ΔK(prev) ⋈ atoms(current) was already computed by the
            # botjoin fold; only the topjoin factor is new here.
            fan_out(
                current, previous,
                lambda: with_topjoin(path_expanded[current], current),
            )
            previous, current = current, tree.parent(current)

        # Below every changed topjoin: the changed input is ΔJ(parent).
        while pending:
            parent = pending.pop()
            fan_out(
                parent, None,
                lambda: self._node_delta(parent, deltas[parent]),
            )

    def _stage_table_patch(
        self,
        rel: str,
        changes: Mapping[_TablePart, Tuple[Relation, Relation]],
        insert: bool,
    ) -> Optional[MultiplicityTable]:
        """The patched table for ``rel``, or ``None`` when it is unchanged.

        At most one symbolic part of the table moved in this fold; only
        the factor containing it changes, and every other factor object is
        reused untouched.  A materialised factor is patched with ``factor
        ± γ(Δpart ⋈ other parts)``.  A factor that :func:`_key_part`
        keeps as a :class:`KeyedFactor` is re-formed over the new part
        instead: the key of a part that did not change stands, so only a
        changed part is checked again, and a keyed factor whose key broke
        is materialised over the new parts.  It reads the fork's factors
        and parts, which the previous folds of the batch produced.
        """
        layout = self.layout(rel)
        table = self._tables[rel]
        for index, component in enumerate(layout.components):
            moved = [i for i, part in enumerate(component.parts) if part in changes]
            if not moved:
                continue
            (changed,) = moved
            part_delta, part_new = changes[component.parts[changed]]
            parts = [
                part_new if i == changed else self._part_value(part)
                for i, part in enumerate(component.parts)
            ]
            old = table.factors[index]
            # What the last form decision learnt about the unchanged part:
            # a keyed factor's key, or, for a materialised one, no key.
            if isinstance(old, KeyedFactor):
                known = {old.key: True} if old.key != changed else {}
            else:
                known = {i: False for i in range(len(parts)) if i != changed}
            keep = component.effective
            with _overflow_named(_table_label(rel, index)):
                key = _key_part(parts, keep, known)
                if key is not None:
                    new_factor: Factor = KeyedFactor((parts[0], parts[1]), keep, key)
                elif isinstance(old, KeyedFactor):
                    new_factor = join_aggregate(parts, keep)
                else:
                    others = [part for i, part in enumerate(parts) if i != changed]
                    factor_delta = join_aggregate([part_delta] + others, keep)
                    if factor_delta.is_empty():
                        return None
                    new_factor = patch(old, factor_delta, insert)
            factors = table.factors[:index] + (new_factor,) + table.factors[index + 1:]
            return MultiplicityTable(rel, factors, table.multiplier)
        return None
