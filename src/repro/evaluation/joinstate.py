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

* **Botjoins and topjoins** move by node steps.  ``K(v)`` and each
  child's ``J(c)`` join ``v``'s atoms with its neighbouring levels, and
  an update moves at most one input of each.  A step at ``v`` turns its
  one changed input — an atom, a child's botjoin or ``J(v)`` — into
  ``ΔK(v)`` and the other children's ``ΔJ``, and each moved level is the
  changed input of its reader: ``K(v)``'s parent, ``J(c)``'s own node.
  So botjoins move along the updated node's leaf-to-root path; ``J``
  stays put on that path (it is the complement of a subtree holding the
  update) and moves everywhere else; an empty delta ends its branch.
  Every maintained relation — atom, botjoin, topjoin, table factor —
  absorbs its delta through one engine operator,
  :func:`~repro.engine.operators.patch`: bag union for inserts, monus
  for deletes (monus is exact because a delete's delta never exceeds the
  removed tuples' own contribution).  On the columnar backend a patch
  locates the delta's rows in the relation's code-order key and copies
  only the arrays it changes, so it never re-sorts the relation, and the
  patched relation carries that key, so a later delta joined into it is
  a range search.  An atom without a selection is never patched itself:
  a fold binds it from the patched database relation
  (:meth:`JoinState.stage_fold`), which shares its arrays and key.
* **GHD nodes** are never materialised as bags.  A step joins its
  changed input with the node's other atoms once, through
  :func:`join_aggregate`, keeping only the attributes the node shares
  with its parent and children.  ``ΔK(v)`` and every ``ΔJ(c)`` of the
  step start from that one core, so a fold's cost follows the delta.
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
types from :mod:`repro.core.result`.  A session keeps one state per plan
component in its :class:`~repro.evaluation.incremental.IncrementalEvaluator`,
whose ``apply_batch`` is the one driver of a fold, and the algorithm
layer (:mod:`repro.core.acyclic` and friends) reads those states.
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
    """One symbolic input of a multiplicity table, and the name a fold
    gives each level it moves.

    ``kind`` is ``"top"`` (the node's topjoin), ``"bot"`` (a child's
    botjoin) or ``"atom"`` (another atom assigned to the same node);
    ``key`` is the node id or relation name respectively.
    """

    kind: str
    key: str

    @property
    def label(self) -> str:
        """How a fold's overflow names this level: ``atom 'R'``,
        ``botjoin K('v')`` or ``topjoin J('v')``."""
        return _LEVEL_LABELS[self.kind].format(self.key)


_LEVEL_LABELS = {"atom": "atom {!r}", "bot": "botjoin K({!r})", "top": "topjoin J({!r})"}


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

    def sides(self) -> List[Tuple[Mapping[Row, int], bool]]:
        """The non-empty sides as ``(rows, insert)``, minus first.  After
        compaction they are tuple-disjoint, so the order is free; every
        fold takes them in this one."""
        return [
            (rows, insert)
            for rows, insert in ((self.minus, False), (self.plus, True))
            if rows
        ]


class JoinState:
    """The maintained TSens join-state of one component of a plan.

    Parameters
    ----------
    query:
        Full CQ without self-joins: a connected component's subquery, or
        the whole query when a caller's tree covers it.
    tree:
        Decomposition covering ``query`` (join tree or GHD), as planned by
        :func:`~repro.query.ghd.component_trees`, which checks a caller's
        tree once.
    db:
        Database to bind against.  The state never mutates the caller's
        object: a fold advances the *bound* atoms only, and
        :class:`~repro.evaluation.incremental.IncrementalEvaluator`, the
        one fold driver, owns the database snapshots.

    Botjoins are materialised eagerly (they are the count structure);
    topjoins and multiplicity tables appear on first use and are folded
    under updates from then on.  Witnesses are not kept here: a read
    takes each one off its table.
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
        bound atoms, botjoins, topjoins, tables and layouts.
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
        return clone

    # --------------------------------------------------------------- updates
    def commit_update_batch(self, work: "JoinState") -> None:
        """Adopt a :meth:`fork` that a batch was staged into
        (:meth:`stage_fold`, once per delta side).

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

    def _commit_fold(
        self,
        changes: Mapping[_TablePart, Tuple[Relation, Relation]],
        tables: Mapping[str, MultiplicityTable],
    ) -> None:
        """Write one fully staged fold into this state, a batch's fork.

        ``changes`` maps every atom, botjoin and topjoin the fold moved to
        its delta and new value.  Runs after every read of the fold, so
        each fold reads the state the previous folds of the batch left.
        Dict writes only.
        """
        for part, (_, new) in changes.items():
            if part.kind == "atom":
                self.bound.atom_relations[part.key] = new
            elif part.kind == "bot":
                self.botjoins[part.key] = new
            else:
                self.topjoins()[part.key] = new
        self._tables.update(tables)

    def stage_fold(
        self,
        relation: str,
        rows: Mapping[Row, int],
        insert: bool,
        base: Relation,
    ) -> None:
        """Stage one single-signed delta relation of ``relation``.

        ``|Q(D)|``, every botjoin, every topjoin and every table factor
        are multilinear in each relation's multiplicity vector, and the
        fold changes at most one input of each derived structure — so the
        whole delta *relation* propagates as a worklist of node steps
        (:meth:`_node_deltas`).  Each level a step moves is patched,
        recorded in ``changes``, and queued as the changed input of its
        reader: a botjoin's parent, a topjoin's own node.  Called on a
        batch's fork only: every read sees the state after the batch's
        previous folds, and :meth:`_commit_fold` writes this fold's levels
        last.

        ``base`` is the database relation with this delta already patched
        in.  An atom without a selection is bound from it, a rename that
        shares its arrays and row key, instead of patched a second time;
        an atom with a selection patches its filtered delta.
        """
        tree = self.tree
        atom = _TablePart("atom", relation)
        current = self.bound.atom_relation(relation)
        delta = bound_delta(self.query, relation, rows, type(current))
        if delta.is_empty():
            return
        # Every level this fold moves: its delta and its new value.
        changes: Dict[_TablePart, Tuple[Relation, Relation]] = {}
        if relation not in self.query.selections:
            # What ConjunctiveQuery.bound_relation does without a selection.
            new_atom = base.rename(dict(zip(base.attributes, current.attributes)))
        else:
            with _overflow_named(atom.label):
                new_atom = patch(current, delta, insert)
        changes[atom] = (delta, new_atom)
        steps = [(tree.node_of_relation(relation), atom, delta)]
        while steps:
            node, changed, delta = steps.pop()
            for level, level_delta in self._node_deltas(node, changed, delta):
                with _overflow_named(level.label):
                    new = patch(self._part_value(level), level_delta, insert)
                changes[level] = (level_delta, new)
                reader = tree.parent(level.key) if level.kind == "bot" else level.key
                if reader is not None:
                    steps.append((reader, level, level_delta))

        tables: Dict[str, MultiplicityTable] = {}
        for rel in self._tables:
            if rel == relation:
                continue  # T^i excludes R_i itself: unchanged by design
            patched = self._stage_table_patch(rel, changes, insert)
            if patched is not None:
                tables[rel] = patched
        self._commit_fold(changes, tables)

    def _node_deltas(
        self, node: str, changed: _TablePart, delta: Relation
    ) -> List[Tuple[_TablePart, Relation]]:
        """The non-empty level deltas one changed input of ``node`` makes.

        ``changed`` is one of the node's atoms, one child's botjoin or the
        node's own topjoin, and ``delta`` is its delta.  ``K(node)`` joins
        the node's atoms with its children's botjoins, and a child's ``J``
        joins them with ``J(node)`` and that child's siblings' botjoins,
        so every level ``changed`` feeds shares one core: ``delta`` joined
        once with the node's other atoms, keeping what the node shares
        with its parent and children.  The core joined with the other
        children's botjoins is ``ΔK(node)``, which a change of ``J(node)``
        does not move.  When topjoins exist, the core joined once with
        ``J(node)``, then with a child's siblings' botjoins, is that
        child's ``ΔJ``.  Every other input is read as the fold found it:
        a fold moves at most one input of each level, and for a delete
        the pre-fold state is exactly the removed contribution.  An
        overflow in the core names the first level it feeds.
        """
        tree = self.tree
        children = [c for c in tree.children(node) if _TablePart("bot", c) != changed]
        if changed.kind == "top":
            if self._topjoins is None or not children:
                return []
            first = _TablePart("top", children[0])
        else:
            first = _TablePart("bot", node)
        others = [
            self.bound.atom_relation(rel)
            for rel in tree.node(node).relations
            if _TablePart("atom", rel) != changed
        ]
        keep = set(tree.shared_with_parent(node)).union(
            *(tree.shared_with_parent(child) for child in tree.children(node))
        )
        with _overflow_named(first.label):
            core = join_aggregate([delta] + others, sorted(keep))
        if core.is_empty():
            return []
        found: List[Tuple[_TablePart, Relation]] = []
        if changed.kind != "top":
            found.append(self._level_delta(first, core, children))
        if self._topjoins is not None and children:
            top = None if changed.kind == "top" else self._topjoins[node]
            if top is not None:
                with _overflow_named(_TablePart("top", children[0]).label):
                    core = join(core, top)
            for child in children:
                siblings = [s for s in children if s != child]
                found.append(self._level_delta(_TablePart("top", child), core, siblings))
        return [(level, d) for level, d in found if not d.is_empty()]

    def _level_delta(
        self, level: _TablePart, core: Relation, botjoins: Sequence[str]
    ) -> Tuple[_TablePart, Relation]:
        """``level`` and its delta: ``core`` joined with the botjoins of
        the nodes ``botjoins``, grouped on ``level``'s attributes.

        The joins run left-deep from the core: sibling botjoins may share
        no attribute (they meet only through the node's atoms), so joined
        with each other first they would cross-multiply."""
        keep = sorted(self.tree.shared_with_parent(level.key))
        with _overflow_named(level.label):
            joined = join_all([core] + [self.botjoins[n] for n in botjoins])
            # Rows are distinct: grouping on all of them, in order, sums nothing.
            return level, joined if list(joined.attributes) == keep else group_by(joined, keep)

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
