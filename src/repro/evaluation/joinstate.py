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
  absorbs its deltas through the engine's one patch operator,
  :func:`~repro.engine.operators.patch` ``(relation ⊎ plus) ∸ minus``:
  bag union for inserts, monus for deletes (monus is exact because a
  delete's delta never exceeds the removed tuples' own contribution).
  On the columnar backend a patch locates the delta's rows in the
  relation's code-order key and copies only the arrays it changes, so it
  never re-sorts the relation, and the patched relation carries that
  key, so a later delta joined into it is a range search.  An atom
  without a selection is never patched itself: a fold binds it from the
  patched database relation (:meth:`JoinState.stage_fold`), which shares
  its arrays and key.  A fold stages each level's delta; the next read
  of the level patches it in, and the end of the batch
  (:meth:`JoinState.commit_pending`) patches every level still pending,
  once with both sides however many of the batch's folds moved it.
* **GHD nodes** are never materialised as bags.  A node step computes
  all its outputs — ``ΔK(v)``, every ``ΔJ(c)`` and the factor deltas of
  the tables of ``v``'s atoms, whose parts are ``v``'s inputs — from one
  join plan rooted at the changed input's delta (:func:`_step_joins`):
  each input is joined once per group of outputs that need it, only onto
  what the delta already reached, so a fold's joins follow the delta.
* **Multiplicity tables** are stored factored by attribute-connected
  components (the same layout the one-shot algorithm uses).  An update
  changes exactly one input part of each table — the updated atom for
  co-located relations, the path-child botjoin for tables on the path,
  the node's topjoin everywhere else — so only the one factor containing
  that part changes (``factor ± γ(Δpart ⋈ other parts)``, the step's
  factor delta); all other factors are reused as-is.  A cold build
  computes ``γ(⋈ parts)`` with :func:`join_aggregate`, which joins in
  UES-bound order and sums out attributes as soon as nothing later
  needs them; the UES bounds of maintained relations are the column
  peaks each patch hands on, so ordering a fold's joins scans no
  maintained column.
* **Keyed factors** are never materialised.  When a component's two parts
  share exactly the attributes it sums out and one part has at most one
  row per value of its kept attributes, the group sums nothing, and the
  factor is a :class:`~repro.core.result.KeyedFactor` over the parts
  (:func:`table_factor`).  The end of a batch re-forms it over the moved
  part (:meth:`~repro.core.result.KeyedFactor.with_part`, which reuses
  the other part's groups), checks the key again only when the keyed
  part moved, and materialises it when the key breaks, so a maintained
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
    FrozenSet,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.engine.database import Database
from repro.engine.operators import (
    group_by,
    join_all,
    next_join,
    patch,
    union_all,
    unique_on,
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


class _TablePart(NamedTuple):
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
    of PostBOUND's UES bound, :func:`max_rows_per_value`, is 1, which
    :func:`unique_on` answers exactly (scanning a column only when the
    peak bounds a patch handed on do not decide it).  ``known`` holds the
    key checks of parts that have not changed since they were made; a
    known key is taken without checking the other part.
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
        if kept and unique_on(part, kept):
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
        # A batch's staged deltas, on its fork only (see commit_pending).
        self._pending: Dict[_TablePart, Tuple[List[Relation], List[Relation]]] = {}
        self._moved: Dict[Tuple[str, int], _MovedFactor] = {}

    # ------------------------------------------------------------- accessors
    @property
    def tree(self) -> DecompositionTree:
        return self.bound.tree

    @property
    def count(self) -> int:
        """``|Q(D)|`` for this component, from the root botjoin."""
        return self._level(_TablePart("bot", self.tree.root)).total_count()

    @property
    def topjoins_materialised(self) -> bool:
        return self._topjoins is not None

    @property
    def tables_materialised(self) -> Tuple[str, ...]:
        return tuple(self._tables)

    def topjoins(self) -> Dict[str, Optional[Relation]]:
        """All topjoins ``J(v)``, built on first use, maintained after."""
        if self._topjoins is None:
            for part in [part for part in self._pending if part.kind == "bot"]:
                self._level(part)  # a first build mid-batch reads current botjoins
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
            self.topjoins()
        if part in self._pending:
            return self._level(part)
        return part_relation(part, self.bound, self.botjoins, self._topjoins)

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
        clone._pending = {}
        clone._moved = {}
        return clone

    # --------------------------------------------------------------- updates
    def commit_update_batch(self, work: "JoinState") -> None:
        """Adopt a :meth:`fork` that a batch was staged into
        (:meth:`stage_fold`, once per delta side).

        The fork's pending deltas are written first
        (:meth:`commit_pending`, a no-op once ``apply_batch`` ran it), then
        this state's dicts are rebound to the fork's, which raises
        nothing; the fork must not be used afterwards.  Committed
        attributes are assigned in methods named for a commit and in
        ``__init__`` only (enforced by lint rule R002).
        """
        work.commit_pending()
        self.bound = work.bound
        self.botjoins = work.botjoins
        self._topjoins = work._topjoins
        self._tables = work._tables
        self._layouts = work._layouts

    def _commit_atom(self, relation: str, new: Relation) -> None:
        """Write a fold's new atom into this state, a batch's fork."""
        self.bound.atom_relations[relation] = new

    def _level(self, part: _TablePart) -> Relation:
        """A botjoin or topjoin as the batch's folds so far left it: its
        pending deltas, if any, are written first (:meth:`_commit_level`)."""
        if part in self._pending:
            self._commit_level(part)
        return self.botjoins[part.key] if part.kind == "bot" else self._topjoins[part.key]

    def _commit_level(self, part: _TablePart) -> None:
        """Patch a level's pending deltas into this fork at once: one
        :func:`~repro.engine.operators.patch` with both sides."""
        plus, minus = self._pending.pop(part)
        current = self.botjoins[part.key] if part.kind == "bot" else self._topjoins[part.key]
        with _overflow_named(part.label):
            new = patch(current, _union(plus), _union(minus))
        if part.kind == "bot":
            self.botjoins[part.key] = new
        else:
            self._topjoins[part.key] = new

    def commit_pending(self) -> None:
        """Write every level and table the batch's folds left pending into
        this fork: each level's deltas in one patch, each moved table
        factor in its final form (:meth:`_moved_factor`).  Fallible (an
        ``int64`` overflow names the level or table), so
        :meth:`~repro.evaluation.incremental.IncrementalEvaluator.apply_batch`
        runs it on every fork before any state adopts its own."""
        for part in list(self._pending):
            self._commit_level(part)
        tables: Dict[str, MultiplicityTable] = {}
        for (rel, index), moved in self._moved.items():
            table = tables.get(rel, self._tables[rel])
            factor = self._moved_factor(rel, index, moved)
            factors = table.factors[:index] + (factor,) + table.factors[index + 1:]
            tables[rel] = MultiplicityTable(rel, factors, table.multiplier)
        self._moved = {}
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
        (:meth:`_node_deltas`).  Each level a step moves gets its delta
        staged, and is queued as the changed input of its reader: a
        botjoin's parent, a topjoin's own node.  A table's parts are the
        inputs of its relation's node, so that node's step also stages the
        table's moved factor.  Called on a batch's fork only: a step reads
        each level with the batch's previous folds patched in
        (:meth:`_level`), and :meth:`commit_pending` patches the rest at
        the end of the batch, once per level and table however many folds
        moved it.

        ``base`` is the database relation with the batch's whole delta of
        ``relation`` — both sides — already patched in.  An atom without
        a selection is bound from it, a rename that shares its arrays and
        row key, instead of patched a second time: no step of either
        side's fold reads the changed atom (its delta stands in for it),
        so both sides bind it from the same relation.  An atom with a
        selection patches its filtered delta.
        """
        tree = self.tree
        atom = _TablePart("atom", relation)
        current = self.bound.atom_relation(relation)
        delta = bound_delta(self.query, relation, rows, type(current))
        if delta.is_empty():
            return
        if relation not in self.query.selections:
            # What ConjunctiveQuery.bound_relation does without a selection.
            new_atom = base.rename(dict(zip(base.attributes, current.attributes)))
        else:
            with _overflow_named(atom.label):
                new_atom = patch(current, plus=delta) if insert else patch(current, minus=delta)
        steps = [(tree.node_of_relation(relation), atom, delta)]
        while steps:
            node, changed, delta = steps.pop()
            for level, level_delta in self._node_deltas(node, changed, delta, insert):
                plus, minus = self._pending.setdefault(level, ([], []))
                (plus if insert else minus).append(level_delta)
                reader = tree.parent(level.key) if level.kind == "bot" else level.key
                if reader is not None:
                    steps.append((reader, level, level_delta))
        self._commit_atom(relation, new_atom)

    def _node_deltas(
        self, node: str, changed: _TablePart, delta: Relation, insert: bool
    ) -> List[Tuple[_TablePart, Relation]]:
        """The non-empty level deltas one changed input of ``node`` makes;
        the deltas of the moved factors of the tables of ``node``'s atoms
        are staged in :attr:`_moved`.

        ``changed`` is one of the node's atoms, one child's botjoin or the
        node's own topjoin, and ``delta`` its delta.  Each output of the
        step is ``delta`` joined with some of the node's other inputs:
        ``ΔK(node)`` with its atoms and children's botjoins (a change of
        ``J(node)`` does not move it), a child's ``ΔJ`` with the atoms,
        ``J(node)`` and that child's siblings' botjoins, and the delta of a
        materialised table factor whose component holds ``changed`` with
        that component's other parts.  One plan (:func:`_step_joins`)
        computes them all, joining each input once per group of outputs
        that need it and only ever onto what the delta reached, so an L
        delta at q3's root never meets R or N before K(gOC) has given it
        NK: every join of the step is at most the delta's size.  T^N's
        factor, ``γ_NK(ΔL ⋈ K(gOC) ⋈ K(gSP) ⋈ K(gPS))``, feeds T^R's
        (joined with N) and ``ΔK(root)`` (with N and R).  A keyed factor
        needs no join: its moved part is recorded for
        :meth:`_moved_factor`.  Every other input is read as the fold
        found it: a fold moves at most one input of each level, and for a
        delete the pre-fold state is exactly the removed contribution.  An
        overflow in a join names the first output it feeds.
        """
        tree = self.tree
        parts = [_TablePart("atom", rel) for rel in tree.node(node).relations]
        parts += [_TablePart("bot", child) for child in tree.children(node)]
        if self._topjoins is not None and self._topjoins[node] is not None:
            parts.append(_TablePart("top", node))
        # The changed input is not read: its delta stands in for it.
        inputs = {
            part: self.bound.atom_relation(part.key) if part.kind == "atom" else self._level(part)
            for part in parts
            if part != changed
        }
        targets: List[_Target] = []
        if changed.kind != "top":
            targets.append(
                _Target(
                    _TablePart("bot", node),
                    frozenset(part for part in inputs if part.kind != "top"),
                    tuple(sorted(tree.shared_with_parent(node))),
                )
            )
        if self._topjoins is not None:
            for child in tree.children(node):
                botjoin = _TablePart("bot", child)
                if botjoin != changed:
                    targets.append(
                        _Target(
                            _TablePart("top", child),
                            frozenset(part for part in inputs if part != botjoin),
                            tuple(sorted(tree.shared_with_parent(child))),
                        )
                    )
        for rel in tree.node(node).relations:
            if rel not in self._tables:
                continue
            for index, component in enumerate(self.layout(rel).components):
                if changed not in component.parts:
                    continue
                moved = self._moved.setdefault((rel, index), _MovedFactor(set(), [], []))
                moved.parts.add(component.parts.index(changed))
                if not isinstance(self._tables[rel].factors[index], KeyedFactor):
                    targets.append(
                        _Target((rel, index), frozenset(component.parts) - {changed}, component.effective)
                    )
        found = _step_joins(delta, inputs, targets)
        levels: List[Tuple[_TablePart, Relation]] = []
        for target in targets:
            target_delta = found.get(target.key)
            if target_delta is None or target_delta.is_empty():
                continue
            if isinstance(target.key, _TablePart):
                levels.append((target.key, target_delta))
            else:
                moved = self._moved[target.key]
                (moved.plus if insert else moved.minus).append(target_delta)
        return levels

    def _moved_factor(self, rel: str, index: int, moved: "_MovedFactor") -> Factor:
        """Factor ``index`` of ``rel``'s table after the batch moved some of
        its parts, over their final values.

        A :class:`KeyedFactor` whose key part did not move keeps its key
        and regroups only the moved part (:meth:`KeyedFactor.with_part`);
        one whose key part moved checks the key again and is materialised
        over the new parts when it broke.  A materialised factor becomes
        keyed when a moved part now has the key (:func:`_key_part`, which
        checks only the moved parts), and is otherwise patched with the
        factor deltas the batch's steps staged, at once.  So a maintained
        factor always has the form a cold build over the same parts picks.
        """
        component = self.layout(rel).components[index]
        old = self._tables[rel].factors[index]
        keep = component.effective
        parts = [self._part_value(part) for part in component.parts]
        with _overflow_named(_table_label(rel, index)):
            if isinstance(old, KeyedFactor):
                if old.key not in moved.parts:
                    (position,) = moved.parts
                    return old.with_part(position, parts[position], old.key)
                key = _key_part(parts, keep, {})
                if key is None:
                    return join_aggregate(parts, keep)
                if len(moved.parts) == 1:
                    return old.with_part(old.key, parts[old.key], key)
                return KeyedFactor((parts[0], parts[1]), keep, key)
            known = {i: False for i in range(len(parts)) if i not in moved.parts}
            key = _key_part(parts, keep, known)
            if key is not None:
                return KeyedFactor((parts[0], parts[1]), keep, key)
            return patch(old, _union(moved.plus), _union(moved.minus))


@dataclass
class _MovedFactor:
    """What a batch's folds did to one table factor: the positions of its
    moved parts, and a materialised factor's deltas by sign."""

    parts: Set[int]
    plus: List[Relation]
    minus: List[Relation]


def _union(deltas: Sequence[Relation]) -> Optional[Relation]:
    """The bag union of ``deltas``, or ``None`` when there are none."""
    if not deltas:
        return None
    return deltas[0] if len(deltas) == 1 else union_all(deltas)


@dataclass(frozen=True)
class _Target:
    """One output of a node step: the changed input's delta joined with
    ``inputs`` (other inputs of the node), grouped on ``keep``.  ``key``
    is the level it moves, or ``(relation, index)`` of a table factor."""

    key: object
    inputs: FrozenSet[_TablePart]
    keep: Tuple[str, ...]

    @property
    def label(self) -> str:
        """How an overflow in this output's joins names it."""
        if isinstance(self.key, _TablePart):
            return self.key.label
        return _table_label(*self.key)


def _step_joins(
    delta: Relation,
    inputs: Mapping[_TablePart, Relation],
    targets: Sequence[_Target],
) -> Dict[object, Relation]:
    """Every target of one node step from one join plan, rooted at ``delta``.

    A prefix of joins is shared by every target that needs all of its
    inputs.  From the current result, the next input joined is one that
    shares an attribute with it (a cross product only when none does),
    needed by the most pending targets, the smallest
    :func:`~repro.engine.operators.join_bound` breaking ties
    (:func:`~repro.engine.operators.next_join`), then the earliest in the
    node's input order; the targets that need it take that branch, the
    others choose again from the same result.  A target whose inputs are
    all joined is grouped on its ``keep``.  Before a join the result is
    summed onto what the branch still needs, as :func:`join_aggregate`
    does, when that grouping was made for an output anyway or the result
    outgrew the delta (so T^N's ``γ_NK`` is what N joins); a result no
    larger than the delta is joined as it is.  A branch whose join is
    empty ends: its targets get no delta.
    """
    # Inputs by position, and each target's inputs as a bit mask over them.
    order = list(inputs)
    relations = [inputs[part] for part in order]
    attributes = [set(relation.attributes) for relation in relations]
    masks = [sum(1 << order.index(part) for part in target.inputs) for target in targets]
    found: Dict[object, Relation] = {}
    small = delta.distinct_count()

    def grow(result: Relation, joined: int, group: List[int]) -> None:
        groupings: Dict[Tuple[str, ...], Relation] = {tuple(result.attributes): result}

        def grouped(attrs: Sequence[str]) -> Relation:
            # Rows are distinct: grouping on all of them, in order, sums nothing.
            if tuple(attrs) not in groupings:
                groupings[tuple(attrs)] = group_by(result, attrs)
            return groupings[tuple(attrs)]

        pending = []
        for t in group:
            if masks[t] == joined:
                with _overflow_named(targets[t].label):
                    found[targets[t].key] = grouped(targets[t].keep)
            else:
                pending.append(t)
        have = set(result.attributes)
        while pending:
            needs = [sum(masks[t] >> i & 1 for t in pending) for i in range(len(order))]
            candidates = [i for i, n in enumerate(needs) if n and not joined >> i & 1]
            connected = [i for i in candidates if have & attributes[i]] or candidates
            most = max(needs[i] for i in connected)
            pool = [i for i in connected if needs[i] == most]
            choice = pool[next_join(result, [relations[i] for i in pool])]
            branch = [t for t in pending if masks[t] >> choice & 1]
            pending = [t for t in pending if not masks[t] >> choice & 1]
            needed = set()
            for t in branch:
                needed.update(targets[t].keep)
                for i in candidates:
                    if masks[t] >> i & 1:
                        needed |= attributes[i]
            kept = tuple(a for a in result.attributes if a in needed)
            with _overflow_named(targets[branch[0]].label):
                # Summing out costs a group-by: worth it on a result larger
                # than the delta, or when an output grouped the same way.
                summed = kept in groupings or result.distinct_count() > small
                base = grouped(kept) if summed else result
                grown = join_all([base, relations[choice]])
            if not grown.is_empty():
                grow(grown, joined | 1 << choice, branch)

    grow(delta, 0, list(range(len(targets))))
    return found
