"""Relational operators over bag-semantics relations.

These are the building blocks the paper's algorithms are written in:

* :func:`join` — the paper's ``r̃join``: a natural join where the output
  multiplicity of a combined tuple is the *product* of input multiplicities.
* :func:`group_by` — the paper's ``γ_A``: project onto ``A`` and *sum*
  multiplicities into the new count.
* :func:`semijoin` — Yannakakis-style reducer.
* :func:`next_join` — the join-order policy of the early-aggregating
  multiplicity-table build, by PostBOUND's UES upper bound
  (:func:`join_bound`).
* :func:`patch` — ``(relation ⊎ plus) ∸ minus``, the one way a stored
  relation changes: a database update, a maintained level's batch of
  deltas and :func:`difference` alike.  On columnar relations its cost
  follows the delta, not the relation.
* :func:`value_groups` and :func:`join_summary` — a relation grouped on
  some attributes, and the row count, total and largest multiplicity of a
  join read off two such groupings without materialising it.
* :func:`select`, :func:`project`, :func:`cross_product`, :func:`union_all`,
  :func:`difference` — standard bag operators used by tests, baselines and
  the naive algorithm.

Every operator is **backend-dispatching**: when an operand is a
:class:`~repro.engine.columnar.ColumnarRelation` the vectorized kernel in
:mod:`repro.engine.columnar` runs (other operands are promoted to columnar
first); otherwise the per-tuple dict implementation below runs.  The layers
above the engine call these functions and never see the physical layout.

Joins match rows on the common attributes: the python backend hashes the
smaller side, and the columnar kernel range-searches the larger side's
cached code-order row key when that key leads with the join attributes
(every patched relation carries one, so a delta joined into maintained
state costs its delta) and sorts the smaller side otherwise.  When there
are no common attributes :func:`join` degenerates into a cross product,
which is what the paper's ``r̃join`` of attribute-disjoint
topjoins/botjoins requires.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.engine import columnar as _columnar
from repro.engine.columnar import ColumnarRelation
from repro.engine.relation import Relation, Row
from repro.engine.schema import Schema
from repro.exceptions import SchemaError


def _promote(relation) -> ColumnarRelation:
    """Columnar view of a relation (identity for columnar operands)."""
    if isinstance(relation, ColumnarRelation):
        return relation
    return ColumnarRelation(relation.schema, relation.counts)


def _any_columnar(*relations) -> bool:
    return any(isinstance(rel, ColumnarRelation) for rel in relations)


def join(left: Relation, right: Relation) -> Relation:
    """Natural join multiplying multiplicities (the paper's ``r̃join``).

    The output schema is ``left``'s attributes followed by ``right``'s
    attributes not already present.  Output multiplicity of a combined row
    is ``left_count * right_count`` summed over all ways of producing it.
    """
    if _any_columnar(left, right):
        return _columnar.join(_promote(left), _promote(right))
    common = left.schema.common(right.schema)
    if not common:
        return cross_product(left, right)

    left_key = left.schema.project_positions(common)
    right_key = right.schema.project_positions(common)
    left_attrs = set(left.attributes)
    right_extra = tuple(
        i for i, a in enumerate(right.attributes) if a not in left_attrs
    )
    out_schema = left.schema.union(right.schema)

    # Build hash index on the smaller side for speed; probe with the larger.
    if right.distinct_count() <= left.distinct_count():
        index: Dict[Row, List[Tuple[Row, int]]] = {}
        for row, cnt in right.items():
            key = tuple(row[p] for p in right_key)
            index.setdefault(key, []).append((row, cnt))
        out: Dict[Row, int] = {}
        for lrow, lcnt in left.items():
            key = tuple(lrow[p] for p in left_key)
            for rrow, rcnt in index.get(key, ()):
                combined = lrow + tuple(rrow[p] for p in right_extra)
                out[combined] = out.get(combined, 0) + lcnt * rcnt
    else:
        index = {}
        for row, cnt in left.items():
            key = tuple(row[p] for p in left_key)
            index.setdefault(key, []).append((row, cnt))
        out = {}
        for rrow, rcnt in right.items():
            key = tuple(rrow[p] for p in right_key)
            extra = tuple(rrow[p] for p in right_extra)
            for lrow, lcnt in index.get(key, ()):
                combined = lrow + extra
                out[combined] = out.get(combined, 0) + lcnt * rcnt
    return Relation._from_counts(out_schema, out)


def join_all(relations: Sequence[Relation]) -> Relation:
    """Left-deep ``r̃join`` of a non-empty sequence of relations."""
    if not relations:
        raise SchemaError("join_all requires at least one relation")
    result = relations[0]
    for rel in relations[1:]:
        result = join(result, rel)
    return result


def column_peak(relation: Relation, position: int) -> int:
    """Most distinct rows of a non-empty ``relation`` sharing one value of
    the column at ``position``, counted over the whole column (the one
    place a column's peak is computed)."""
    if isinstance(relation, ColumnarRelation):
        return _columnar.column_peak(relation, position)
    return max(Counter(row[position] for row in relation.counts).values())


def _peaks(relation: Relation, positions: Sequence[int]) -> Dict[int, int]:
    """``relation``'s exact column peaks at ``positions``, each computed
    once and memoised on it (a relation never changes; renames share the
    memo)."""
    if relation._peaks is None:
        relation._peaks = {}
    peaks = relation._peaks
    for p in positions:
        if p not in peaks:
            peaks[p] = column_peak(relation, p)
    return peaks


def max_rows_per_value(relation: Relation, attributes: Sequence[str]) -> int:
    """Most distinct rows sharing one value of ``attributes`` (the ``mcf`` of
    :func:`join_bound`; 0 for an empty relation), exact.

    Rows sharing a value combination share each of its values, so for a
    composite key the minimum over its columns' peaks bounds it; it is 1
    exactly when some column is unique, which :func:`unique_on` tests."""
    if relation.is_empty():
        return 0
    positions = relation.schema.project_positions(attributes)
    peaks = _peaks(relation, positions)
    return min(peaks[p] for p in positions)


def _peak_range(relation: Relation, position: int) -> Optional[Tuple[int, int]]:
    """What ``relation`` knows of a column's peak without a scan: the
    exact peak twice, the ``(low, high)`` bounds :func:`patch` handed on,
    or ``None``."""
    if relation._peaks and position in relation._peaks:
        peak = relation._peaks[position]
        return peak, peak
    if relation._peak_bounds:
        return relation._peak_bounds.get(position)
    return None


def _peak_bound(relation: Relation, attributes: Sequence[str]) -> int:
    """An upper bound on :func:`max_rows_per_value` for join ordering: per
    column the exact peak or the bound :func:`patch` handed on, else the
    exact peak, computed and memoised.  So a join order over maintained
    relations costs no scan of a patched column."""
    if relation.is_empty():
        return 0
    positions = relation.schema.project_positions(attributes)
    highs = []
    for p in positions:
        known = _peak_range(relation, p)
        highs.append(_peaks(relation, [p])[p] if known is None else known[1])
    return min(highs)


def unique_on(relation: Relation, attributes: Sequence[str]) -> bool:
    """Whether some column of ``attributes`` holds a distinct value in
    every row, i.e. ``max_rows_per_value(relation, attributes) == 1``,
    exactly.  A column whose handed-on bounds already decide it (a high
    of 1, or a low of at least 2) is not scanned."""
    if relation.is_empty():
        return False
    for p in relation.schema.project_positions(attributes):
        low, high = _peak_range(relation, p) or (1, 2)
        if high == 1:
            return True
        if low < 2 and _peaks(relation, [p])[p] == 1:
            return True
    return False


def _handed_peaks(
    relation: Relation, plus: Optional[Relation], minus: Optional[Relation]
) -> Optional[Dict[int, Tuple[int, int]]]:
    """``(low, high)`` column-peak bounds for ``relation`` with ``plus``
    added and ``minus`` taken away, for each column whose peak or bounds
    ``relation`` knows: a value gains at most ``plus``'s rows of it and
    loses at most ``minus``'s, so the high grows by ``plus``'s peak and
    the low drops by ``minus``'s.  Columns never asked about stay
    unknown."""
    known = {p: _peak_range(relation, p) for p in range(relation.schema.arity)}
    known = {p: bounds for p, bounds in known.items() if bounds is not None}
    if not known:
        return None
    gained = _peaks(plus, list(known)) if plus is not None and not plus.is_empty() else {}
    lost = _peaks(minus, list(known)) if minus is not None and not minus.is_empty() else {}
    return {
        p: (max(low - lost.get(p, 0), 0), high + gained.get(p, 0))
        for p, (low, high) in known.items()
    }


def join_bound(left: Relation, right: Relation) -> int:
    """PostBOUND's UES upper bound on the distinct rows of ``join(left, right)``.

    Each ``left`` row meets at most ``mcf`` rows of ``right`` on the shared
    key and vice versa, so the join has at most
    ``min(|L|·mcf_R, |R|·mcf_L)`` rows; a cross product has ``|L|·|R|``.
    The ``mcf`` are upper bounds (:func:`_peak_bound`), and ``mcf_L`` is
    not asked for when ``|R|`` alone reaches ``|L|·mcf_R`` (``mcf_L`` is at
    least 1).
    """
    common = left.schema.common(right.schema)
    if not common:
        return left.distinct_count() * right.distinct_count()
    bound = left.distinct_count() * _peak_bound(right, common)
    if right.distinct_count() >= bound:
        return bound
    return min(bound, right.distinct_count() * _peak_bound(left, common))


def next_join(result: Relation, candidates: Sequence[Relation]) -> int:
    """Index of the candidate an early-aggregating join should take next.

    Candidates sharing an attribute with ``result`` come before cross
    products; among them the smallest :func:`join_bound` wins, ties to the
    earliest.  A lone connected candidate is forced, so no statistic is
    computed for it.
    """
    connected = [
        i for i, part in enumerate(candidates) if result.schema.common(part.schema)
    ]
    pool = connected or list(range(len(candidates)))
    if len(pool) == 1:
        return pool[0]
    return min(pool, key=lambda i: join_bound(result, candidates[i]))


def value_groups(relation: Relation, attributes: Sequence[str]):
    """``relation`` grouped on ``attributes``: per distinct value its row
    count, count sum and largest count, and on request the least rows
    holding that largest count (``least_peak_rows``).

    :func:`join_summary` reads two of them; a caller that keeps one
    operand across calls keeps its groups.  The columnar groups of a
    relation stored in code order with ``attributes`` leading need no
    sort (:class:`~repro.engine.columnar.ValueGroups`)."""
    if isinstance(relation, ColumnarRelation):
        return _columnar.ValueGroups(relation, attributes)
    return _ValueGroups(relation, attributes)


class _ValueGroups:
    """:func:`value_groups` of a python relation; a group is named by its
    value."""

    __slots__ = ("relation", "attributes", "groups", "_least")

    def __init__(self, relation: Relation, attributes: Sequence[str]):
        self.relation = relation
        self.attributes = tuple(attributes)
        positions = relation.schema.project_positions(attributes)
        #: value -> [row count, count sum, largest count]
        self.groups: Dict[Row, List[int]] = {}
        for row, cnt in relation.items():
            key = tuple(row[p] for p in positions)
            group = self.groups.get(key)
            if group is None:
                self.groups[key] = [1, cnt, cnt]
            else:
                group[0] += 1
                group[1] += cnt
                group[2] = max(group[2], cnt)
        self._least: Dict[Tuple[Row, Tuple[str, ...]], Row] = {}

    def least_peak_rows(self, groups: Sequence[Row], kept: Sequence[str]) -> List[Row]:
        """Per group, the smallest projection onto ``kept`` of the rows
        holding the group's largest count."""
        kept = tuple(kept)
        missing = {g for g in groups if (g, kept) not in self._least}
        if missing:
            schema = self.relation.schema
            on = schema.project_positions(self.attributes)
            at = schema.project_positions(kept)
            least: Dict[Row, Row] = {}
            for row, cnt in self.relation.items():
                key = tuple(row[p] for p in on)
                if key in missing and cnt == self.groups[key][2]:
                    out = tuple(row[p] for p in at)
                    if key not in least or out < least[key]:
                        least[key] = out
            for key in missing:
                self._least[(key, kept)] = least[key]
        return [self._least[(g, kept)] for g in groups]


class JoinSummary(NamedTuple):
    """What :func:`join_summary` reports about ``join(left, right)``."""

    #: distinct rows and total multiplicity of the join.
    rows: int
    total: int
    #: its largest multiplicity, 0 when it is empty.
    best: int
    #: the shared values whose rows meet in a join row of multiplicity
    #: ``best``, as ``(left group, right group)`` of the two value groups.
    tied: List[Tuple[object, object]]


def join_summary(left, right) -> JoinSummary:
    """Size, total and peak of the join of two relations, without
    materialising it, from their :func:`value_groups` on the attributes
    they share.

    A value met by ``l`` left and ``r`` right rows, whose counts sum to
    ``L`` and ``R`` and peak at ``ml`` and ``mr``, contributes ``l·r``
    join rows, ``L·R`` to the total, and rows of count at most ``ml·mr``
    — exactly ``ml·mr`` for the pairs of peak rows, since counts are
    positive.  O(groups); a columnar product past ``int64`` raises the
    join's :class:`~repro.exceptions.MultiplicityOverflowError`.
    """
    if left.attributes != right.attributes or not left.attributes:
        raise SchemaError("join_summary needs groups on the same shared attributes")
    if isinstance(left.relation, ColumnarRelation) or isinstance(right.relation, ColumnarRelation):
        if not isinstance(left, _columnar.ValueGroups):
            left = _columnar.ValueGroups(_promote(left.relation), left.attributes)
        if not isinstance(right, _columnar.ValueGroups):
            right = _columnar.ValueGroups(_promote(right.relation), right.attributes)
        return JoinSummary(*_columnar.join_summary(left, right))
    rows = total = best = 0
    tied: List[Tuple[object, object]] = []
    for key, (left_rows, left_total, left_peak) in left.groups.items():
        match = right.groups.get(key)
        if match is None:
            continue
        right_rows, right_total, right_peak = match
        rows += left_rows * right_rows
        total += left_total * right_total
        product = left_peak * right_peak
        if product > best:
            best, tied = product, [(key, key)]
        elif product == best:
            tied.append((key, key))
    return JoinSummary(rows, total, best, tied)


def cross_product(left: Relation, right: Relation) -> Relation:
    """Bag cross product (multiplicities multiply)."""
    if _any_columnar(left, right):
        return _columnar.cross_product(_promote(left), _promote(right))
    overlap = left.schema.common(right.schema)
    if overlap:
        raise SchemaError(f"cross product with overlapping attributes {overlap}")
    out_schema = left.schema.union(right.schema)
    out: Dict[Row, int] = {}
    for lrow, lcnt in left.items():
        for rrow, rcnt in right.items():
            out[lrow + rrow] = lcnt * rcnt
    return Relation._from_counts(out_schema, out)


def group_by(relation: Relation, attributes: Sequence[str]) -> Relation:
    """The paper's ``γ_A``: project onto ``attributes`` summing counts.

    An empty attribute list yields a zero-arity relation whose single
    tuple's multiplicity is the bag cardinality — useful for counting.
    """
    if isinstance(relation, ColumnarRelation):
        return _columnar.group_by(relation, attributes)
    positions = relation.schema.project_positions(attributes)
    out: Dict[Row, int] = {}
    for row, cnt in relation.items():
        key = tuple(row[p] for p in positions)
        out[key] = out.get(key, 0) + cnt
    return Relation._from_counts(Schema(attributes), out)


def project(relation: Relation, attributes: Sequence[str]) -> Relation:
    """Alias of :func:`group_by` — bag projection sums multiplicities."""
    return group_by(relation, attributes)


def select(
    relation: Relation, predicate: Callable[[Mapping[str, object]], bool]
) -> Relation:
    """Bag selection σ: keep tuples whose attribute-dict satisfies the predicate."""
    return relation.filter(predicate)


def semijoin(left: Relation, right: Relation) -> Relation:
    """Keep ``left`` tuples that join with at least one ``right`` tuple.

    Multiplicities of the surviving tuples are unchanged — this is the
    reducer step of Yannakakis's algorithm, not a counting join.
    """
    if _any_columnar(left, right):
        return _columnar.semijoin(_promote(left), _promote(right))
    common = left.schema.common(right.schema)
    if not common:
        return left if not right.is_empty() else Relation(left.schema, ())
    left_key = left.schema.project_positions(common)
    right_key = right.schema.project_positions(common)
    present = {tuple(row[p] for p in right_key) for row in right}
    out = {
        row: cnt
        for row, cnt in left.items()
        if tuple(row[p] for p in left_key) in present
    }
    return Relation._from_counts(left.schema, out)


def union_all(relations: Iterable[Relation]) -> Relation:
    """Bag union (multiplicities add).  All schemas must match exactly."""
    relations = list(relations)
    if not relations:
        raise SchemaError("union_all requires at least one relation")
    if _any_columnar(*relations):
        return _columnar.union_all([_promote(rel) for rel in relations])
    schema = relations[0].schema
    out: Dict[Row, int] = {}
    for rel in relations:
        if rel.schema != schema:
            raise SchemaError(f"union_all schema mismatch: {rel.schema} vs {schema}")
        for row, cnt in rel.items():
            out[row] = out.get(row, 0) + cnt
    return Relation._from_counts(schema, out)


def patch(
    relation: Relation,
    plus: Optional[Relation] = None,
    minus: Optional[Relation] = None,
) -> Relation:
    """``(relation ⊎ plus) ∸ minus``: ``relation`` with the bag ``plus``
    added, then the bag ``minus`` taken away by monus (counts floor at
    zero, rows absent from ``relation ⊎ plus`` are ignored).

    The one way a stored relation changes; ``relation`` itself comes
    back when ``plus`` is empty and ``minus`` names no row of it.  The
    columnar kernel finds both sides' rows in ``relation``'s code-order
    key and writes each array it changes once; the python backend copies the dict and updates the sides' counts.
    The output carries an upper bound on each column peak that
    ``relation`` knew (:func:`_handed_peaks`), for :func:`join_bound`.
    """
    if _any_columnar(relation, plus, minus):
        out = _columnar.patch(
            _promote(relation),
            *(None if side is None else _promote(side) for side in (plus, minus)),
        )
    else:
        for side in (plus, minus):
            if side is not None and side.schema != relation.schema:
                raise SchemaError(f"patch schema mismatch: {relation.schema} vs {side.schema}")
        if (plus is None or plus.is_empty()) and (
            minus is None or not any(row in relation.counts for row in minus.counts)
        ):
            return relation
        counts = dict(relation.counts)
        for row, cnt in plus.items() if plus is not None else ():
            counts[row] = counts.get(row, 0) + cnt
        for row, cnt in minus.items() if minus is not None else ():
            remaining = counts.get(row, 0) - cnt
            if remaining > 0:
                counts[row] = remaining
            else:
                counts.pop(row, None)
        out = Relation._from_counts(relation.schema, counts)
    if out is not relation:
        out._peak_bounds = _handed_peaks(relation, plus, minus)
    return out


def difference(left: Relation, right: Relation) -> Relation:
    """Bag difference ``left ∸ right`` (monus: counts floor at zero)."""
    return patch(left, minus=right)


def symmetric_difference_size(left: Relation, right: Relation) -> int:
    """``|left Δ right|`` under bag semantics: sum of |count deltas|.

    This is the quantity in the paper's Definition 2.1 of tuple sensitivity,
    ``|Q(D ∪ {t}) Δ Q(D)|``.  Backend-generic: iterates the logical
    (tuple, count) view of both operands.
    """
    if set(left.attributes) != set(right.attributes):
        raise SchemaError("symmetric difference over different attribute sets")
    positions = right.schema.project_positions(left.attributes)
    right_counts: Dict[Row, int] = {}
    for row, cnt in right.items():
        key = tuple(row[p] for p in positions)
        right_counts[key] = right_counts.get(key, 0) + cnt
    total = 0
    for row, cnt in left.items():
        total += abs(cnt - right_counts.pop(row, 0))
    total += sum(right_counts.values())
    return total
