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
* :func:`patch` — bag union or monus with a delta, the one way maintained
  state absorbs an update; on columnar relations its cost follows the
  delta, not the relation.
* :func:`join_summary` — the row count, total and largest multiplicity of
  a join, and the rows that reach the largest, without materialising it.
* :func:`select`, :func:`project`, :func:`cross_product`, :func:`union_all`,
  :func:`difference` — standard bag operators used by tests, baselines and
  the naive algorithm.

Every operator is **backend-dispatching**: when an operand is a
:class:`~repro.engine.columnar.ColumnarRelation` the vectorized kernel in
:mod:`repro.engine.columnar` runs (other operands are promoted to columnar
first — promotion of the tiny unit relations used by the path algorithm is
O(1)); otherwise the per-tuple dict implementation below runs.  The layers
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
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Sequence, Set, Tuple

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


def max_rows_per_value(relation: Relation, attributes: Sequence[str]) -> int:
    """Most distinct rows sharing one value of ``attributes`` (the ``mcf`` of
    :func:`join_bound`; 0 for an empty relation).

    Rows sharing a value combination share each of its values, so for a
    composite key the minimum over its columns is a valid upper bound."""
    if isinstance(relation, ColumnarRelation):
        return _columnar.max_rows_per_value(relation, attributes)
    if relation.is_empty():
        return 0
    return min(
        max(Counter(row[p] for row in relation.counts).values())
        for p in relation.schema.project_positions(attributes)
    )


def join_bound(left: Relation, right: Relation) -> int:
    """PostBOUND's UES upper bound on the distinct rows of ``join(left, right)``.

    Each ``left`` row meets at most ``mcf`` rows of ``right`` on the shared
    key and vice versa, so the join has at most
    ``min(|L|·mcf_R, |R|·mcf_L)`` rows; a cross product has ``|L|·|R|``.
    """
    common = left.schema.common(right.schema)
    if not common:
        return left.distinct_count() * right.distinct_count()
    return min(
        left.distinct_count() * max_rows_per_value(right, common),
        right.distinct_count() * max_rows_per_value(left, common),
    )


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


class JoinSummary(NamedTuple):
    """What :func:`join_summary` reports about ``join(left, right)``."""

    #: distinct rows and total multiplicity of the join.
    rows: int
    total: int
    #: its largest multiplicity, 0 when it is empty.
    best: int
    #: the rows of each operand that meet in a join row of multiplicity
    #: ``best``, in no particular order.
    left_best: List[Row]
    right_best: List[Row]


def join_summary(left: Relation, right: Relation) -> JoinSummary:
    """Size, total and peak of ``join(left, right)`` without materialising it.

    Both operands are grouped on their common attributes: a value met by
    ``l`` left and ``r`` right rows, whose counts sum to ``L`` and ``R``
    and peak at ``ml`` and ``mr``, contributes ``l·r`` join rows, ``L·R``
    to the total, and rows of count at most ``ml·mr`` — exactly ``ml·mr``
    for the pairs of peak rows, since counts are positive.  O(|left| +
    |right|); a columnar product past ``int64`` raises the join's
    :class:`~repro.exceptions.MultiplicityOverflowError`.
    """
    common = left.schema.common(right.schema)
    if not common:
        raise SchemaError("join_summary needs operands that share an attribute")
    if _any_columnar(left, right):
        return JoinSummary(*_columnar.join_summary(_promote(left), _promote(right)))
    groups = [_value_groups(side, common) for side in (left, right)]
    rows = total = best = 0
    tied: Set[Row] = set()
    for key, (left_rows, left_total, left_peak) in groups[0].items():
        match = groups[1].get(key)
        if match is None:
            continue
        right_rows, right_total, right_peak = match
        rows += left_rows * right_rows
        total += left_total * right_total
        product = left_peak * right_peak
        if product > best:
            best, tied = product, {key}
        elif product == best:
            tied.add(key)
    return JoinSummary(
        rows,
        total,
        best,
        _peak_rows(left, common, groups[0], tied),
        _peak_rows(right, common, groups[1], tied),
    )


def _value_groups(relation: Relation, attributes: Sequence[str]) -> Dict[Row, List[int]]:
    """Per value of ``attributes``: its row count, count sum and largest count."""
    positions = relation.schema.project_positions(attributes)
    groups: Dict[Row, List[int]] = {}
    for row, cnt in relation.items():
        key = tuple(row[p] for p in positions)
        group = groups.get(key)
        if group is None:
            groups[key] = [1, cnt, cnt]
        else:
            group[0] += 1
            group[1] += cnt
            group[2] = max(group[2], cnt)
    return groups


def _peak_rows(
    relation: Relation,
    attributes: Sequence[str],
    groups: Mapping[Row, List[int]],
    tied: Set[Row],
) -> List[Row]:
    """Rows of ``relation`` holding the largest count of a tied group."""
    positions = relation.schema.project_positions(attributes)
    out = []
    for row, cnt in relation.items():
        key = tuple(row[p] for p in positions)
        if key in tied and cnt == groups[key][2]:
            out.append(row)
    return out


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


def patch(relation: Relation, delta: Relation, insert: bool) -> Relation:
    """``relation`` with the bag ``delta`` folded in.

    ``union_all([relation, delta])`` when ``insert``, else
    ``difference(relation, delta)`` — counts floor at zero and rows absent
    from ``relation`` are ignored.  The columnar kernel locates the
    delta's rows in ``relation``'s code-order key and copies only the
    arrays it changes; the python backend copies the dict and updates the
    delta's counts, or returns ``relation`` itself when a monus matches
    no row.
    """
    if _any_columnar(relation, delta):
        return _columnar.patch(_promote(relation), _promote(delta), insert)
    if relation.schema != delta.schema:
        raise SchemaError(f"patch schema mismatch: {relation.schema} vs {delta.schema}")
    if not insert and not any(row in relation.counts for row in delta.counts):
        return relation
    counts = dict(relation.counts)
    for row, cnt in delta.items():
        if insert:
            counts[row] = counts.get(row, 0) + cnt
            continue
        remaining = counts.get(row, 0) - cnt
        if remaining > 0:
            counts[row] = remaining
        else:
            counts.pop(row, None)
    return Relation._from_counts(relation.schema, counts)


def difference(left: Relation, right: Relation) -> Relation:
    """Bag difference ``left ∸ right`` (monus: counts floor at zero)."""
    if left.schema != right.schema:
        raise SchemaError(f"difference schema mismatch: {left.schema} vs {right.schema}")
    return patch(left, right, False)


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
