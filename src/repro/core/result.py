"""Result types for the sensitivity algorithms.

The central object is :class:`SensitivityResult`, returned by every
algorithm (naive, path, TSens).  It carries the local sensitivity, the most
sensitive tuple overall and per relation, and — when the algorithm produces
them — per-relation :class:`MultiplicityTable` objects giving the tuple
sensitivity of *every* tuple in the representative domain.  The multiplicity
tables are what the truncation mechanism (Sec. 6.2) consumes.

Two table representations exist because the two algorithms naturally
produce different shapes:

* ``TSens`` (Algorithm 2) materialises a dense table ``T^i`` over the
  relation's effective attributes (Eqn. 6);
* ``LSPathJoin`` (Algorithm 1) keeps the topjoin/botjoin *factors*, whose
  cross product would be the dense table — sensitivities are looked up as
  a product of two factor lookups, never materialising the quadratic table.

A factor is a bag relation, or a :class:`KeyedFactor`: the join of two
parts whose group-by sums nothing, kept unmaterialised (q3's ``T^O``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.engine.operators import cross_product, group_by, join, join_summary
from repro.engine.relation import Relation, Row
from repro.exceptions import UnknownAttributeError


@dataclass(frozen=True)
class SensitiveTuple:
    """A witness tuple and its sensitivity.

    Attributes
    ----------
    relation:
        The base relation the tuple belongs to (or would be inserted into).
    assignment:
        Variable → value mapping over the relation's query variables.
        Exclusive variables carry extrapolated values (Sec. 5.4 "Other").
    sensitivity:
        The tuple sensitivity ``δ(t, Q, D)``.
    """

    relation: str
    assignment: Mapping[str, object]
    sensitivity: int

    def as_row(self, variables: Tuple[str, ...]) -> Row:
        """The tuple in positional form for the given variable order."""
        return tuple(self.assignment[v] for v in variables)


class KeyedFactor:
    """A table factor ``γ_keep(first ⋈ second)`` kept as its two parts.

    The parts share exactly the attributes the factor sums out, and the
    part at index ``key`` has at most one row per value of its kept
    attributes.  Each output row then meets exactly one shared value, so
    the group sums nothing: an entry is the product of one row of each
    part.  q3's ``T^O = γ_{CK,OK}(J(gOC)[NK,OK] ⋈ C[NK,CK])`` is one,
    with C unique on CK.

    ``distinct_count``, ``total_count`` and ``argmax_count`` come from one
    :func:`~repro.engine.operators.join_summary` of the parts, run at
    construction, so it also raises the columnar overflow the
    materialised join would.  The argmax ties break on the smallest output
    tuple, as a materialised factor's do: per shared value, the smallest
    peak row of each part.  Reads of single entries (``multiplicities``,
    ``items``, iteration) materialise the factor once and cache it.
    """

    __slots__ = ("parts", "attributes", "key", "_summary", "_argmax", "_materialised")

    def __init__(
        self, parts: Tuple[Relation, Relation], attributes: Sequence[str], key: int
    ):
        self.parts = parts
        self.attributes = tuple(attributes)
        self.key = key
        self._summary = join_summary(*parts)
        self._argmax = self._least_peak_row()
        self._materialised: Optional[Relation] = None

    def _least_peak_row(self) -> Optional[Row]:
        """The smallest output tuple among the entries of the largest count.

        Those entries pair each peak row of one part with each peak row
        of the other at a tied shared value, so the smallest joins, per
        shared value, each part's smallest kept values; the least of
        those wins."""
        summary = self._summary
        if summary.best == 0:
            return None
        shared = self.parts[0].schema.common(self.parts[1].schema)
        smallest: List[Tuple[Tuple[str, ...], Dict[Row, Row]]] = []
        for part, peak_rows in zip(self.parts, (summary.left_best, summary.right_best)):
            on = part.schema.project_positions(shared)
            kept = tuple(a for a in self.attributes if a in part.schema)
            at = part.schema.project_positions(kept)
            least: Dict[Row, Row] = {}
            for row in peak_rows:
                value, out = tuple(row[p] for p in on), tuple(row[p] for p in at)
                if value not in least or out < least[value]:
                    least[value] = out
            smallest.append((kept, least))
        (first_kept, first), (second_kept, second) = smallest
        candidates = []
        for value, out in first.items():
            assignment = dict(zip(first_kept, out))
            assignment.update(zip(second_kept, second[value]))
            candidates.append(tuple(assignment[a] for a in self.attributes))
        return min(candidates)

    def distinct_count(self) -> int:
        return self._summary.rows

    def total_count(self) -> int:
        return self._summary.total

    def argmax_count(self) -> Tuple[Optional[Row], int]:
        return self._argmax, self._summary.best

    def materialise(self) -> Relation:
        """The factor as a bag relation, built on first use and cached.

        Forks and epochs share the factor; racing readers may each build
        it, and every copy is the same bag."""
        if self._materialised is None:
            self._materialised = group_by(join(*self.parts), self.attributes)
        return self._materialised

    def multiplicities(self, rows: Sequence[Sequence[object]]) -> list:
        return self.materialise().multiplicities(rows)

    def multiplicity(self, row: Sequence[object]) -> int:
        return self.materialise().multiplicity(row)

    def items(self) -> Iterable[Tuple[Row, int]]:
        return self.materialise().items()

    def __iter__(self) -> Iterator[Row]:
        return iter(self.materialise())

    def __repr__(self) -> str:
        sizes = " ⋈ ".join(str(part.distinct_count()) for part in self.parts)
        return (
            f"KeyedFactor({list(self.attributes)!r}, {self.distinct_count()} "
            f"distinct / {self.total_count()} total, parts {sizes})"
        )


Factor = Union[Relation, KeyedFactor]


class MultiplicityTable:
    """Tuple sensitivities over a relation's effective attributes.

    A *dense* table wraps one bag relation whose multiplicity of a value
    combination is the tuple sensitivity of any tuple projecting onto it.
    A *factored* table wraps two attribute-disjoint bag relations whose
    product plays the same role (path queries).  Any factor may be a
    :class:`KeyedFactor` instead of a bag relation.  A scalar
    ``multiplier`` accounts for disconnected query components (their
    counts multiply every sensitivity in this component, Sec. 5.4).
    """

    def __init__(
        self,
        relation: str,
        factors: Tuple[Factor, ...],
        multiplier: int = 1,
    ):
        if not factors:
            raise ValueError("a multiplicity table needs at least one factor")
        seen = set()
        for factor in factors:
            overlap = seen & set(factor.attributes)
            if overlap:
                raise ValueError(f"factors overlap on attributes {sorted(overlap)}")
            seen |= set(factor.attributes)
        self.relation = relation
        self.factors = factors
        self.multiplier = multiplier

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Effective attributes covered by the table (factor order)."""
        out = []
        for factor in self.factors:
            out.extend(factor.attributes)
        return tuple(out)

    def sensitivity_of(self, assignment: Mapping[str, object]) -> int:
        """Tuple sensitivity of any tuple matching ``assignment``.

        ``assignment`` must cover all effective attributes; extra keys
        (exclusive attributes) are ignored.  Unknown value combinations
        have sensitivity 0.
        """
        return self.sensitivities_of([assignment])[0]

    def sensitivities_of(self, assignments: Sequence[Mapping[str, object]]) -> List[int]:
        """:meth:`sensitivity_of` for many assignments, one per output slot.

        Each factor answers every assignment with one bulk
        ``multiplicities`` lookup, which the columnar backend runs as one
        search in the factor's row key instead of a scan per tuple."""
        products = [self.multiplier] * len(assignments)
        for factor in self.factors:
            attributes = factor.attributes
            try:
                keys = [
                    tuple([assignment[a] for a in attributes])
                    for assignment in assignments
                ]
            except KeyError as exc:
                raise UnknownAttributeError(str(exc), where=f"table for {self.relation}") from None
            products = [
                product * count
                for product, count in zip(products, factor.multiplicities(keys))
            ]
        return products

    def argmax(self) -> Tuple[Optional[Dict[str, object]], int]:
        """The assignment with the largest sensitivity and its value.

        For factored tables the maxima multiply — valid exactly because the
        factors are attribute-disjoint (the paper's cross-product argument
        in Sec. 4.2).  Returns ``(None, 0)`` when any factor is empty.
        """
        assignment: Dict[str, object] = {}
        product = self.multiplier
        for factor in self.factors:
            row, count = factor.argmax_count()
            if row is None:
                return None, 0
            assignment.update(zip(factor.attributes, row))
            product *= count
        return assignment, product

    def max_sensitivity(self) -> int:
        """The largest tuple sensitivity in the table."""
        return self.argmax()[1]

    def iter_descending(self) -> Iterator[Tuple[Dict[str, object], int]]:
        """Yield (assignment, sensitivity) pairs in non-increasing order.

        For factored tables this is a best-first product enumeration over
        the per-factor rankings (a heap of index tuples), so the top
        entries stream out without materialising the cross product.  Used
        by the witness search when a selection predicate must be honoured
        (Sec. 5.4): scan until the first satisfying assignment.
        """
        import heapq

        factor_items = []
        for factor in self.factors:
            items = sorted(factor.items(), key=lambda kv: (-kv[1], kv[0]))
            if not items:
                return
            factor_items.append(items)

        def value_at(index: Tuple[int, ...]) -> int:
            value = self.multiplier
            for items, i in zip(factor_items, index):
                value *= items[i][1]
            return value

        start = (0,) * len(factor_items)
        heap = [(-value_at(start), start)]
        seen = {start}
        while heap:
            negated, index = heapq.heappop(heap)
            assignment: Dict[str, object] = {}
            for factor, items, i in zip(self.factors, factor_items, index):
                assignment.update(zip(factor.attributes, items[i][0]))
            yield assignment, -negated
            for position in range(len(index)):
                bumped = (
                    index[:position]
                    + (index[position] + 1,)
                    + index[position + 1 :]
                )
                if bumped[position] < len(factor_items[position]) and bumped not in seen:
                    seen.add(bumped)
                    heapq.heappush(heap, (-value_at(bumped), bumped))

    def dense(self) -> Relation:
        """Materialise the table as one bag relation (cross product of the
        factors with counts scaled by the multiplier).  Potentially
        quadratic for factored tables — use lookups where possible."""
        bags = [
            factor.materialise() if isinstance(factor, KeyedFactor) else factor
            for factor in self.factors
        ]
        result = bags[0]
        for factor in bags[1:]:
            result = cross_product(result, factor)
        if self.multiplier == 0:
            return Relation(result.schema, ())
        if self.multiplier != 1:
            result = result.scale_counts(self.multiplier)
        return result

    def scaled(self, extra_multiplier: int) -> "MultiplicityTable":
        """The same table with sensitivities multiplied by a constant."""
        return MultiplicityTable(
            self.relation, self.factors, self.multiplier * extra_multiplier
        )

    def __repr__(self) -> str:
        shapes = " x ".join(str(f.distinct_count()) for f in self.factors)
        return (
            f"MultiplicityTable({self.relation}, attrs={list(self.attributes)}, "
            f"factors={shapes}, multiplier={self.multiplier})"
        )


@dataclass
class SensitivityResult:
    """Output of a local-sensitivity algorithm (Definition 2.3).

    Attributes
    ----------
    query_name:
        Display name of the analysed query.
    method:
        Which algorithm produced the result (``"naive"``, ``"path"``,
        ``"tsens"``, ``"tsens-topk"``, ``"elastic"`` ...).
    local_sensitivity:
        ``LS(Q, D)`` — for approximate methods, an upper bound.
    witness:
        A most sensitive tuple ``t*``, or ``None`` when the local
        sensitivity is 0 and no witness exists.
    per_relation:
        For each relation, its most sensitive tuple (possibly with
        sensitivity 0 and no meaningful assignment).
    tables:
        Per-relation multiplicity tables (absent for methods that do not
        produce them, e.g. Elastic).
    """

    query_name: str
    method: str
    local_sensitivity: int
    witness: Optional[SensitiveTuple]
    per_relation: Dict[str, SensitiveTuple] = field(default_factory=dict)
    tables: Dict[str, MultiplicityTable] = field(default_factory=dict)

    def table(self, relation: str) -> MultiplicityTable:
        """The multiplicity table for ``relation``; raises if absent."""
        try:
            return self.tables[relation]
        except KeyError:
            raise KeyError(
                f"no multiplicity table for {relation!r} (method {self.method})"
            ) from None

    def tuple_sensitivity(self, relation: str, assignment: Mapping[str, object]) -> int:
        """``δ(t, Q, D)`` for a tuple of ``relation`` given as an
        assignment over its query variables."""
        return self.table(relation).sensitivity_of(assignment)

    def __repr__(self) -> str:
        witness = (
            f"{self.witness.relation}:{dict(self.witness.assignment)}"
            if self.witness
            else "none"
        )
        return (
            f"SensitivityResult({self.query_name}, method={self.method}, "
            f"LS={self.local_sensitivity}, witness={witness})"
        )
