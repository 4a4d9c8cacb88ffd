"""Bag-semantics relations.

A :class:`Relation` is a multiset of tuples stored as a mapping from a value
tuple to its (positive integer) multiplicity.  This is exactly the paper's
representation of a relation with an appended ``cnt`` column: the paper's

* ``r̃join`` (join that multiplies ``cnt`` columns) becomes a hash join that
  multiplies multiplicities (:func:`repro.engine.operators.join`), and
* ``γ_A`` (group-by that sums ``cnt``) becomes a projection that sums
  multiplicities (:func:`repro.engine.operators.group_by`).

Relations are *logically* immutable: every operator returns a new relation.
A stored relation changes only through :func:`repro.engine.operators.patch`
(bag union or monus with a delta bag); the sensitivity definitions'
neighbours ``D ∪ {t}`` and ``D \\ {t}`` are the one-row patches
:meth:`repro.engine.database.Database.add_tuple` and ``remove_tuple``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

from repro.engine.schema import Schema
from repro.exceptions import SchemaError

Row = Tuple[object, ...]


class Relation:
    """A finite bag of tuples over a fixed :class:`Schema`.

    Parameters
    ----------
    schema:
        The relation schema, or an iterable of attribute names.
    rows:
        Either an iterable of tuples (each occurrence counts once) or a
        mapping from tuple to multiplicity.  Multiplicities must be
        positive; zero-count entries are dropped.

    Examples
    --------
    >>> r = Relation(["A", "B"], [("a1", "b1"), ("a1", "b1"), ("a2", "b1")])
    >>> r.total_count()
    3
    >>> r.multiplicity(("a1", "b1"))
    2
    """

    __slots__ = ("_schema", "_counts", "_column_values_cache", "_peaks", "_peak_bounds")

    def __init__(
        self,
        schema: Union[Schema, Iterable[str]],
        rows: Union[Iterable[Row], Mapping[Row, int], None] = None,
    ):
        self._schema = schema if isinstance(schema, Schema) else Schema(schema)
        counts: Dict[Row, int] = {}
        if rows is None:
            rows = ()
        if isinstance(rows, Mapping):
            items: Iterable[Tuple[Row, int]] = rows.items()
            for row, cnt in items:
                self._check_row(row)
                if cnt < 0:
                    raise SchemaError(f"negative multiplicity {cnt} for row {row!r}")
                if cnt:
                    counts[tuple(row)] = counts.get(tuple(row), 0) + cnt
        else:
            for row in rows:
                row = tuple(row)
                self._check_row(row)
                counts[row] = counts.get(row, 0) + 1
        self._counts = counts
        self._column_values_cache: Optional[Dict[str, frozenset]] = None
        # Column peaks and their handed-on bounds, by position
        # (repro.engine.operators.max_rows_per_value).
        self._peaks: Optional[Dict[int, int]] = None
        self._peak_bounds: Optional[Mapping[int, Tuple[int, int]]] = None

    def _check_row(self, row: Sequence[object]) -> None:
        if len(row) != self._schema.arity:
            raise SchemaError(
                f"row {tuple(row)!r} has arity {len(row)}, "
                f"schema {self._schema.attributes} expects {self._schema.arity}"
            )

    # ------------------------------------------------------------------ basics
    @property
    def schema(self) -> Schema:
        """The relation's schema."""
        return self._schema

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Attribute names, in positional order."""
        return self._schema.attributes

    @property
    def counts(self) -> Mapping[Row, int]:
        """Read-only view of the underlying tuple→multiplicity mapping."""
        return self._counts

    def distinct_count(self) -> int:
        """Number of distinct tuples."""
        return len(self._counts)

    def total_count(self) -> int:
        """Total multiplicity (bag cardinality) — the paper's ``|Q(D)|``."""
        return sum(self._counts.values())

    def multiplicity(self, row: Sequence[object]) -> int:
        """Multiplicity of ``row`` (0 if absent)."""
        return self._counts.get(tuple(row), 0)

    def multiplicities(self, rows: Sequence[Sequence[object]]) -> list:
        """Bulk :meth:`multiplicity` lookup: one count per input row.

        Batched update compaction probes the pre-batch multiplicity of
        every mixed-sign tuple at once; the columnar backend answers the
        same call with a single vectorized key probe."""
        out = []
        for row in rows:
            row = tuple(row)
            self._check_row(row)
            out.append(self._counts.get(row, 0))
        return out

    def is_empty(self) -> bool:
        """True iff the bag holds no tuples."""
        return not self._counts

    def __contains__(self, row: object) -> bool:
        return isinstance(row, tuple) and row in self._counts

    def __iter__(self) -> Iterator[Row]:
        """Iterate over *distinct* tuples."""
        return iter(self._counts)

    def __len__(self) -> int:
        """Number of distinct tuples (``distinct_count``)."""
        return len(self._counts)

    def items(self) -> Iterable[Tuple[Row, int]]:
        """Iterate over (tuple, multiplicity) pairs."""
        return self._counts.items()

    # ------------------------------------------------------- value extraction
    def column_values(self, attribute: str) -> frozenset:
        """The active domain of ``attribute`` in this relation (Sec. 3.1).

        Memoised per attribute: relations are logically immutable, and
        witness extrapolation asks for the same domains on every
        maintained sensitivity read."""
        if self._column_values_cache is None:
            self._column_values_cache = {}
        cached = self._column_values_cache.get(attribute)
        if cached is None:
            pos = self._schema.index_of(attribute)
            cached = frozenset(row[pos] for row in self._counts)
            self._column_values_cache[attribute] = cached
        return cached

    def max_frequency(self, attributes: Sequence[str]) -> int:
        """Largest bag-count of any single value combination of ``attributes``.

        This is Flex's ``mf`` statistic.  An empty attribute list groups the
        whole relation together, so the result is ``total_count()`` — exactly
        the paper's cross-product extension of Elastic sensitivity.
        """
        if not self._counts:
            return 0
        positions = self._schema.project_positions(attributes)
        freq: Dict[Row, int] = {}
        for row, cnt in self._counts.items():
            key = tuple(row[p] for p in positions)
            freq[key] = freq.get(key, 0) + cnt
        return max(freq.values())

    def argmax_count(self) -> Tuple[Optional[Row], int]:
        """The (tuple, multiplicity) pair with the largest multiplicity.

        Returns ``(None, 0)`` on an empty relation.  Ties break on the
        smallest tuple under Python ordering so results are deterministic.
        """
        if not self._counts:
            return None, 0
        best_cnt = max(self._counts.values())
        best_row = min(row for row, cnt in self._counts.items() if cnt == best_cnt)
        return best_row, best_cnt

    # ------------------------------------------------------------- derivation
    def filter(self, predicate: Callable[[Mapping[str, object]], bool]) -> "Relation":
        """Keep tuples satisfying ``predicate`` (a selection σ).

        The predicate receives a ``{attribute: value}`` mapping for each
        distinct tuple; multiplicities are preserved for survivors.
        """
        attrs = self._schema.attributes
        counts = {
            row: cnt
            for row, cnt in self._counts.items()
            if predicate(dict(zip(attrs, row)))
        }
        return Relation._from_counts(self._schema, counts)

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """Return the same bag under renamed attributes; columns keep their
        positions, so the column peaks and their bounds are handed on."""
        new_attrs = [mapping.get(a, a) for a in self._schema.attributes]
        renamed = Relation._from_counts(Schema(new_attrs), dict(self._counts))
        if self._peaks is None:
            self._peaks = {}
        renamed._peaks = self._peaks
        renamed._peak_bounds = self._peak_bounds
        return renamed

    def scale_counts(self, factor: int) -> "Relation":
        """Multiply every multiplicity by a positive integer ``factor``."""
        if factor <= 0:
            raise SchemaError(f"scale factor must be positive, got {factor}")
        return Relation._from_counts(
            self._schema, {row: cnt * factor for row, cnt in self._counts.items()}
        )

    # ------------------------------------------------------------- comparison
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._schema == other._schema and self._counts == other._counts

    def __hash__(self) -> int:  # pragma: no cover - relations are dict-like
        raise TypeError("Relation is not hashable")

    def same_bag(self, other: "Relation") -> bool:
        """Bag equality up to attribute order (reorders columns to compare)."""
        return same_bag_counts(self, other)

    def __repr__(self) -> str:
        return (
            f"Relation({list(self._schema.attributes)!r}, "
            f"{self.distinct_count()} distinct / {self.total_count()} total)"
        )

    # --------------------------------------------------------------- internal
    @classmethod
    def _from_counts(cls, schema: Schema, counts: Dict[Row, int]) -> "Relation":
        """Fast constructor for already-validated count dictionaries."""
        rel = cls.__new__(cls)
        rel._schema = schema
        rel._counts = counts
        rel._column_values_cache = None
        rel._peaks = None
        rel._peak_bounds = None
        return rel


def same_bag_counts(left, right) -> bool:
    """Bag equality up to attribute order, through the logical counts view.

    Backend-generic: works for (and across) any relation implementation
    exposing ``attributes`` / ``schema`` / ``items()`` / ``counts``."""
    if set(left.attributes) != set(right.attributes):
        return False
    positions = right.schema.project_positions(left.attributes)
    reordered: Dict[Row, int] = {}
    for row, cnt in right.items():
        key = tuple(row[p] for p in positions)
        reordered[key] = reordered.get(key, 0) + cnt
    return reordered == dict(left.counts)


def empty_like(relation: Relation) -> Relation:
    """An empty relation with the same schema (and backend) as ``relation``."""
    return type(relation)(relation.schema, ())
