"""Columnar bag-semantics relations backed by dictionary-encoded numpy arrays.

A :class:`ColumnarRelation` stores the same logical object as
:class:`~repro.engine.relation.Relation` — a finite bag of tuples over a
fixed :class:`~repro.engine.schema.Schema` — but physically as

* one ``int64`` *code* array per attribute (dictionary encoding: codes
  index a process-wide value vocabulary, so equal values always share a
  code and joins compare plain integers), and
* one ``int64`` *multiplicity* array, positionally aligned with the code
  arrays (the paper's appended ``cnt`` column).

Rows are kept distinct, mirroring the dict representation of the Python
backend, so the two backends are observationally identical: every operator
in :mod:`repro.engine.operators` dispatches on the relation type and the
columnar implementations below (`join`, `group_by`, `semijoin`,
`cross_product`, `union_all`, `difference`) produce bags equal to the
per-tuple versions, only via vectorized kernels:

* joins match packed key codes with ``argsort`` + ``searchsorted`` and
  expand match ranges without a Python-level loop;
* group-by deduplicates with ``np.unique`` on the stacked key columns and
  sums multiplicities with ``np.add.at``;
* semijoin is an ``np.isin`` mask; union/difference are concatenate +
  regroup.

Multiplicities use ``int64``: this engine targets counting workloads whose
counts fit machine integers (the Python backend's arbitrary-precision ints
remain available for adversarial inputs).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.engine.relation import same_bag_counts
from repro.engine.schema import Schema
from repro.exceptions import InternalError, MultiplicityOverflowError, SchemaError

Row = Tuple[object, ...]

_EMPTY_INT64 = np.empty(0, dtype=np.int64)
_INT64_MAX = 2**63 - 1


class _Vocabulary:
    """Process-wide value dictionary: every attribute value maps to one code.

    Sharing a single vocabulary across all relations means codes are
    directly comparable between any two columns — joins never reconcile
    per-column dictionaries.  Values that compare equal (``1``, ``1.0``,
    ``True``) share a code, matching Python-dict key semantics of the
    Python backend.
    """

    __slots__ = ("code_of", "values")

    def __init__(self) -> None:
        self.code_of: Dict[object, int] = {}
        self.values: List[object] = []

    def encode(self, value: object) -> int:
        code = self.code_of.get(value)
        if code is None:
            code = len(self.values)
            self.code_of[value] = code
            self.values.append(value)
        return code

    def lookup(self, value: object) -> Optional[int]:
        """Code of ``value`` or ``None`` when never seen (multiplicity 0)."""
        return self.code_of.get(value)


_VOCAB = _Vocabulary()


def reset_vocabulary() -> None:
    """Swap in a fresh process vocabulary.

    The shared vocabulary only grows (every distinct value ever encoded is
    retained), so long-lived processes that churn through many transient
    relations can call this to reclaim memory and keep code ranges small
    (large codes push joins off the fast mixed-radix packing path).
    Existing relations stay valid: each keeps a reference to the
    vocabulary it was encoded under, and operators transparently re-encode
    when operands disagree.
    """
    global _VOCAB
    _VOCAB = _Vocabulary()


def _max_mult(relation: "ColumnarRelation") -> int:
    return int(relation._mult.max()) if relation._mult.size else 0


def _pair_products(left_mult: np.ndarray, right_mult: np.ndarray) -> np.ndarray:
    """Element-wise multiplicity products, overflow-checked.

    The cheap ``max * max`` bound covers the common case without touching
    Python ints; when it trips, the products are recomputed exactly and
    only a genuinely overflowing *matched pair* raises
    :class:`MultiplicityOverflowError` — large counts whose rows never
    combine are fine."""
    if left_mult.size == 0:
        return left_mult
    if int(left_mult.max()) * int(right_mult.max()) <= _INT64_MAX:
        return left_mult * right_mult
    exact = left_mult.astype(object) * right_mult.astype(object)
    if max(exact.tolist()) > _INT64_MAX:
        raise MultiplicityOverflowError(
            "join would overflow int64 multiplicities on the columnar "
            "backend; use the python backend for counts this large"
        )
    return exact.astype(np.int64)


def _checked_scale(mult: np.ndarray, factor: int) -> np.ndarray:
    """Multiplicities times a positive scalar, overflow-checked.

    ``max * factor`` bounds every product, so unlike the pairwise helpers
    no exact recomputation pass is needed — the bound tripping means some
    actual slot overflows."""
    if mult.size and int(mult.max()) * factor > _INT64_MAX:
        raise MultiplicityOverflowError(
            "scale_counts would overflow int64 multiplicities on the "
            "columnar backend; use the python backend"
        )
    return mult * np.int64(factor)


def _group_sums(inverse: np.ndarray, mult: np.ndarray, n_groups: int) -> np.ndarray:
    """Per-group multiplicity sums, overflow-checked.

    ``max * count`` cheaply bounds every possible group sum; when that
    bound trips, the sums are recomputed exactly in Python ints — so
    huge-but-fitting inputs still pass and only true int64 overflow raises
    :class:`MultiplicityOverflowError`."""
    if int(mult.max()) * mult.size <= _INT64_MAX:
        sums = np.zeros(n_groups, dtype=np.int64)
        np.add.at(sums, inverse, mult)
        return sums
    exact = np.zeros(n_groups, dtype=object)
    np.add.at(exact, inverse, mult.astype(object))
    if exact.size and max(exact.tolist()) > _INT64_MAX:
        raise MultiplicityOverflowError(
            "aggregation would overflow int64 multiplicities on the "
            "columnar backend; use the python backend for counts this large"
        )
    return exact.astype(np.int64)


def _predicate_mask(relation: "ColumnarRelation", predicate) -> Optional[np.ndarray]:
    """Row mask for a structural DSL predicate, or ``None`` when unsupported.

    Predicates from :mod:`repro.query.predicates` are trees of
    comparisons/memberships over single attributes, so they evaluate once
    per *distinct dictionary code* instead of once per row — the classic
    dictionary-encoding selection win.  Anything else (plain callables,
    predicates over attributes this relation lacks) returns ``None`` and
    the caller falls back to the per-row path, keeping the two routes
    observationally identical.
    """
    from repro.query import predicates as _dsl  # lazy: engine must not import query at module load

    if isinstance(predicate, _dsl.TruePredicate):
        return np.ones(relation._mult.size, dtype=bool)
    if isinstance(predicate, _dsl.Not):
        inner = _predicate_mask(relation, predicate.inner)
        return None if inner is None else ~inner
    if isinstance(predicate, (_dsl.And, _dsl.Or)):
        left = _predicate_mask(relation, predicate.left)
        if left is None:
            return None
        right = _predicate_mask(relation, predicate.right)
        if right is None:
            return None
        return (left & right) if isinstance(predicate, _dsl.And) else (left | right)
    if isinstance(predicate, (_dsl.Compare, _dsl.Member)):
        attribute = predicate.attribute
        if attribute not in relation._schema:
            return None  # per-row path raises KeyError, as callers expect
        column = relation._codes[relation._schema.index_of(attribute)]
        values = relation._vocab.values
        passing = np.asarray(
            [
                code
                for code in np.unique(column).tolist()
                if predicate({attribute: values[code]})
            ],
            dtype=np.int64,
        )
        return np.isin(column, passing)
    return None


def intersect_column_values(
    relations: Sequence["ColumnarRelation"], attribute: str
) -> Optional[frozenset]:
    """Intersection of an attribute's active domains, at the code level.

    The shared process vocabulary gives equal values equal codes, so the
    intersection is ``np.intersect1d`` over per-relation unique code
    arrays, decoding only the final survivors.  Returns ``None`` when the
    relations span different vocabularies (caller falls back to
    the value-level path).
    """
    vocab = relations[0]._vocab
    if any(rel._vocab is not vocab for rel in relations):
        return None
    codes: Optional[np.ndarray] = None
    for rel in relations:
        column = rel._codes[rel._schema.index_of(attribute)]
        uniq = np.unique(column)
        codes = uniq if codes is None else np.intersect1d(
            codes, uniq, assume_unique=True
        )
        if codes.size == 0:
            break
    if codes is None:
        raise InternalError("intersect_column_values called with no relations")
    values = vocab.values
    return frozenset(values[c] for c in codes.tolist())


# ----------------------------------------------------------------- kernels
def _pack_single(cols: Sequence[np.ndarray]) -> Optional[np.ndarray]:
    """Mixed-radix pack of several code columns into one ``int64`` key.

    Preserves lexicographic row order (first column most significant).
    Returns ``None`` when the combined range would overflow 63 bits.
    """
    radices = []
    for col in cols:
        top = int(col.max()) if col.size else 0
        radices.append(top + 1)
    span = 1
    for radix in radices:
        span *= radix
    if span >= 2**62:
        return None
    packed = np.zeros(cols[0].shape, dtype=np.int64)
    for col, radix in zip(cols, radices):
        packed = packed * radix + col
    return packed


def _dedupe_sum(
    codes: Sequence[np.ndarray], mult: np.ndarray
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Group identical code rows, summing multiplicities; drop zero groups."""
    if mult.size == 0:
        return [c[:0] for c in codes], _EMPTY_INT64
    if not codes:
        total = _group_sums(np.zeros(mult.size, dtype=np.int64), mult, 1)[0]
        if total == 0:
            return [], _EMPTY_INT64
        return [], np.array([total], dtype=np.int64)
    if len(codes) == 1:
        uniq, inverse = np.unique(codes[0], return_inverse=True)
        out = [uniq]
    else:
        packed = _pack_single(codes)
        if packed is not None:
            _, first_index, inverse = np.unique(
                packed, return_index=True, return_inverse=True
            )
            out = [c[first_index] for c in codes]
        else:
            stacked = np.column_stack(codes)
            uniq_rows, inverse = np.unique(stacked, axis=0, return_inverse=True)
            out = [
                np.ascontiguousarray(uniq_rows[:, j])
                for j in range(uniq_rows.shape[1])
            ]
    inverse = np.ravel(inverse)
    sums = _group_sums(inverse, mult, out[0].shape[0])
    keep = sums != 0
    if not keep.all():
        out = [c[keep] for c in out]
        sums = sums[keep]
    return out, sums


def _pack_keys(
    cols_a: Sequence[np.ndarray], cols_b: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Single ``int64`` key per row for two aligned column sets.

    Equal keys ⇔ equal code rows.  Multi-column keys use mixed-radix
    packing when the combined range fits 63 bits, otherwise a joint
    ``np.unique`` renumbering (exact, never overflows).
    """
    if len(cols_a) == 1:
        return cols_a[0], cols_b[0]
    radices = []
    for ca, cb in zip(cols_a, cols_b):
        top = 0
        if ca.size:
            top = max(top, int(ca.max()))
        if cb.size:
            top = max(top, int(cb.max()))
        radices.append(top + 1)
    span = 1
    for radix in radices:
        span *= radix
    if span < 2**62:
        a = np.zeros(cols_a[0].shape, dtype=np.int64)
        b = np.zeros(cols_b[0].shape, dtype=np.int64)
        for ca, cb, radix in zip(cols_a, cols_b, radices):
            a = a * radix + ca
            b = b * radix + cb
        return a, b
    stacked = np.concatenate(
        [np.column_stack(cols_a), np.column_stack(cols_b)], axis=0
    )
    _, inverse = np.unique(stacked, axis=0, return_inverse=True)
    inverse = np.ravel(inverse).astype(np.int64)
    split = cols_a[0].shape[0]
    return inverse[:split], inverse[split:]


#: Sorted-key memo for :func:`_match_pairs`, keyed by key-array identity.
#: Code columns are immutable once built (bag updates copy), so a key
#: array's sort permutation can be reused every time the same keyed side
#: is probed again — repeated joins against one cached relation (benchmark
#: loops, maintained-state folds re-probing botjoins) skip the argsort.
#: Entries hold a weakref so a dead array's slot is reclaimed; the id()
#: key is validated against the weakref before use in case ids get reused.
_SORT_CACHE: "OrderedDict[int, Tuple[weakref.ref, np.ndarray, np.ndarray]]" = (
    OrderedDict()
)
_SORT_CACHE_MIN_SIZE = 1024
_SORT_CACHE_MAX_ENTRIES = 32


def _sorted_key(key: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(argsort(key), key[argsort(key)])``, memoized per array object.

    Only owning arrays at least :data:`_SORT_CACHE_MIN_SIZE` long are
    cached: small sorts are cheaper than the bookkeeping, and views
    (``key.base is not None``) are excluded so cache entries never pin
    or outlive a buffer owned elsewhere.
    """
    if key.size < _SORT_CACHE_MIN_SIZE or key.base is not None:
        order = np.argsort(key, kind="stable")
        return order, key[order]
    slot = id(key)
    entry = _SORT_CACHE.get(slot)
    if entry is not None:
        ref, order, sorted_key = entry
        if ref() is key:
            _SORT_CACHE.move_to_end(slot)
            return order, sorted_key
        del _SORT_CACHE[slot]
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    try:
        ref = weakref.ref(key)
    except TypeError:
        return order, sorted_key
    _SORT_CACHE[slot] = (ref, order, sorted_key)
    while len(_SORT_CACHE) > _SORT_CACHE_MAX_ENTRIES:
        _SORT_CACHE.popitem(last=False)
    return order, sorted_key


def _match_pairs(lkey: np.ndarray, rkey: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(lidx, ridx)`` with ``lkey[lidx] == rkey[ridx]``.

    The vectorized hash-join core: sort the *smaller* key array once,
    locate each probe key's match range with two ``searchsorted`` calls,
    then expand the ranges into explicit pairs with ``repeat``/``cumsum``
    arithmetic.  Sorting the smaller side matters for the maintained
    join-state folds, whose joins are one tiny delta against one large
    cached relation — argsorting the large side would dominate the probe.
    The argsort itself is memoized per key array (:func:`_sorted_key`), so
    repeatedly probing the same keyed side sorts once.
    """
    if lkey.size < rkey.size:
        ridx, lidx = _match_pairs(rkey, lkey)
        return lidx, ridx
    order, sorted_r = _sorted_key(rkey)
    start = np.searchsorted(sorted_r, lkey, side="left")
    stop = np.searchsorted(sorted_r, lkey, side="right")
    counts = stop - start
    total = int(counts.sum())
    lidx = np.repeat(np.arange(lkey.size), counts)
    offsets = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    ridx = order[np.repeat(start, counts) + within]
    return lidx, ridx


# ------------------------------------------------------------------ class
class ColumnarRelation:
    """A finite bag of tuples over a fixed schema, stored columnar.

    Drop-in duck-type for :class:`~repro.engine.relation.Relation`: the
    constructor, accessors, and bag-update helpers match signature for
    signature, so every layer above the engine runs unchanged on either
    backend.

    Examples
    --------
    >>> r = ColumnarRelation(["A", "B"], [("a1", "b1"), ("a1", "b1"), ("a2", "b1")])
    >>> r.total_count()
    3
    >>> r.multiplicity(("a1", "b1"))
    2
    """

    __slots__ = (
        "_schema", "_codes", "_mult", "_counts_cache", "_vocab",
        "_column_values_cache",
    )

    def __init__(
        self,
        schema: Union[Schema, Iterable[str]],
        rows: Union[Iterable[Row], Mapping[Row, int], None] = None,
    ):
        self._schema = schema if isinstance(schema, Schema) else Schema(schema)
        arity = self._schema.arity
        encode = _VOCAB.encode
        columns: List[List[int]] = [[] for _ in range(arity)]
        mults: List[int] = []
        if rows is None:
            rows = ()
        if isinstance(rows, Mapping):
            for row, cnt in rows.items():
                row = tuple(row)
                self._check_row(row)
                if cnt < 0:
                    raise SchemaError(f"negative multiplicity {cnt} for row {row!r}")
                if cnt:
                    for column, value in zip(columns, row):
                        column.append(encode(value))
                    mults.append(cnt)
        else:
            for row in rows:
                row = tuple(row)
                self._check_row(row)
                for column, value in zip(columns, row):
                    column.append(encode(value))
                mults.append(1)
        if mults and max(mults) > _INT64_MAX:
            raise MultiplicityOverflowError(
                "multiplicity exceeds int64 on the columnar backend; "
                "use the python backend for counts this large"
            )
        codes = [np.asarray(column, dtype=np.int64) for column in columns]
        mult = np.asarray(mults, dtype=np.int64)
        codes, mult = _dedupe_sum(codes, mult)
        self._codes = tuple(codes)
        self._mult = mult
        self._counts_cache: Optional[Dict[Row, int]] = None
        self._vocab = _VOCAB
        self._column_values_cache: Optional[Dict[str, frozenset]] = None

    def _check_row(self, row: Sequence[object]) -> None:
        if len(row) != self._schema.arity:
            raise SchemaError(
                f"row {tuple(row)!r} has arity {len(row)}, "
                f"schema {self._schema.attributes} expects {self._schema.arity}"
            )

    @classmethod
    def _from_parts(
        cls,
        schema: Schema,
        codes: Sequence[np.ndarray],
        mult: np.ndarray,
        deduped: bool = True,
        vocab: Optional[_Vocabulary] = None,
    ) -> "ColumnarRelation":
        """Fast constructor for already-encoded columns (internal).

        ``vocab`` is the vocabulary the codes were encoded under; defaults
        to the current process vocabulary."""
        if not deduped:
            codes, mult = _dedupe_sum(codes, mult)
        rel = cls.__new__(cls)
        rel._schema = schema
        rel._codes = tuple(codes)
        rel._mult = mult
        rel._counts_cache = None
        rel._vocab = vocab if vocab is not None else _VOCAB
        rel._column_values_cache = None
        return rel

    @classmethod
    def _from_counts(cls, schema: Schema, counts: Mapping[Row, int]) -> "ColumnarRelation":
        """Constructor from a tuple→multiplicity mapping (mirrors
        :meth:`Relation._from_counts`, used by backend-generic code)."""
        return cls(schema, counts)

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
        """Tuple→multiplicity view, decoded lazily and cached."""
        if self._counts_cache is None:
            values = self._vocab.values
            if not self._codes:
                self._counts_cache = (
                    {(): int(self._mult[0])} if self._mult.size else {}
                )
            else:
                decoded = [
                    [values[c] for c in column.tolist()] for column in self._codes
                ]
                self._counts_cache = {
                    row: int(cnt)
                    for row, cnt in zip(zip(*decoded), self._mult.tolist())
                }
        return self._counts_cache

    def distinct_count(self) -> int:
        """Number of distinct tuples."""
        return int(self._mult.size)

    def total_count(self) -> int:
        """Total multiplicity (bag cardinality) — the paper's ``|Q(D)|``."""
        return int(self._mult.sum()) if self._mult.size else 0

    def multiplicity(self, row: Sequence[object]) -> int:
        """Multiplicity of ``row`` (0 if absent)."""
        row = tuple(row)
        self._check_row(row)
        index = self._row_index(row)
        return int(self._mult[index]) if index is not None else 0

    def multiplicities(self, rows: Sequence[Sequence[object]]) -> list:
        """Bulk :meth:`multiplicity` lookup: one count per input row.

        One vectorized key probe for the whole batch instead of a
        per-row mask scan — batched update compaction asks for every
        mixed-sign tuple's pre-batch count at once."""
        rows = [tuple(row) for row in rows]
        for row in rows:
            self._check_row(row)
        out = [0] * len(rows)
        if not rows or self._mult.size == 0:
            return out
        if not self._codes:
            cnt = int(self._mult[0])
            return [cnt] * len(rows)
        lookup = self._vocab.lookup
        present: List[int] = []
        encoded: List[Tuple[int, ...]] = []
        for i, row in enumerate(rows):
            codes = tuple(lookup(value) for value in row)
            if None not in codes:
                present.append(i)
                encoded.append(codes)
        if not present:
            return out
        qarrays = [
            np.asarray([codes[j] for codes in encoded], dtype=np.int64)
            for j in range(self._schema.arity)
        ]
        lkey, rkey = _pack_keys(list(self._codes), qarrays)
        lidx, ridx = _match_pairs(lkey, rkey)
        for li, ri in zip(lidx.tolist(), ridx.tolist()):
            out[present[ri]] = int(self._mult[li])
        return out

    def is_empty(self) -> bool:
        """True iff the bag holds no tuples."""
        return self._mult.size == 0

    def __contains__(self, row: object) -> bool:
        if not isinstance(row, tuple) or len(row) != self._schema.arity:
            return False
        return self.multiplicity(row) > 0

    def __iter__(self) -> Iterator[Row]:
        """Iterate over *distinct* tuples."""
        return iter(self.counts)

    def __len__(self) -> int:
        """Number of distinct tuples (``distinct_count``)."""
        return int(self._mult.size)

    def items(self) -> Iterable[Tuple[Row, int]]:
        """Iterate over (tuple, multiplicity) pairs."""
        return self.counts.items()

    # ------------------------------------------------------- value extraction
    def column_values(self, attribute: str) -> frozenset:
        """The active domain of ``attribute`` in this relation (Sec. 3.1).

        Memoised per attribute (relations are logically immutable): the
        ``np.unique`` over a full code column is far more expensive than
        the lookups maintained sensitivity reads issue repeatedly."""
        if self._column_values_cache is None:
            self._column_values_cache = {}
        cached = self._column_values_cache.get(attribute)
        if cached is None:
            pos = self._schema.index_of(attribute)
            values = self._vocab.values
            cached = frozenset(
                values[c] for c in np.unique(self._codes[pos]).tolist()
            )
            self._column_values_cache[attribute] = cached
        return cached

    def max_frequency(self, attributes: Sequence[str]) -> int:
        """Largest bag-count of any single value combination of ``attributes``."""
        if self._mult.size == 0:
            return 0
        positions = self._schema.project_positions(attributes)
        if not positions:
            return self.total_count()
        _, sums = _dedupe_sum([self._codes[p] for p in positions], self._mult)
        return int(sums.max())

    def argmax_count(self) -> Tuple[Optional[Row], int]:
        """The (tuple, multiplicity) pair with the largest multiplicity.

        Ties break on the smallest tuple under Python ordering, matching
        the Python backend exactly; the count scan is vectorized.
        """
        if self._mult.size == 0:
            return None, 0
        best_cnt = int(self._mult.max())
        candidates = np.nonzero(self._mult == best_cnt)[0]
        values = self._vocab.values
        if candidates.size == 1 or not self._codes:
            i = int(candidates[0])
            return tuple(values[column[i]] for column in self._codes), best_cnt
        # Tie-break on the smallest decoded tuple.  When every candidate
        # column is numeric the lexicographic min vectorises with lexsort;
        # otherwise fall back to Python tuple ordering (identical result).
        decoded_columns = []
        numeric = True
        for column in self._codes:
            vals = [values[c] for c in column[candidates].tolist()]
            arr = np.asarray(vals)
            if arr.dtype.kind not in "biuf":
                numeric = False
                break
            decoded_columns.append(arr)
        if numeric:
            order = np.lexsort(tuple(reversed(decoded_columns)))
            i = int(candidates[order[0]])
            best_row = tuple(values[column[i]] for column in self._codes)
        else:
            best_row = min(
                tuple(values[column[i]] for column in self._codes)
                for i in candidates.tolist()
            )
        return best_row, best_cnt

    # ----------------------------------------------------------- bag updates
    def _row_index(self, row: Row) -> Optional[int]:
        """Position of ``row`` among the distinct tuples, or ``None``."""
        if not self._codes:
            return 0 if self._mult.size else None
        mask: Optional[np.ndarray] = None
        for column, value in zip(self._codes, row):
            code = self._vocab.lookup(value)
            if code is None:
                return None
            hit = column == code
            mask = hit if mask is None else (mask & hit)
        if mask is None:
            raise InternalError("_row_index reached an empty column set")
        index = np.nonzero(mask)[0]
        return int(index[0]) if index.size else None

    def add(self, row: Sequence[object], multiplicity: int = 1) -> "ColumnarRelation":
        """Return a copy with ``multiplicity`` extra occurrences of ``row``.

        Array-level: an existing row bumps one slot of a copied count
        vector (code columns are shared); a new row appends one slot —
        no dict round-trip, no re-sort.
        """
        if multiplicity < 0:
            raise SchemaError("use remove() to delete tuples")
        row = tuple(row)
        self._check_row(row)
        if multiplicity == 0:
            return self
        index = self._row_index(row)
        current = int(self._mult[index]) if index is not None else 0
        if current + multiplicity > _INT64_MAX:
            raise MultiplicityOverflowError(
                "multiplicity exceeds int64 on the columnar backend; "
                "use the python backend for counts this large"
            )
        if index is not None:
            mult = self._mult.copy()
            mult[index] = current + multiplicity
            return ColumnarRelation._from_parts(
                self._schema, self._codes, mult, vocab=self._vocab
            )
        codes = [
            np.append(column, self._vocab.encode(value))
            for column, value in zip(self._codes, row)
        ]
        mult = np.append(self._mult, np.int64(multiplicity))
        return ColumnarRelation._from_parts(
            self._schema, codes, mult, vocab=self._vocab
        )

    def remove(self, row: Sequence[object], multiplicity: int = 1) -> "ColumnarRelation":
        """Return a copy with up to ``multiplicity`` occurrences of ``row``
        removed.  Removing an absent tuple is a no-op.

        Array-level, like :meth:`add`: decrement one slot of a copied
        count vector, or mask the row out when its count hits zero.
        """
        row = tuple(row)
        self._check_row(row)
        index = self._row_index(row)
        if index is None:
            return self
        remaining = int(self._mult[index]) - multiplicity
        if remaining > 0:
            mult = self._mult.copy()
            mult[index] = remaining
            return ColumnarRelation._from_parts(
                self._schema, self._codes, mult, vocab=self._vocab
            )
        keep = np.ones(self._mult.size, dtype=bool)
        keep[index] = False
        return ColumnarRelation._from_parts(
            self._schema,
            [column[keep] for column in self._codes],
            self._mult[keep],
            vocab=self._vocab,
        )

    def filter(self, predicate) -> "ColumnarRelation":
        """Keep tuples satisfying ``predicate`` (a selection σ).

        Structural predicates from :mod:`repro.query.predicates` evaluate
        once per distinct dictionary code and reduce to vectorized masks
        (:func:`_predicate_mask`); arbitrary Python predicates force
        per-distinct-row evaluation, as in the Python backend.  Survivors
        keep their columnar form either way.
        """
        attrs = self._schema.attributes
        if not self._codes:
            keep_all = self._mult.size and predicate({})
            mult = self._mult if keep_all else _EMPTY_INT64
            return ColumnarRelation._from_parts(
                self._schema, (), mult, vocab=self._vocab
            )
        mask = _predicate_mask(self, predicate)
        if mask is not None:
            return ColumnarRelation._from_parts(
                self._schema,
                [c[mask] for c in self._codes],
                self._mult[mask],
                vocab=self._vocab,
            )
        values = self._vocab.values
        decoded = [[values[c] for c in column.tolist()] for column in self._codes]
        mask = np.fromiter(
            (bool(predicate(dict(zip(attrs, row)))) for row in zip(*decoded)),
            dtype=bool,
            count=self._mult.size,
        )
        return ColumnarRelation._from_parts(
            self._schema,
            [c[mask] for c in self._codes],
            self._mult[mask],
            vocab=self._vocab,
        )

    def rename(self, mapping: Mapping[str, str]) -> "ColumnarRelation":
        """Return the same bag under renamed attributes — O(arity)."""
        new_attrs = [mapping.get(a, a) for a in self._schema.attributes]
        return ColumnarRelation._from_parts(
            Schema(new_attrs), self._codes, self._mult, vocab=self._vocab
        )

    def scale_counts(self, factor: int) -> "ColumnarRelation":
        """Multiply every multiplicity by a positive integer ``factor``."""
        if factor <= 0:
            raise SchemaError(f"scale factor must be positive, got {factor}")
        return ColumnarRelation._from_parts(
            self._schema, self._codes, _checked_scale(self._mult, factor), vocab=self._vocab
        )

    # ------------------------------------------------------------- comparison
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarRelation):
            counts = getattr(other, "counts", None)
            schema = getattr(other, "schema", None)
            if counts is None or schema is None:
                return NotImplemented
            return self._schema == schema and dict(self.counts) == dict(counts)
        return self._schema == other._schema and self.counts == other.counts

    def __hash__(self) -> int:  # pragma: no cover - relations are dict-like
        raise TypeError("ColumnarRelation is not hashable")

    def same_bag(self, other) -> bool:
        """Bag equality up to attribute order (works across backends)."""
        return same_bag_counts(self, other)

    def __repr__(self) -> str:
        return (
            f"ColumnarRelation({list(self._schema.attributes)!r}, "
            f"{self.distinct_count()} distinct / {self.total_count()} total)"
        )


# ------------------------------------------------------------- operators
def _reencode(relation: ColumnarRelation, vocab: _Vocabulary) -> ColumnarRelation:
    """The same bag with codes re-encoded under ``vocab``."""
    source = relation._vocab.values
    encode = vocab.encode
    codes = [
        np.fromiter(
            (encode(source[c]) for c in column.tolist()),
            dtype=np.int64,
            count=column.size,
        )
        for column in relation._codes
    ]
    return ColumnarRelation._from_parts(
        relation.schema, codes, relation._mult, vocab=vocab
    )


def _aligned(
    left: ColumnarRelation, right: ColumnarRelation
) -> Tuple[ColumnarRelation, ColumnarRelation]:
    """Ensure both operands share one vocabulary (codes comparable).

    Only does work after :func:`reset_vocabulary` swapped vocabularies —
    the common case is a pointer comparison."""
    if left._vocab is not right._vocab:
        right = _reencode(right, left._vocab)
    return left, right


def join(left: ColumnarRelation, right: ColumnarRelation) -> ColumnarRelation:
    """Vectorized natural join multiplying multiplicities (``r̃join``)."""
    common = left.schema.common(right.schema)
    if not common:
        return cross_product(left, right)
    left, right = _aligned(left, right)
    left_key = left.schema.project_positions(common)
    right_key = right.schema.project_positions(common)
    lkey, rkey = _pack_keys(
        [left._codes[p] for p in left_key], [right._codes[p] for p in right_key]
    )
    lidx, ridx = _match_pairs(lkey, rkey)
    out_schema = left.schema.union(right.schema)
    right_extra = [
        i for i, a in enumerate(right.attributes) if a not in left.schema
    ]
    codes = [column[lidx] for column in left._codes]
    codes.extend(right._codes[i][ridx] for i in right_extra)
    mult = _pair_products(left._mult[lidx], right._mult[ridx])
    # Distinct inputs give distinct outputs (all left attributes plus the
    # right extras pin the pair), so no regrouping pass is needed.
    return ColumnarRelation._from_parts(out_schema, codes, mult, vocab=left._vocab)


def cross_product(left: ColumnarRelation, right: ColumnarRelation) -> ColumnarRelation:
    """Bag cross product (multiplicities multiply)."""
    overlap = left.schema.common(right.schema)
    if overlap:
        raise SchemaError(f"cross product with overlapping attributes {overlap}")
    left, right = _aligned(left, right)
    out_schema = left.schema.union(right.schema)
    n_left, n_right = left._mult.size, right._mult.size
    lidx = np.repeat(np.arange(n_left), n_right)
    ridx = np.tile(np.arange(n_right), n_left)
    codes = [column[lidx] for column in left._codes]
    codes.extend(column[ridx] for column in right._codes)
    mult = _pair_products(left._mult[lidx], right._mult[ridx])
    return ColumnarRelation._from_parts(out_schema, codes, mult, vocab=left._vocab)


def group_by(relation: ColumnarRelation, attributes: Sequence[str]) -> ColumnarRelation:
    """Vectorized ``γ_A``: project onto ``attributes`` summing counts."""
    positions = relation.schema.project_positions(attributes)
    codes, mult = _dedupe_sum([relation._codes[p] for p in positions], relation._mult)
    return ColumnarRelation._from_parts(
        Schema(attributes), codes, mult, vocab=relation._vocab
    )


def semijoin(left: ColumnarRelation, right: ColumnarRelation) -> ColumnarRelation:
    """Yannakakis reducer: keep ``left`` rows matching some ``right`` row."""
    common = left.schema.common(right.schema)
    if not common:
        if right.is_empty():
            return ColumnarRelation._from_parts(
                left.schema, [c[:0] for c in left._codes], _EMPTY_INT64,
                vocab=left._vocab,
            )
        return left
    left, right = _aligned(left, right)
    left_key = left.schema.project_positions(common)
    right_key = right.schema.project_positions(common)
    lkey, rkey = _pack_keys(
        [left._codes[p] for p in left_key], [right._codes[p] for p in right_key]
    )
    mask = np.isin(lkey, rkey)
    return ColumnarRelation._from_parts(
        left.schema, [c[mask] for c in left._codes], left._mult[mask],
        vocab=left._vocab,
    )


def union_all(relations: Sequence[ColumnarRelation]) -> ColumnarRelation:
    """Bag union (multiplicities add).  All schemas must match exactly."""
    if not relations:
        raise SchemaError("union_all requires at least one relation")
    schema = relations[0].schema
    for rel in relations:
        if rel.schema != schema:
            raise SchemaError(f"union_all schema mismatch: {rel.schema} vs {schema}")
    vocab = relations[0]._vocab
    relations = [
        rel if rel._vocab is vocab else _reencode(rel, vocab) for rel in relations
    ]
    codes = [
        np.concatenate([rel._codes[i] for rel in relations])
        for i in range(schema.arity)
    ]
    mult = np.concatenate([rel._mult for rel in relations])
    codes, mult = _dedupe_sum(codes, mult)
    return ColumnarRelation._from_parts(schema, codes, mult, vocab=vocab)


def difference(left: ColumnarRelation, right: ColumnarRelation) -> ColumnarRelation:
    """Bag difference ``left ∸ right`` (monus: counts floor at zero)."""
    if left.schema != right.schema:
        raise SchemaError(f"difference schema mismatch: {left.schema} vs {right.schema}")
    if left.schema.arity == 0:
        remaining = left.total_count() - right.total_count()
        return ColumnarRelation(
            left.schema, {(): remaining} if remaining > 0 else {}
        )
    left, right = _aligned(left, right)
    lkey, rkey = _pack_keys(left._codes, right._codes)
    lidx, ridx = _match_pairs(lkey, rkey)
    mult = left._mult.copy()
    mult[lidx] -= right._mult[ridx]
    keep = mult > 0
    return ColumnarRelation._from_parts(
        left.schema, [c[keep] for c in left._codes], mult[keep], vocab=left._vocab
    )


def clamp_counts_to_top_k(relation: ColumnarRelation, k: int) -> ColumnarRelation:
    """Vectorized top-k clamp (Sec. 5.4): counts below the k-th largest rise
    to it.  Used by :func:`repro.core.topk.clamp_to_top_k`."""
    mult = relation._mult
    if mult.size <= k:
        return relation
    threshold = np.partition(mult, mult.size - k)[mult.size - k]
    return ColumnarRelation._from_parts(
        relation._schema, relation._codes, np.maximum(mult, threshold),
        vocab=relation._vocab,
    )
