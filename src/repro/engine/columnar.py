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
`cross_product`, `union_all`, `patch`) produce bags equal to the
per-tuple versions, only via vectorized kernels:

* joins take one of two paths (see `join`).  When every attribute of
  the larger operand is a join attribute, or it has a code-order row key
  (below) whose leading attributes are exactly the join attributes, or
  one attribute of few values followed by them, the join is a *range
  search*: the larger side's rows matching one smaller-side row are one
  run of its row key (one run per value of that attribute), found by
  ``searchsorted`` in O(d log n) for ``d`` smaller-side rows against
  ``n`` larger-side rows (a *lookup* when every attribute is a join
  attribute, since the side is then unique on the key).  Every other
  join takes the *sort path*: pack both keys, argsort the smaller one,
  drop the larger-side keys outside its range, locate each remaining
  key's match range with ``searchsorted`` and expand the ranges without
  a Python-level loop.  No sort is memoised across joins; the row key
  cached on the relation is all a join reuses;
* group-by deduplicates with ``np.unique`` on the stacked key columns and
  sums multiplicities with ``np.add.at``;
* semijoin is an ``np.isin`` mask; union is concatenate + regroup;
* patch (``(relation ⊎ plus) ∸ minus``, which is also `difference`)
  locates both sides' rows by one ``searchsorted`` in the relation's
  packed row key and writes each array it changes once.

**Code order.** Every relation built through :func:`_dedupe_sum` — the
constructor, `group_by`, `union_all` — stores its rows sorted
lexicographically by their codes and says so (``_ordered``), so its row
key is packed on first use without a sort (:func:`_row_key_of`); a
patched relation keeps that order and carries its packed row key
(:class:`_RowKey`), so the next patch never re-sorts it and re-packs it
only once new values outgrow the key's radices.  A rename shares the
code arrays and hands the key on.  Only
join outputs, and filters or renames of them, are out of code order
(besides operands re-encoded after :func:`reset_vocabulary`); the first
patch or lookup join into such a relation sorts it once, and its key is
cached for the next one.

Multiplicities use ``int64``: this engine targets counting workloads whose
counts fit machine integers (the Python backend's arbitrary-precision ints
remain available for adversarial inputs).
"""

from __future__ import annotations

import math
import threading
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
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

    Threads may encode at once (a served head read runs while the writer
    folds a batch).  A known value is looked up without a lock; a new one
    is assigned its code under :attr:`_lock`, after a second look-up, so
    each value gets exactly one code and no two values share one.  The
    value is appended before its code is published, so a code read
    without the lock always indexes :attr:`values`.
    """

    __slots__ = ("code_of", "values", "_lock")

    def __init__(self) -> None:
        self.code_of: Dict[object, int] = {}
        self.values: List[object] = []
        self._lock = threading.Lock()

    def encode(self, value: object) -> int:
        code = self.code_of.get(value)
        if code is None:
            with self._lock:
                code = self.code_of.get(value)
                if code is None:
                    code = len(self.values)
                    self.values.append(value)
                    self.code_of[value] = code
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


def _checked_add(mult: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """Element-wise sums of non-negative multiplicities, overflow-checked.

    ``mult + extra`` leaves ``int64`` exactly where ``mult > max - extra``,
    which is computed without overflow, so no exact recomputation pass is
    needed."""
    if bool((mult > _INT64_MAX - extra).any()):
        raise MultiplicityOverflowError(
            "patch would overflow int64 multiplicities on the columnar "
            "backend; use the python backend for counts this large"
        )
    return mult + extra


def _checked_exact_sums(
    inverse: np.ndarray, mult: np.ndarray, n_groups: int
) -> np.ndarray:
    """Per-group multiplicity sums, exact: ``int64`` while ``max * count``
    bounds every sum, Python ints in an object array otherwise."""
    if int(mult.max()) * mult.size <= _INT64_MAX:
        sums = np.zeros(n_groups, dtype=np.int64)
        np.add.at(sums, inverse, mult)
        return sums
    exact = np.zeros(n_groups, dtype=object)
    np.add.at(exact, inverse, mult.astype(object))
    return exact


def _group_sums(inverse: np.ndarray, mult: np.ndarray, n_groups: int) -> np.ndarray:
    """Per-group multiplicity sums, overflow-checked.

    ``max * count`` cheaply bounds every possible group sum; when that
    bound trips, the sums are recomputed exactly in Python ints — so
    huge-but-fitting inputs still pass and only true int64 overflow raises
    :class:`MultiplicityOverflowError`."""
    sums = _checked_exact_sums(inverse, mult, n_groups)
    if sums.dtype != object:
        return sums
    if sums.size and max(sums.tolist()) > _INT64_MAX:
        raise MultiplicityOverflowError(
            "aggregation would overflow int64 multiplicities on the "
            "columnar backend; use the python backend for counts this large"
        )
    return sums.astype(np.int64)


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
def _key_radices(*column_sets: Sequence[np.ndarray]) -> Optional[Tuple[int, ...]]:
    """Mixed radices covering the codes of aligned column sets.

    Any radices above each column's top code preserve lexicographic row
    order.  Each radix gets 2x headroom when the packed span still fits
    62 bits, so a cached row key keeps covering new values (which take the
    next free codes) for a while; ``None`` when even tight radices do not
    fit."""
    tops = [
        max((int(col.max()) for col in cols if col.size), default=0) + 1
        for cols in zip(*column_sets)
    ]
    for radices in ([2 * top for top in tops], tops):
        if math.prod(radices) < 2**62:
            return tuple(radices)
    return None


def _pack_rows(cols: Sequence[np.ndarray], radices: Tuple[int, ...]) -> np.ndarray:
    """Mixed-radix key of rows whose codes lie within ``radices``."""
    if not radices:
        return cols[0]
    key = np.zeros(cols[0].shape, dtype=np.int64)
    for col, radix in zip(cols, radices):
        key = key * radix + col
    return key


def _pack_single(cols: Sequence[np.ndarray]) -> Optional[np.ndarray]:
    """Mixed-radix pack of several code columns into one ``int64`` key.

    Preserves lexicographic row order (first column most significant).
    Returns ``None`` when the combined range would overflow 62 bits.
    """
    radices = _key_radices(cols)
    return None if radices is None else _pack_rows(cols, radices)


def _dedupe_sum(
    codes: Sequence[np.ndarray], mult: np.ndarray
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Group identical code rows, summing multiplicities; drop zero groups.

    One row is already distinct and in code order, so it is returned as
    it is (a one-tuple update builds and groups several such deltas)."""
    if mult.size == 0:
        return [c[:0] for c in codes], _EMPTY_INT64
    if not codes:
        total = _group_sums(np.zeros(mult.size, dtype=np.int64), mult, 1)[0]
        if total == 0:
            return [], _EMPTY_INT64
        return [], np.array([total], dtype=np.int64)
    if mult.size == 1:
        if mult[0] == 0:
            return [c[:0] for c in codes], _EMPTY_INT64
        return list(codes), mult
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
    packing (:func:`_key_radices`) when the combined range fits 62 bits,
    otherwise a joint ``np.unique`` renumbering (exact, never overflows).
    """
    if len(cols_a) == 1:
        return cols_a[0], cols_b[0]
    radices = _key_radices(cols_a, cols_b)
    if radices is not None:
        return _pack_rows(cols_a, radices), _pack_rows(cols_b, radices)
    stacked = np.concatenate(
        [np.column_stack(cols_a), np.column_stack(cols_b)], axis=0
    )
    _, inverse = np.unique(stacked, axis=0, return_inverse=True)
    inverse = np.ravel(inverse).astype(np.int64)
    split = cols_a[0].shape[0]
    return inverse[:split], inverse[split:]


def _runs(start: np.ndarray, stop: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)`` with ``start[i] <= j < stop[i]``, ordered by
    ``i`` and then ``j``, expanded without a Python-level loop."""
    counts = stop - start
    rows = np.repeat(np.arange(counts.size), counts)
    offsets = np.cumsum(counts) - counts
    at = np.repeat(start - offsets, counts) + np.arange(rows.size)
    return rows, at


def _match_pairs(lkey: np.ndarray, rkey: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(lidx, ridx)`` with ``lkey[lidx] == rkey[ridx]``.

    The sort-path join core: sort the *smaller* key array, locate each
    larger-side key's match range with two ``searchsorted`` calls, then
    expand the ranges into explicit pairs (:func:`_runs`).  Larger-side
    keys outside the smaller side's ``[min, max]`` match nothing: when at
    most half the keys lie inside, only those are copied out and
    searched, so the pruned arrays never outgrow the search arrays they
    save.  Otherwise, and with no array made when every key lies inside,
    all keys are searched.  Pruned or not, the pairs and their order are
    the same.
    """
    if lkey.size < rkey.size:
        ridx, lidx = _match_pairs(rkey, lkey)
        return lidx, ridx
    if rkey.size == 0:
        return _EMPTY_INT64, _EMPTY_INT64
    order = np.argsort(rkey, kind="stable")
    sorted_r = rkey[order]
    low, high = sorted_r[0], sorted_r[-1]
    inside = None
    if lkey.min() < low or lkey.max() > high:
        mask = (lkey >= low) & (lkey <= high)
        if 2 * int(np.count_nonzero(mask)) <= lkey.size:
            inside = np.flatnonzero(mask)
            lkey = lkey[inside]
    start = np.searchsorted(sorted_r, lkey, side="left")
    stop = np.searchsorted(sorted_r, lkey, side="right")
    lidx, at = _runs(start, stop)
    if inside is not None:
        lidx = inside[lidx]
    return lidx, order[at]


class _RowKey(NamedTuple):
    """Where a relation's rows sit in code order.

    ``key`` holds one strictly increasing ``int64`` per row in code order;
    ``order`` is the permutation that puts the stored rows in code order,
    ``None`` when they already are.  ``radices`` are the mixed radices the
    key was packed with — ``()`` for a single column, whose codes are the
    key — or ``None`` for joint ranks, which hold only against the probe
    rows they were computed with and so are never cached.
    """

    key: np.ndarray
    order: Optional[np.ndarray]
    radices: Optional[Tuple[int, ...]]


def _probe_key(cols: Sequence[np.ndarray], radices: Tuple[int, ...]) -> np.ndarray:
    """Probe rows packed under ``radices``; a row with a code outside them
    gets key ``-1``, which matches no relation row."""
    if not radices:
        return cols[0]
    outside = np.zeros(cols[0].shape, dtype=bool)
    for col, radix in zip(cols, radices):
        outside |= col >= radix
    if not outside.any():
        return _pack_rows(cols, radices)
    key = _pack_rows([np.where(outside, 0, col) for col in cols], radices)
    key[outside] = -1
    return key


def _covers(cols: Sequence[np.ndarray], radices: Tuple[int, ...]) -> bool:
    return all(
        int(col.max()) < radix for col, radix in zip(cols, radices) if col.size
    )


def _keyed(
    relation: "ColumnarRelation", probes: Sequence[np.ndarray], cover: bool
) -> Tuple[_RowKey, np.ndarray]:
    """``relation``'s code-order row key, and the probe rows' keys in the
    same space.

    The key is computed once per relation and cached on it (a patched
    relation is born with its own).  It is reused unless ``cover`` — a
    patch with a ``plus`` side, whose new rows need keys of their own —
    meets a probe code its radices do not cover; it is then re-packed over the rows already in
    code order, so no relation is sorted twice.  Rows whose span does not
    fit 62 bits fall back to joint ranks against the probes.
    """
    codes = relation._codes
    cached = relation._row_key
    if cached is not None and (not cover or _covers(probes, cached.radices)):
        return cached, _probe_key(probes, cached.radices)
    order = cached.order if cached is not None else None
    if len(codes) == 1:
        radices: Optional[Tuple[int, ...]] = ()
    else:
        radices = _key_radices(codes, probes)
    if radices is None:
        key, probe_key = _pack_keys(codes, probes)
    else:
        key, probe_key = _pack_rows(codes, radices), _probe_key(probes, radices)
    if order is not None:
        key = key[order]
    elif key.size > 1 and not relation._ordered and not bool((key[1:] > key[:-1]).all()):
        order = np.argsort(key, kind="stable")
        key = key[order]
    row_key = _RowKey(key, order, radices)
    if radices is not None:
        # Racing callers may each store a key; every one is valid for the
        # relation, and each caller goes on with the key it computed.
        relation._row_key = row_key
    return row_key, probe_key


def _placed(
    arrays: Sequence[np.ndarray],
    gone: np.ndarray,
    slots: np.ndarray,
    values: Sequence[np.ndarray],
) -> List[np.ndarray]:
    """Copies of the aligned ``arrays`` without the rows at ``gone`` and
    with ``values`` inserted before the rows at ``slots`` (both sorted),
    each written once through one pair of placement masks."""
    kept = None
    if gone.size:
        kept = np.ones(arrays[0].size, dtype=bool)
        kept[gone] = False
    if not slots.size:
        return [array[kept] for array in arrays]
    # A new row lands past the kept rows before its slot and the new rows
    # before it.
    target = slots + np.arange(slots.size)
    if gone.size:
        target -= np.searchsorted(gone, slots)
    old = np.ones(arrays[0].size - gone.size + slots.size, dtype=bool)
    old[target] = False
    out = []
    for array, value in zip(arrays, values):
        placed = np.empty(old.size, dtype=array.dtype)
        placed[target] = value
        placed[old] = array if kept is None else array[kept]
        out.append(placed)
    return out


def _search(key: np.ndarray, probe_key: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(position, found)`` of each probe key in the sorted ``key``."""
    pos = np.searchsorted(key, probe_key)
    found = pos < key.size
    found[found] = key[pos[found]] == probe_key[found]
    return pos, found


# ------------------------------------------------------------------ class
class ColumnarRelation:
    """A finite bag of tuples over a fixed schema, stored columnar.

    Drop-in duck-type for :class:`~repro.engine.relation.Relation`: the
    constructor, accessors and derivations match signature for
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
        "_column_values_cache", "_row_key", "_ordered", "_firsts", "_peaks",
        "_peak_bounds",
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
        self._row_key: Optional[_RowKey] = None
        # _dedupe_sum leaves the rows in code order (see _row_key_of).
        self._ordered = True
        self._firsts: Optional[np.ndarray] = None
        self._peaks: Optional[Dict[int, int]] = None
        self._peak_bounds: Optional[Mapping[int, Tuple[int, int]]] = None

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
        ordered: bool = False,
    ) -> "ColumnarRelation":
        """Fast constructor for already-encoded columns (internal).

        ``vocab`` is the vocabulary the codes were encoded under; defaults
        to the current process vocabulary.  ``ordered`` says the rows are
        in code order, as :func:`_dedupe_sum` leaves them."""
        if not deduped:
            codes, mult = _dedupe_sum(codes, mult)
            ordered = True
        rel = cls.__new__(cls)
        rel._schema = schema
        rel._codes = tuple(codes)
        rel._mult = mult
        rel._counts_cache = None
        rel._vocab = vocab if vocab is not None else _VOCAB
        rel._column_values_cache = None
        rel._row_key = None
        rel._ordered = ordered
        rel._firsts = None
        rel._peaks = None
        rel._peak_bounds = None
        return rel

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
        """Total multiplicity (bag cardinality) — the paper's ``|Q(D)|``.

        Exact like the python backend: a total past ``int64`` is summed in
        Python ints instead of wrapping."""
        if not self._mult.size:
            return 0
        if int(self._mult.max()) * self._mult.size <= _INT64_MAX:
            return int(self._mult.sum())
        return sum(self._mult.tolist())

    def multiplicity(self, row: Sequence[object]) -> int:
        """Multiplicity of ``row`` (0 if absent)."""
        return self.multiplicities([row])[0]

    def multiplicities(self, rows: Sequence[Sequence[object]]) -> list:
        """Bulk :meth:`multiplicity` lookup: one count per input row.

        Located by ``searchsorted`` in the relation's code-order row key,
        the same lookup :func:`patch` uses — batched update compaction and
        validation ask for many pre-batch counts at once."""
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
        row_key, probe_key = _keyed(self, qarrays, cover=False)
        pos, found = _search(row_key.key, probe_key)
        at = pos[found] if row_key.order is None else row_key.order[pos[found]]
        for i, cnt in zip(np.nonzero(found)[0].tolist(), self._mult[at].tolist()):
            out[present[i]] = cnt
        return out

    def is_empty(self) -> bool:
        """True iff the bag holds no tuples."""
        return self._mult.size == 0

    def __contains__(self, row: object) -> bool:
        if not isinstance(row, tuple) or len(row) != self._schema.arity:
            return False
        return self.multiplicities([row])[0] > 0

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
        # column decodes to an exact integer array the lexicographic min
        # vectorises with lexsort; anything else (a float among the values
        # would round ints past 2**53 together) takes Python tuple ordering.
        decoded_columns = []
        exact = True
        for column in self._codes:
            vals = [values[c] for c in column[candidates].tolist()]
            arr = np.asarray(vals)
            if arr.dtype.kind not in "biu":
                exact = False
                break
            decoded_columns.append(arr)
        if exact:
            order = np.lexsort(tuple(reversed(decoded_columns)))
            i = int(candidates[order[0]])
            best_row = tuple(values[column[i]] for column in self._codes)
        else:
            best_row = min(
                tuple(values[column[i]] for column in self._codes)
                for i in candidates.tolist()
            )
        return best_row, best_cnt

    # ------------------------------------------------------------- derivation
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
                ordered=self._ordered,
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
            ordered=self._ordered,
        )

    def rename(self, mapping: Mapping[str, str]) -> "ColumnarRelation":
        """Return the same bag under renamed attributes — O(arity).

        The code arrays are shared and keep their positions, so the row
        key, the leading column's values, the column peaks and their
        handed-on bounds (:func:`~repro.engine.operators.max_rows_per_value`)
        are handed on."""
        new_attrs = [mapping.get(a, a) for a in self._schema.attributes]
        renamed = ColumnarRelation._from_parts(
            Schema(new_attrs), self._codes, self._mult, vocab=self._vocab,
            ordered=self._ordered,
        )
        renamed._row_key = self._row_key
        renamed._firsts = self._firsts
        if self._peaks is None:
            self._peaks = {}
        renamed._peaks = self._peaks
        renamed._peak_bounds = self._peak_bounds
        return renamed

    def scale_counts(self, factor: int) -> "ColumnarRelation":
        """Multiply every multiplicity by a positive integer ``factor``."""
        if factor <= 0:
            raise SchemaError(f"scale factor must be positive, got {factor}")
        return ColumnarRelation._from_parts(
            self._schema, self._codes, _checked_scale(self._mult, factor), vocab=self._vocab,
            ordered=self._ordered,
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


def _row_key_of(relation: ColumnarRelation) -> Optional[_RowKey]:
    """``relation``'s cached row key, computed now for a relation stored
    in code order (an O(n) pack, no sort); ``None`` for a relation out of
    code order that carries none, or whose rows do not pack in 62 bits."""
    if relation._row_key is None and relation._ordered and relation._codes:
        row_key, _ = _keyed(relation, [col[:0] for col in relation._codes], cover=False)
        return row_key if row_key.radices is not None else None
    return relation._row_key


def _leading_codes(relation: ColumnarRelation) -> np.ndarray:
    """The distinct codes of ``relation``'s first column, sorted: read off
    the runs of a relation in code order, memoised, and handed on by
    :func:`patch` (a superset after a monus)."""
    if relation._firsts is None:
        column = relation._codes[0]
        if relation._ordered:
            relation._firsts = column[np.flatnonzero(np.diff(column, prepend=-1))]
        else:
            relation._firsts = np.unique(column)
    return relation._firsts


def _range_pairs(
    keyed: ColumnarRelation, probe: ColumnarRelation, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(kidx, pidx)`` of matching rows when the first
    ``width`` attributes of ``keyed`` are exactly the join attributes.

    In ``keyed``'s code-order row key (:func:`_keyed`) the rows that share
    those attributes' codes are one run: the keys from ``p·s`` up to
    ``(p + 1)·s``, where ``p`` packs a probe row's join codes under the
    key's leading radices and ``s`` is the product of its trailing ones.
    Two ``searchsorted`` calls find every probe row's run, O(d log n) for
    ``d`` probe rows against ``n`` keyed rows.  When every attribute of
    ``keyed`` is a join attribute, ``s`` is 1, ``keyed`` is unique on the
    key and its key is computed here if it has none; otherwise the caller
    checked that :func:`_row_key_of` finds one."""
    columns = [
        probe._codes[probe.schema.index_of(a)] for a in keyed.attributes[:width]
    ]
    if width == keyed.schema.arity:
        # Runs of at most one row: one search per probe row suffices.
        row_key, probe_key = _keyed(keyed, columns, cover=False)
        pos, found = _search(row_key.key, probe_key)
        pidx, at = np.nonzero(found)[0], pos[found]
        kidx = at if row_key.order is None else row_key.order[at]
        return kidx, pidx
    row_key = _row_key_of(keyed)
    probe_key = _probe_key(columns, row_key.radices[:width])
    return _run_pairs(row_key, probe_key, np.arange(probe_key.size), width)


def _skip_pairs(
    keyed: ColumnarRelation, probe: ColumnarRelation, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_range_pairs` past a free first attribute: the ``width``
    attributes of ``keyed`` after its first are exactly the join
    attributes, so each probe row is searched once per value of the first
    (:func:`_leading_codes`), which :func:`join` takes only when those
    searches are few."""
    row_key = _row_key_of(keyed)
    radices = row_key.radices
    columns = [
        probe._codes[probe.schema.index_of(a)] for a in keyed.attributes[1:1 + width]
    ]
    inner = _probe_key(columns, radices[1:1 + width])
    # Valid probe keys in order, so the searches below run over sorted keys.
    valid = np.flatnonzero(inner >= 0)
    valid = valid[np.argsort(inner[valid], kind="stable")]
    firsts = _leading_codes(keyed)
    firsts = firsts[firsts < radices[0]]
    block = math.prod(radices[1:1 + width])
    probe_key = (firsts[:, None] * block + inner[valid][None, :]).ravel()
    return _run_pairs(row_key, probe_key, np.tile(valid, firsts.size), 1 + width)


def _run_pairs(
    row_key: _RowKey, probe_key: np.ndarray, probe_rows: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Pairs of the row-key rows whose first ``width`` packed codes equal
    a probe key, with the probe row each probe key came from."""
    span = math.prod(row_key.radices[width:])
    # A probe key of -1 (codes outside the radices) gets an empty run.
    start = np.searchsorted(row_key.key, probe_key * span)
    stop = np.searchsorted(row_key.key, (probe_key + 1) * span)
    rows, at = _runs(start, stop)
    kidx = at if row_key.order is None else row_key.order[at]
    return kidx, probe_rows[rows]


def _range_searchable(relation: ColumnarRelation, common: Sequence[str]) -> bool:
    """Whether ``relation`` can be range-searched on ``common``: every
    attribute is a join attribute, or it has a row key
    (:func:`_row_key_of`) whose leading attributes are exactly the join
    attributes."""
    width = len(common)
    if relation.schema.arity == width:
        return True
    leading = set(relation.attributes[:width])
    return leading == set(common) and _row_key_of(relation) is not None


def _skip_searchable(relation: ColumnarRelation, common: Sequence[str], probes: int) -> bool:
    """Whether ``relation`` can be range-searched on ``common`` past a
    free first attribute: its next attributes are exactly the join
    attributes, it has a row key, and one search per value of the first
    attribute for each of ``probes`` rows costs under half a scan."""
    width = len(common)
    return (
        relation.attributes[0] not in common
        and set(relation.attributes[1:1 + width]) == set(common)
        and _row_key_of(relation) is not None
        and 2 * _leading_codes(relation).size * probes <= relation._mult.size
    )


def _joined(
    left: ColumnarRelation,
    right: ColumnarRelation,
    lidx: np.ndarray,
    ridx: np.ndarray,
) -> ColumnarRelation:
    """The join output of the matched row pairs ``(lidx, ridx)``: every
    left column, then the right columns the left lacks."""
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


def join(left: ColumnarRelation, right: ColumnarRelation) -> ColumnarRelation:
    """Vectorized natural join multiplying multiplicities (``r̃join``).

    The larger operand (the right one on a tie) is range-searched when
    every attribute of it is a join attribute or it has a row key
    (:func:`_row_key_of`) that leads with exactly the join attributes
    (:func:`_range_pairs`): O(d log n) for ``d`` smaller-side rows against
    ``n`` larger-side rows.  A patched relation carries such a key, and a
    relation built in code order packs it once, so a fold's delta joined
    into maintained state costs its delta.  When one attribute of few
    values comes before the join attributes, as NK before OK in
    J(gOC)[NK,OK], each smaller-side row is searched once per value of it
    (:func:`_skip_pairs`).  Every other join sorts the smaller side's key
    and searches it for the larger side's keys that fall inside its range
    (:func:`_match_pairs`)."""
    common = left.schema.common(right.schema)
    if not common:
        return cross_product(left, right)
    left, right = _aligned(left, right)
    larger, smaller = (right, left) if right._mult.size >= left._mult.size else (left, right)
    if _range_searchable(larger, common):
        pairs = _range_pairs(larger, smaller, len(common))
    elif _skip_searchable(larger, common, smaller._mult.size):
        pairs = _skip_pairs(larger, smaller, len(common))
    else:
        pairs = None
    if pairs is not None:
        lidx, ridx = pairs if larger is left else pairs[::-1]
    else:
        left_key = left.schema.project_positions(common)
        right_key = right.schema.project_positions(common)
        lkey, rkey = _pack_keys(
            [left._codes[p] for p in left_key], [right._codes[p] for p in right_key]
        )
        lidx, ridx = _match_pairs(lkey, rkey)
    return _joined(left, right, lidx, ridx)


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
        Schema(attributes), codes, mult, vocab=relation._vocab, ordered=True
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
        vocab=left._vocab, ordered=left._ordered,
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
    return ColumnarRelation._from_parts(schema, codes, mult, vocab=vocab, ordered=True)


def _side(
    relation: ColumnarRelation, side: Optional[ColumnarRelation]
) -> Optional[ColumnarRelation]:
    """One side of a :func:`patch` under ``relation``'s vocabulary, or
    ``None`` when it holds no row."""
    if side is None:
        return None
    if side.schema != relation.schema:
        raise SchemaError(f"patch schema mismatch: {relation.schema} vs {side.schema}")
    return None if side.is_empty() else _aligned(relation, side)[1]


def patch(
    relation: ColumnarRelation,
    plus: Optional[ColumnarRelation] = None,
    minus: Optional[ColumnarRelation] = None,
) -> ColumnarRelation:
    """``(relation ⊎ plus) ∸ minus`` in delta time (vectorized
    :func:`repro.engine.operators.patch`).

    The sides' rows are found by one ``searchsorted`` in ``relation``'s
    code-order key (:func:`_keyed`, joint ranks included); a row both
    sides name is one probe, so ``minus`` may take back a row ``plus``
    brings.  Matched counts change in the touched rows only
    (:func:`_checked_add` for ``plus``, before ``minus`` takes anything),
    rows that reach zero go and ``plus``'s new rows land at their sorted
    positions, each array written once (:func:`_placed`).  Code columns
    nothing moves are shared.  The output is in code order and carries
    its key, so patching it again neither sorts nor re-packs.
    ``relation`` itself comes back when ``plus`` is empty and ``minus``
    names no row of it.
    """
    plus, minus = _side(relation, plus), _side(relation, minus)
    if plus is None and minus is None:
        return relation
    if not relation._codes:  # arity 0: one count and no row to find
        total = relation._mult
        if plus is not None:
            total = _checked_add(total, plus._mult) if total.size else plus._mult
        if minus is not None and total.size:
            total = total - minus._mult
            total = total[total > 0]
        if total is relation._mult:
            return relation
        return ColumnarRelation._from_parts(relation.schema, (), total, vocab=relation._vocab)
    # One probe per row of either side, plus's first, with the count it
    # adds (``gain``) and takes away (``loss``).
    probes = (minus if plus is None else plus)._codes
    gain = None if plus is None else plus._mult
    loss = None if minus is None else minus._mult
    if plus is not None and minus is not None:
        probes = [np.concatenate(pair) for pair in zip(plus._codes, minus._codes)]
        gain = np.concatenate([gain, np.zeros(loss.size, dtype=np.int64)])
        loss = np.concatenate([np.zeros(plus._mult.size, dtype=np.int64), loss])
    row_key, probe_key = _keyed(relation, probes, cover=plus is not None)
    key, order = row_key.key, row_key.order
    codes, mult = list(relation._codes), relation._mult
    if order is not None:
        codes, mult = [column[order] for column in codes], mult[order]
    pos, found = _search(key, probe_key)
    if plus is not None:
        by_key = np.argsort(probe_key, kind="stable")
    if plus is not None and minus is not None:
        # A row both sides name is plus's probe just before minus's in key
        # order: minus's hands its count to plus's and finds nothing.
        ranked = probe_key[by_key]
        twin = np.flatnonzero(ranked[1:] == ranked[:-1])
        first, second = by_key[twin], by_key[twin + 1]
        loss[first] = loss[second]
        found[second] = False
    at = pos[found]
    counts = mult[at]
    fresh = gone = slots = _EMPTY_INT64
    if gain is not None:
        counts = _checked_add(counts, gain[found])
        fresh = by_key[~found[by_key]]  # probes of no row, in key order
        fresh_counts = gain[fresh]
    if loss is not None:
        counts = counts - loss[found]
        live = counts > 0
        gone = np.sort(at[~live])
        at, counts = at[live], counts[live]
        if fresh.size:
            fresh_counts = fresh_counts - loss[fresh]
            live = fresh_counts > 0
            fresh, fresh_counts = fresh[live], fresh_counts[live]
    if not (at.size or gone.size or fresh.size):
        return relation
    # A row that stays moves down by the rows gone before it and up by
    # the new rows placed at or before it.
    moved = at
    if gone.size:
        moved = moved - np.searchsorted(gone, at)
    if fresh.size:
        slots = pos[fresh]
        moved = moved + np.searchsorted(slots, at, side="right")
    packed = bool(row_key.radices)  # a key array of its own to keep in step
    arrays = codes + [mult] + ([key] if packed else [])
    if gone.size or fresh.size:
        values = []
        if fresh.size:
            values = [column[fresh] for column in probes] + [fresh_counts, probe_key[fresh]]
        arrays = _placed(arrays, gone, slots, values)
    codes, new_mult = arrays[: len(codes)], arrays[len(codes)]
    if new_mult is relation._mult:
        new_mult = new_mult.copy()
    new_mult[moved] = counts
    out = ColumnarRelation._from_parts(
        relation.schema, codes, new_mult, vocab=relation._vocab, ordered=True
    )
    if row_key.radices is not None:
        out._row_key = _RowKey(arrays[-1] if packed else codes[0], None, row_key.radices)
    if relation._firsts is not None:
        # Values of the leading column: a superset stays valid after a monus.
        firsts = relation._firsts
        out._firsts = firsts if plus is None else np.union1d(firsts, plus._codes[0])
    return out


def _run_sums(mult: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Exact count sums of the runs that begin at ``starts``: ``int64``
    while ``max * count`` bounds every sum, Python ints otherwise."""
    if int(mult.max()) * mult.size <= _INT64_MAX:
        return np.add.reduceat(mult, starts)
    return np.add.reduceat(mult.astype(object), starts)


def _in_code_order(relation: ColumnarRelation) -> bool:
    """Whether ``relation``'s stored rows are known to be in code order:
    built in it, or carrying a row key that needs no permutation."""
    return relation._ordered or (
        relation._row_key is not None and relation._row_key.order is None
    )


class ValueGroups:
    """``relation`` grouped on ``attributes``: per distinct value its row
    count, exact count sum and largest count (vectorized
    :func:`repro.engine.operators.value_groups`).

    When the stored rows are in code order and ``attributes`` are the
    leading attributes, as in a patched relation stored shared-first,
    each value is one run of rows and the groups are read off the run
    boundaries without a sort; otherwise ``np.unique`` groups them.
    ``keys`` holds each group's codes, one array per attribute;
    ``inverse`` each row's group, or ``starts`` each run's first row.  The
    least peak rows a factor's tie-break asks for are memoised, so groups
    reused across folds decode them once.
    """

    __slots__ = (
        "relation", "attributes", "keys", "inverse", "starts", "rows", "sums",
        "peak", "_least",
    )

    def __init__(self, relation: ColumnarRelation, attributes: Sequence[str]):
        self.relation = relation
        self.attributes = tuple(attributes)
        positions = relation.schema.project_positions(attributes)
        cols = [relation._codes[p] for p in positions]
        mult = relation._mult
        self.starts: Optional[np.ndarray] = None
        self._least: Dict[Tuple[int, Tuple[str, ...]], Row] = {}
        if mult.size == 0:
            self.keys = [col[:0] for col in cols]
            self.inverse = self.rows = self.sums = self.peak = _EMPTY_INT64
            return
        if _in_code_order(relation) and sorted(positions) == list(range(len(cols))):
            change = np.zeros(mult.size, dtype=bool)
            change[0] = True
            for col in cols:
                change[1:] |= col[1:] != col[:-1]
            starts = np.flatnonzero(change)
            self.starts = starts
            self.keys = [col[starts] for col in cols]
            self.inverse = None  # a group is the run from its start
            self.rows = np.diff(np.append(starts, mult.size))
            self.sums = _run_sums(mult, starts)
            self.peak = np.maximum.reduceat(mult, starts)
            return
        packed = cols[0] if len(cols) == 1 else _pack_single(cols)
        if packed is None:
            _, first, inverse = np.unique(
                np.column_stack(cols), axis=0, return_index=True, return_inverse=True
            )
        else:
            _, first, inverse = np.unique(packed, return_index=True, return_inverse=True)
        inverse = np.ravel(inverse)
        self.keys = [col[first] for col in cols]
        self.inverse = inverse
        self.rows = np.bincount(inverse, minlength=first.size)
        self.sums = _checked_exact_sums(inverse, mult, first.size)
        self.peak = np.zeros(first.size, dtype=np.int64)
        np.maximum.at(self.peak, inverse, mult)

    def least_peak_rows(self, groups: Sequence[int], kept: Sequence[str]) -> List[Row]:
        """Per group, the smallest projection onto ``kept`` (under Python
        tuple order) of the rows holding the group's largest count."""
        kept = tuple(kept)
        missing = [g for g in dict.fromkeys(groups) if (g, kept) not in self._least]
        if missing:
            relation = self.relation
            mult = relation._mult
            if self.starts is not None:
                # Each group is one run: search it alone.
                found = []
                for g in missing:
                    start = int(self.starts[g])
                    run = mult[start:start + int(self.rows[g])]
                    found.append(start + np.flatnonzero(run == self.peak[g]))
                at = np.concatenate(found)
                owner = np.repeat(missing, [rows.size for rows in found])
            else:
                wanted = np.zeros(self.peak.size, dtype=bool)
                wanted[missing] = True
                at = np.flatnonzero(wanted[self.inverse])
                at = at[mult[at] == self.peak[self.inverse[at]]]
                owner = self.inverse[at]
            values = relation._vocab.values
            columns = [
                [values[c] for c in relation._codes[p][at].tolist()]
                for p in relation.schema.project_positions(kept)
            ]
            least: Dict[int, Row] = {}
            for group, row in zip(owner.tolist(), zip(*columns) if kept else [()] * at.size):
                if group not in least or row < least[group]:
                    least[group] = row
            for group in missing:
                self._least[(group, kept)] = least[group]
        return [self._least[(g, kept)] for g in groups]


def join_summary(
    left: ValueGroups, right: ValueGroups
) -> Tuple[int, int, int, List[Tuple[int, int]]]:
    """Vectorized :func:`repro.engine.operators.join_summary`.

    The two operands' group keys are matched once; a value with ``l`` and
    ``r`` rows, count sums ``L`` and ``R`` and largest counts ``ml`` and
    ``mr`` contributes ``l·r`` rows and ``L·R`` to the total, and its
    largest product is ``ml·mr``, overflow-checked by
    :func:`_pair_products` exactly as the join checks its pairs."""
    if right.relation._vocab is not left.relation._vocab:
        right = ValueGroups(_reencode(right.relation, left.relation._vocab), right.attributes)
    if left.peak.size == 0 or right.peak.size == 0:
        return 0, 0, 0, []
    lkey, rkey = _pack_keys(left.keys, right.keys)
    _, li, ri = np.intersect1d(lkey, rkey, assume_unique=True, return_indices=True)
    if li.size == 0:
        return 0, 0, 0, []
    rows = int(np.dot(left.rows[li], right.rows[ri]))
    # One term per shared value, in Python ints: exact past int64.
    total = sum(a * b for a, b in zip(left.sums[li].tolist(), right.sums[ri].tolist()))
    products = _pair_products(left.peak[li], right.peak[ri])
    best = int(products.max())
    tied = products == best
    return rows, total, best, list(zip(li[tied].tolist(), ri[tied].tolist()))


def column_peak(relation: ColumnarRelation, position: int) -> int:
    """Most rows sharing one code of a column of a non-empty relation:
    ``bincount`` over the codes when they are dense enough, a sort of the
    column otherwise (a short column of large codes)."""
    column = relation._codes[position]
    if column.size == 1:
        return 1
    if int(column.max()) <= 4 * column.size:
        return int(np.bincount(column).max())
    ordered = np.sort(column)
    bounds = np.flatnonzero(ordered[1:] != ordered[:-1])
    return int(np.diff(bounds, prepend=-1, append=ordered.size - 1).max())


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
