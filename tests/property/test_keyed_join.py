"""Property suite for the columnar join's two paths.

When every attribute of the larger operand is a join attribute, or the
larger operand has a row key (cached, or packed on first use when it was
built in code order) whose leading attributes are exactly the join
attributes, the columnar `join` range-searches the smaller operand's key
columns in the larger operand's code-order row key, once per value of a
free first attribute when one of few values comes before them; every
other join sorts the smaller side's key and searches it for the larger
side's keys inside its range.  Either way the output must
equal the python backend's join (schema and counts), and ``join(l, r)``
must equal ``join(r, l)`` up to attribute order.  Inputs cover a keyed
larger side with 1–3 key columns in a different column order on each
side, a keyed smaller side, no keyed side, both sides keyed at equal
sizes, empty operands, operands from different vocabularies, a keyed
side out of code order (a join output, rows stored in reverse), a keyed
side patched after its key was cached and probed by codes past the key's
radices, and a key past 62 bits, which takes the joint-rank fallback.
Patched relations of arity ≤4 whose row key leads with 1–2 join
attributes are range-searched by smaller sides whose keys lie inside,
overlap or miss their range, including codes past the key's radices,
repeated join keys and no rows at all; relations built or patched with
a free first attribute of 1–3 values are searched past it, and a patch
hands the first attribute's values on; and the sort path's range pruning
returns the pairs an unpruned search returns, in the same order.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine import Relation, join, patch
from repro.engine import columnar
from repro.engine.columnar import ColumnarRelation, reset_vocabulary

KEY = ("K1", "K2", "K3")


@st.composite
def join_cases(draw):
    """Two bags sharing 1–3 join attributes, each in its own column order.
    A side without an extra attribute is keyed; values 0–4 make the bags
    share rows.  Either side may be stored in reverse (out of code order),
    and the right side may be encoded under a fresh vocabulary."""
    key = list(KEY[: draw(st.integers(min_value=1, max_value=3))])
    cases = []
    for extra in ("X", "Y"):
        attrs = draw(st.permutations(key + ([extra] if draw(st.booleans()) else [])))
        row = st.tuples(*[st.integers(min_value=0, max_value=4)] * len(attrs))
        counts = draw(
            st.dictionaries(row, st.integers(min_value=1, max_value=4), max_size=10)
        )
        cases.append((tuple(attrs), counts))
    return cases[0], cases[1], draw(st.booleans()), draw(st.booleans())


LARGER_KEYED = (
    (("K2", "K1", "X"), {(0, 1, 5): 2, (1, 1, 6): 1}),
    (("K1", "K2"), {(1, 0): 3, (1, 1): 1, (2, 2): 1, (4, 0): 2}),
    False,
    False,
)
SMALLER_KEYED = (
    (("K1",), {(0,): 2}),
    (("Y", "K1"), {(5, 0): 1, (6, 0): 2, (7, 1): 1}),
    False,
    False,
)
NEITHER_KEYED = (
    (("X", "K1"), {(5, 0): 1, (6, 1): 2}),
    (("K1", "Y"), {(0, 7): 1, (0, 8): 3, (1, 9): 1}),
    False,
    False,
)
BOTH_KEYED_EQUAL = (
    (("K3", "K1", "K2"), {(0, 1, 2): 2, (2, 1, 0): 1}),
    (("K1", "K2", "K3"), {(1, 2, 0): 5, (1, 0, 0): 1}),
    False,
    False,
)
EMPTY_PROBE = ((("K1", "X"), {}), (("K1",), {(0,): 1}), False, False)
EMPTY_BOTH = ((("K1",), {}), (("K1", "Y"), {}), False, False)
UNORDERED_NEW_VOCABULARY = (
    (("K1", "K2"), {(4, 0): 1, (3, 1): 2, (0, 4): 1}),
    (("K2", "K1", "Y"), {(1, 3, 0): 1, (4, 0, 1): 2}),
    True,
    True,
)


def _unordered(attrs, counts):
    """A columnar bag whose rows are stored in reverse code order."""
    ordered = ColumnarRelation(list(attrs), counts)
    return ColumnarRelation._from_parts(
        ordered.schema, [column[::-1] for column in ordered._codes], ordered._mult[::-1]
    )


def _in_code_order(relation):
    if relation.distinct_count() < 2:
        return True
    order = np.lexsort(tuple(reversed(relation._codes)))
    return bool((order == np.arange(order.size)).all())


def _assert_join_agrees(left, right):
    """Columnar ``join`` equals the python join and commutes."""
    expected = join(
        Relation(left.attributes, left.counts), Relation(right.attributes, right.counts)
    )
    out = join(left, right)
    assert isinstance(out, ColumnarRelation)
    assert out.schema == expected.schema
    assert dict(out.counts) == dict(expected.counts)
    assert out.same_bag(join(right, left))


class TestJoinEqualsPythonBackend:
    @given(join_cases())
    @settings(max_examples=200, deadline=None)
    @example(LARGER_KEYED)
    @example(SMALLER_KEYED)
    @example(NEITHER_KEYED)
    @example(BOTH_KEYED_EQUAL)
    @example(EMPTY_PROBE)
    @example(EMPTY_BOTH)
    @example(UNORDERED_NEW_VOCABULARY)
    def test_same_bag(self, case):
        (left_attrs, left_counts), (right_attrs, right_counts), unordered, split = case
        make = _unordered if unordered else (lambda a, c: ColumnarRelation(list(a), c))
        left = make(left_attrs, left_counts)
        if split:
            reset_vocabulary()
        right = make(right_attrs, right_counts)
        _assert_join_agrees(left, right)


class TestKeyedSideOutOfCodeOrder:
    def test_join_output(self):
        """The sort path follows its larger side's row order: here the
        right operand's, whose join attribute K1 is not its first, so the
        output is not in code order.  Used as the keyed side of the next
        join, it is sorted once for its key."""
        reset_vocabulary()
        left = ColumnarRelation(["K2", "K1"], {(0, 10): 1, (1, 11): 2})
        right = ColumnarRelation(["Z", "K1"], {(20, 11): 1, (21, 10): 2, (22, 12): 1})
        keyed = join(left, right)
        assert not _in_code_order(keyed)
        probe = ColumnarRelation(["Z", "K1", "K2"], {(20, 11, 1): 1, (21, 10, 0): 4})
        _assert_join_agrees(keyed, probe)
        assert keyed._row_key.order is not None

    def test_rows_in_reverse_code_order(self):
        reset_vocabulary()
        keyed = _unordered(("K1", "K2"), {(i, 4 - i): i + 1 for i in range(5)})
        assert not _in_code_order(keyed)
        probe = ColumnarRelation(["K2", "K1"], {(4, 0): 2, (0, 4): 1, (9, 9): 1})
        _assert_join_agrees(keyed, probe)


@pytest.mark.parametrize("insert", [True, False])
class TestPatchedKeyedSide:
    def test_probe_codes_past_the_radices(self, insert):
        """A patched relation carries its key; a probe with codes its
        radices never covered matches nothing in it."""
        reset_vocabulary()
        keyed = ColumnarRelation(["K1", "K2"], {(i, j): 1 + i for i in range(8) for j in range(3)})
        join(keyed, ColumnarRelation(["K2", "K1", "X"], {(0, 0, 0): 1}))
        assert keyed._row_key is not None
        delta = ColumnarRelation(["K1", "K2"], {(1, 1): 1, (2, 0): 2, (3, 2): 1})
        patched = patch(keyed, plus=delta) if insert else patch(keyed, minus=delta)
        radices = patched._row_key.radices
        # Fresh values take the next codes, past K2's radix; packed without
        # a check, such a code would carry into K1 and hit another row.
        rows = {(i % 8, f"f{i}", 0): 1 for i in range(2 * radices[1])}
        rows.update({(0, 1, 1): 1, (1, 0, "f0"): 3, (3, 2, 3): 2})
        probe = ColumnarRelation(["X", "K2", "K1"], rows)
        assert int(probe._codes[1].max()) >= 2 * radices[1]
        assert probe.distinct_count() < patched.distinct_count()
        _assert_join_agrees(patched, probe)
        assert patched._row_key.radices == radices


class TestJointRankFallback:
    def test_key_past_62_bits(self):
        """Four key columns with codes past 2**16 span more than 62 bits,
        so the row key is joint ranks against the probe and is not cached."""
        reset_vocabulary()
        ColumnarRelation(["F"], [(i,) for i in range(2**16)])
        attrs = ("K1", "K2", "K3", "K4")
        base = 2**20
        keyed = ColumnarRelation(
            list(attrs), {tuple(base + 4 * i + j for j in range(4)): i + 1 for i in range(6)}
        )
        probe = ColumnarRelation(
            ["K4", "K2", "X", "K3", "K1"],
            {
                (base + 3, base + 1, 0, base + 2, base): 2,
                (base + 7, base + 5, 1, base + 6, base + 4): 1,
                (base + 3, base + 5, 2, base + 2, base): 1,
            },
        )
        assert columnar._key_radices(keyed._codes) is None
        _assert_join_agrees(keyed, probe)
        assert keyed._row_key is None


class TestLookupPath:
    def test_keyed_larger_side_skips_the_sort_path(self, monkeypatch):
        """A keyed larger side is probed in its cached row key: the sort
        path never runs, and a second join reuses the same key object."""
        keyed = ColumnarRelation(
            ["K1", "K2"], {(i % 50, i // 50): 1 + i % 3 for i in range(2000)}
        )
        probes = [
            ColumnarRelation(["K2", "X", "K1"], {(i % 40, i, i % 60): 1 for i in range(300)}),
            ColumnarRelation(["K1", "K2"], {(i, i): 2 for i in range(100)}),
        ]

        def no_sort_path(lkey, rkey):
            raise AssertionError("a keyed larger side entered _match_pairs")

        monkeypatch.setattr(columnar, "_match_pairs", no_sort_path)
        first = join(probes[0], keyed)
        row_key = keyed._row_key
        assert row_key is not None
        second = join(keyed, probes[1])
        assert keyed._row_key is row_key
        for probe, out in zip(probes, (first, second)):
            expected = join(
                Relation(keyed.attributes, keyed.counts),
                Relation(probe.attributes, probe.counts),
            )
            assert out.same_bag(expected)


@st.composite
def range_cases(draw):
    """A patched relation whose row key leads with 1–2 join attributes
    and carries 0–2 more, and a smaller side over the join attributes (in
    any order) plus 0–2 of its own.  The smaller side's values are offset
    from the larger side's 0–4 so its keys lie inside, overlap or miss
    their range; filler values encoded in between can push its fresh
    codes past the key's radices."""
    join_attrs = ["K1", "K2"][: draw(st.integers(min_value=1, max_value=2))]
    extras = ["X1", "X2"][: draw(st.integers(min_value=0, max_value=2))]
    attrs = join_attrs + extras
    value = st.integers(min_value=0, max_value=4)
    rows = st.tuples(*[value] * len(attrs))
    base = draw(st.dictionaries(rows, st.integers(1, 3), min_size=1, max_size=14))
    delta = draw(st.dictionaries(rows, st.integers(1, 3), min_size=1, max_size=4))
    insert = draw(st.booleans())
    probe_attrs = draw(
        st.permutations(join_attrs + ["Y1", "Y2"][: draw(st.integers(0, 2))])
    )
    offset = draw(st.sampled_from([0, 2, 5]))  # inside, overlap, miss
    probe_value = st.integers(min_value=offset, max_value=offset + 4)
    probe = draw(
        st.dictionaries(
            st.tuples(*[probe_value] * len(probe_attrs)), st.integers(1, 3), max_size=12
        )
    )
    filler = draw(st.sampled_from([0, 5, 64]))
    return (tuple(attrs), base, delta, insert), (tuple(probe_attrs), probe), filler


def _range_searched(monkeypatch):
    """The relations :func:`columnar._range_pairs` searches, recorded."""
    searched = []
    real = columnar._range_pairs

    def spy(keyed, probe, width):
        searched.append(keyed)
        return real(keyed, probe, width)

    monkeypatch.setattr(columnar, "_range_pairs", spy)
    return searched


PATCHED_TWO_LEADING = (
    (("K1", "K2", "X1"), {(0, 1, 2): 1, (0, 1, 3): 2, (1, 0, 0): 1, (4, 4, 4): 3},
     {(0, 1, 4): 1}, True),
    (("K2", "Y1", "K1"), {(1, 7, 0): 1, (1, 8, 0): 2, (0, 2, 4): 1}),
    0,
)
PATCHED_PROBE_PAST_RADICES = (
    (("K1", "X1", "X2"), {(i, j, i): 1 for i in range(5) for j in range(3)},
     {(2, 2, 2): 1}, False),
    (("Y1", "K1"), {(5, 9): 1, (6, 3): 2, (7, 0): 1}),
    64,
)
# Codes equal values, so K2's radix is 10; the probe's fresh code 10
# packed without the radix check would carry into K1 and hit (1, 0).
PATCHED_CARRY_PAST_RADIX = (
    (("K1", "K2", "X1"), {(i, i, i): 1 for i in range(5)}, {(1, 0, 0): 1}, True),
    (("K1", "K2"), {(0, "p0"): 1, (2, 2): 1}),
    5,
)
PATCHED_EMPTY_PROBE = (
    (("K1", "X1"), {(0, 0): 1}, {(1, 1): 1}, True),
    (("K1",), {}),
    0,
)


class TestRangeSearch:
    @given(range_cases())
    @settings(max_examples=200, deadline=None)
    @example(PATCHED_TWO_LEADING)
    @example(PATCHED_PROBE_PAST_RADICES)
    @example(PATCHED_CARRY_PAST_RADIX)
    @example(PATCHED_EMPTY_PROBE)
    def test_same_bag_as_python(self, case):
        (attrs, base, delta, insert), (probe_attrs, probe_rows), filler = case
        reset_vocabulary()
        base, delta = ColumnarRelation(list(attrs), base), ColumnarRelation(list(attrs), delta)
        keyed = patch(base, plus=delta) if insert else patch(base, minus=delta)
        if keyed.is_empty():
            return
        assert keyed._row_key is not None
        ColumnarRelation(["F"], [(f"f{i}",) for i in range(filler)])
        # Strictly smaller, so the patched side is the one searched.
        probe_rows = dict(list(probe_rows.items())[: keyed.distinct_count() - 1])
        probe = ColumnarRelation(list(probe_attrs), probe_rows)
        with pytest.MonkeyPatch.context() as monkeypatch:
            searched = _range_searched(monkeypatch)
            _assert_join_agrees(probe, keyed)
            _assert_join_agrees(keyed, probe)
        assert len(searched) == 4 and all(rel is keyed for rel in searched)

    def test_unkeyed_larger_side_takes_the_sort_path(self, monkeypatch):
        """A relation out of code order with attributes outside the join
        key carries no row key, so it is not range-searched; once patched
        it is.  A relation built in code order (the constructor) packs its
        key on first use and is range-searched at once."""
        reset_vocabulary()
        counts = {(i % 7, i): 1 for i in range(40)}
        unordered = _unordered(("K1", "X1"), counts)
        probe = ColumnarRelation(["K1"], {(3,): 2, (9,): 1})
        searched = _range_searched(monkeypatch)
        _assert_join_agrees(probe, unordered)
        assert searched == []
        patched = patch(unordered, plus=ColumnarRelation(["K1", "X1"], {(3, 99): 1}))
        _assert_join_agrees(probe, patched)
        assert searched and all(rel is patched for rel in searched)
        searched.clear()
        fresh = ColumnarRelation(["K1", "X1"], counts)
        assert fresh._row_key is None
        _assert_join_agrees(probe, fresh)
        assert searched and all(rel is fresh for rel in searched)
        assert fresh._row_key is not None and fresh._row_key.order is None

    def test_join_attributes_not_leading_take_the_sort_path(self, monkeypatch):
        reset_vocabulary()
        keyed = patch(
            ColumnarRelation(["X1", "K1"], {(i, i % 5): 1 for i in range(30)}),
            plus=ColumnarRelation(["X1", "K1"], {(0, 4): 1}),
        )
        searched = _range_searched(monkeypatch)
        _assert_join_agrees(ColumnarRelation(["K1", "Y1"], {(4, 0): 1, (2, 1): 3}), keyed)
        assert searched == []


def _unpruned_pairs(lkey, rkey):
    """The sort path's pairs without range pruning: every larger-side
    key is searched."""
    if lkey.size < rkey.size:
        ridx, lidx = _unpruned_pairs(rkey, lkey)
        return lidx, ridx
    order = np.argsort(rkey, kind="stable")
    sorted_r = rkey[order]
    start = np.searchsorted(sorted_r, lkey, side="left")
    stop = np.searchsorted(sorted_r, lkey, side="right")
    lidx = np.repeat(np.arange(lkey.size), stop - start)
    ridx = np.concatenate(
        [order[a:b] for a, b in zip(start.tolist(), stop.tolist())] + [order[:0]]
    )
    return lidx, ridx


KEYS = st.lists(st.integers(min_value=0, max_value=40), max_size=30)


class TestSortPathPruning:
    @given(KEYS, KEYS, st.sampled_from([0, 10, 25, 45]))
    @settings(max_examples=200, deadline=None)
    @example([0, 5, 9], [30, 31], 0)
    @example([3, 3, 8, 40], [3, 8], 0)
    @example([], [1, 2], 0)
    def test_same_pairs_in_the_same_order(self, left, right, offset):
        """Keys of the smaller side shifted by ``offset`` lie inside,
        overlap or miss the larger side's range."""
        lkey = np.asarray(left, dtype=np.int64)
        rkey = np.asarray(right, dtype=np.int64) + offset
        for a, b in ((lkey, rkey), (rkey, lkey)):
            got = columnar._match_pairs(a, b)
            want = _unpruned_pairs(a, b)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert all(g.dtype == np.int64 for g in got)


@st.composite
def skip_cases(draw):
    """A relation keyed (F, join attributes..., extras) with few values of
    F, and a probe over the join attributes plus its own, smaller by
    enough that one search per F value beats a scan."""
    join_attrs = ["K1", "K2"][: draw(st.integers(min_value=1, max_value=2))]
    extras = ["X1"][: draw(st.integers(min_value=0, max_value=1))]
    attrs = ["F"] + join_attrs + extras
    firsts = draw(st.integers(min_value=1, max_value=3))
    rows = {}
    for i in range(draw(st.integers(min_value=20, max_value=60))):
        row = [i % firsts] + [draw(st.integers(0, 6)) for _ in attrs[1:]]
        rows[tuple(row)] = draw(st.integers(1, 3))
    probe_attrs = draw(st.permutations(join_attrs + ["Y1"][: draw(st.integers(0, 1))]))
    probe = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 8)] * len(probe_attrs)), st.integers(1, 3), max_size=3
        )
    )
    patched = draw(st.booleans())
    return tuple(attrs), rows, patched, tuple(probe_attrs), probe


class TestSkipSearch:
    @given(skip_cases())
    @settings(max_examples=150, deadline=None)
    def test_same_bag_as_python(self, case):
        """Past one free leading attribute of few values the larger side is
        searched once per value of it (``_skip_pairs``), whether it was
        built in code order or patched; the bag equals the python join."""
        attrs, rows, patched, probe_attrs, probe_rows = case
        reset_vocabulary()
        keyed = ColumnarRelation(list(attrs), rows)
        if patched:
            first = next(iter(rows))
            keyed = patch(keyed, plus=ColumnarRelation(list(attrs), {first: 1}))
        probe = ColumnarRelation(list(probe_attrs), probe_rows)
        searched = []
        real = columnar._skip_pairs

        def spy(relation, smaller, width):
            searched.append(relation)
            return real(relation, smaller, width)

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(columnar, "_skip_pairs", spy)
            _assert_join_agrees(probe, keyed)
            _assert_join_agrees(keyed, probe)
        if probe.distinct_count() and 2 * len({r[0] for r in rows}) * probe.distinct_count() <= keyed.distinct_count():
            assert searched and all(rel is keyed for rel in searched)

    def test_leading_values_are_handed_on_by_patch(self):
        """A patch hands the leading column's values on: a superset after
        a monus (the searches of a gone value find nothing), the union
        with the delta's after an insert."""
        reset_vocabulary()
        keyed = ColumnarRelation(["F", "K1"], {(f, k): 1 for f in range(3) for k in range(20)})
        probe = ColumnarRelation(["K1"], {(4,): 1, (19,): 2})
        _assert_join_agrees(probe, keyed)
        gone = patch(keyed, minus=ColumnarRelation(["F", "K1"], {(2, k): 1 for k in range(20)}))
        assert gone._firsts is keyed._firsts
        _assert_join_agrees(probe, gone)
        grown = patch(gone, plus=ColumnarRelation(["F", "K1"], {(7, 4): 1}))
        decoded = {grown._vocab.values[c] for c in grown._firsts.tolist()}
        assert decoded == {0, 1, 2, 7}
        assert dict(join(probe, grown).counts) == {
            (4, 0): 1, (4, 1): 1, (4, 7): 1, (19, 0): 2, (19, 1): 2,
        }
