"""Property suite for the columnar join's two paths.

When every attribute of the larger operand is a join attribute, the
columnar `join` looks the smaller operand's key columns up in the larger
operand's cached code-order row key; every other join sorts the smaller
side's key and scans the larger side.  Either way the output must equal
the python backend's join (schema and counts), and ``join(l, r)`` must
equal ``join(r, l)`` up to attribute order.  Inputs cover a keyed larger
side with 1–3 key columns in a different column order on each side, a
keyed smaller side, no keyed side, both sides keyed at equal sizes, empty
operands, operands from different vocabularies, a keyed side out of code
order (a join output, rows stored in reverse), a keyed side patched
after its key was cached and probed by codes past the key's radices, and
a key past 62 bits, which takes the joint-rank fallback.
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
        right operand's, so the output is not in code order.  Used as the
        keyed side of the next join, it is sorted once for its key."""
        reset_vocabulary()
        left = ColumnarRelation(["K2", "K1"], {(1, 0): 1, (0, 1): 2})
        right = ColumnarRelation(["K1", "Z"], {(0, 5): 1, (1, 3): 2, (1, 4): 1})
        keyed = join(left, right)
        assert not _in_code_order(keyed)
        probe = ColumnarRelation(["Z", "K1", "K2"], {(3, 1, 0): 1, (5, 0, 1): 4})
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
        patched = patch(keyed, delta, insert)
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
