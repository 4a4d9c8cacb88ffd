"""Property suite for the one patch operator.

``patch(r, plus, minus)`` must be exactly ``difference(union_all([r,
plus]), minus)`` — same schema, same counts — with ``plus`` only,
``minus`` only or both, on both backends and across them.  Inputs cover
shared and new rows, a ``minus`` that goes past zero, names rows absent
from ``r`` or takes back rows ``plus`` brings, empty sides, arity 0, an
``r`` that is not in code order (a join output, rows stored in reverse),
operands encoded under different vocabularies and rows whose key does not
fit 62 bits (joint ranks).  When no count can change, ``r`` itself comes
back.  On columnar the output is in code order and carries its key, so
patching it again sorts nothing; a ``plus`` that takes a count past
``int64`` raises :class:`MultiplicityOverflowError` even when ``minus``
would bring it back, and a count of exactly ``2**63 - 1`` fits.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine import Relation, join, patch
from repro.engine import columnar
from repro.engine.columnar import ColumnarRelation, reset_vocabulary
from repro.exceptions import MultiplicityOverflowError

BACKENDS = {"python": Relation, "columnar": ColumnarRelation}
ATTRIBUTES = ("A", "B", "C")
#: Which sides a call passes: ``plus`` only, ``minus`` only, or both.
SIDES = pytest.mark.parametrize(
    "sides", [("plus",), ("minus",), ("plus", "minus")], ids=["plus", "minus", "both"]
)


@st.composite
def bag_triples(draw):
    """(attributes, r, plus, minus) over a small value domain, so the
    bags share rows; counts up to 5 make ``minus`` reach zero or go past
    it, on rows of ``r``, rows ``plus`` brings and rows of neither."""
    arity = draw(st.integers(min_value=0, max_value=3))
    row = st.tuples(*[st.integers(min_value=0, max_value=3)] * arity)
    count = st.integers(min_value=1, max_value=5)
    r = draw(st.dictionaries(row, count, max_size=8))
    plus = draw(st.dictionaries(row, count, max_size=6))
    minus = draw(st.dictionaries(row, count, max_size=6))
    return ATTRIBUTES[:arity], r, plus, minus


SHARED_AND_NEW = (
    ("A", "B"), {(0, 1): 2, (1, 1): 1, (2, 0): 3}, {(1, 1): 1, (3, 3): 2}, {(2, 0): 1, (3, 3): 1},
)
PAST_ZERO = (("A", "B"), {(0, 1): 2, (1, 1): 1}, {(1, 1): 1}, {(0, 1): 5, (1, 1): 1})
ABSENT = (("A",), {(0,): 2}, {(3,): 1}, {(1,): 1, (2,): 4})
TAKES_BACK = (("A", "B"), {(0, 1): 2}, {(3, 3): 2, (0, 1): 1}, {(3, 3): 2, (0, 1): 3})
EMPTY_SIDES = (("A", "B", "C"), {(0, 1, 2): 1}, {}, {})
NULLARY = ((), {(): 3}, {(): 2}, {(): 4})
NULLARY_PAST_ZERO = ((), {(): 1}, {}, {(): 4})
NULLARY_EMPTY = ((), {}, {}, {(): 1})


def _reference(r, plus=None, minus=None):
    """``difference(union_all([r, plus]), minus)`` on plain counters:
    ``Counter``'s ``-`` is bag monus."""
    return dict((Counter(r) + Counter(plus or {})) - Counter(minus or {}))


def _sides(case, sides, make):
    """The keyword arguments of a call passing ``sides`` of ``case``."""
    attrs, _, plus, minus = case
    drawn = {"plus": plus, "minus": minus}
    return {side: make(list(attrs), drawn[side]) for side in sides}


def _unchanged(case, sides):
    """Whether no side can change a count: no ``plus`` row, and no
    ``minus`` row of ``r``."""
    _, r, plus, minus = case
    return not ("plus" in sides and plus) and not ("minus" in sides and set(minus) & set(r))


def _in_code_order(relation):
    if not relation._codes or relation.distinct_count() < 2:
        return True
    order = np.lexsort(tuple(reversed(relation._codes)))
    return bool((order == np.arange(order.size)).all())


def _unordered(attrs, counts):
    """A columnar bag whose rows are stored in reverse code order."""
    ordered = ColumnarRelation(list(attrs), counts)
    return ColumnarRelation._from_parts(
        ordered.schema, [column[::-1] for column in ordered._codes], ordered._mult[::-1]
    )


@SIDES
@pytest.mark.parametrize("backend", list(BACKENDS))
class TestPatchEqualsUnionThenMonus:
    @given(bag_triples())
    @settings(max_examples=100, deadline=None)
    @example(SHARED_AND_NEW)
    @example(PAST_ZERO)
    @example(ABSENT)
    @example(TAKES_BACK)
    @example(EMPTY_SIDES)
    @example(NULLARY)
    @example(NULLARY_PAST_ZERO)
    @example(NULLARY_EMPTY)
    def test_same_bag(self, backend, sides, case):
        """The same bag as union then monus; ``r`` itself when no count
        can change."""
        attrs, r = case[:2]
        make = BACKENDS[backend]
        base = make(list(attrs), r)
        given_sides = _sides(case, sides, make)
        out = patch(base, **given_sides)
        assert isinstance(out, make)
        assert out.schema == Relation(list(attrs)).schema
        expected = _reference(r, **{side: dict(rel.counts) for side, rel in given_sides.items()})
        assert dict(out.counts) == expected
        if _unchanged(case, sides):
            assert out is base

    @given(bag_triples())
    @settings(max_examples=50, deadline=None)
    @example(SHARED_AND_NEW)
    @example(TAKES_BACK)
    @example(NULLARY)
    def test_across_backends(self, backend, sides, case):
        """A python operand is promoted: the result is columnar."""
        attrs, r = case[:2]
        other = "python" if backend == "columnar" else "columnar"
        given_sides = _sides(case, sides, BACKENDS[other])
        out = patch(BACKENDS[backend](list(attrs), r), **given_sides)
        assert isinstance(out, ColumnarRelation)
        expected = _reference(r, **{side: dict(rel.counts) for side, rel in given_sides.items()})
        assert dict(out.counts) == expected


@SIDES
class TestColumnarCodeOrder:
    @given(bag_triples(), st.booleans())
    @settings(max_examples=100, deadline=None)
    @example(SHARED_AND_NEW, True)
    @example(PAST_ZERO, True)
    @example(TAKES_BACK, True)
    def test_output_in_code_order_and_patched_again_unsorted(self, sides, case, unordered):
        """The output is in code order whatever the input's order; its
        carried key serves the next patch, which sorts nothing."""
        attrs, r = case[:2]
        base = _unordered(attrs, r) if unordered else ColumnarRelation(list(attrs), r)
        given_sides = _sides(case, sides, ColumnarRelation)
        counts = {side: dict(rel.counts) for side, rel in given_sides.items()}
        out = patch(base, **given_sides)
        assert dict(out.counts) == _reference(r, **counts)
        if out is base:
            return
        assert _in_code_order(out)
        if not attrs:
            return
        keys = []
        real_keyed = columnar._keyed

        def spy(relation, probes, cover):
            row_key, probe_key = real_keyed(relation, probes, cover)
            keys.append(row_key)
            return row_key, probe_key

        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(columnar, "_keyed", spy)
            again = patch(out, **given_sides)
        assert dict(again.counts) == _reference(dict(out.counts), **counts)
        # The carried key served the lookup: nothing sorted, nothing re-packed.
        assert len(keys) == 1 and keys[0] is out._row_key and keys[0].order is None
        assert _in_code_order(again)

    def test_join_output(self, sides):
        """The sort path probes the larger join side with the smaller
        one, so the output follows the larger side's order: here by B
        (the right side's join attribute follows one C value), whose codes
        run against A's whichever of 0 and 1 was encoded first.  The patch
        sorts it once and returns a code-ordered bag."""
        left = ColumnarRelation(["A", "B"], {(1, 0): 1, (0, 1): 2})
        right = ColumnarRelation(["C", "B"], {(5, 0): 1, (5, 1): 2, (5, 7): 1})
        joined = join(left, right)
        assert not _in_code_order(joined)
        attrs = joined.attributes
        case = (attrs, dict(joined.counts), {(0, 1, 5): 3, (9, 9, 9): 2}, {(1, 0, 5): 1, (9, 9, 9): 1})
        given_sides = _sides(case, sides, ColumnarRelation)
        out = patch(joined, **given_sides)
        counts = {side: dict(rel.counts) for side, rel in given_sides.items()}
        assert dict(out.counts) == _reference(case[1], **counts)
        assert _in_code_order(out)
        assert out._row_key.order is None


@SIDES
class TestVocabularyReset:
    @given(bag_triples())
    @settings(max_examples=30, deadline=None)
    @example(SHARED_AND_NEW)
    @example(TAKES_BACK)
    def test_operands_from_different_vocabularies(self, sides, case):
        """Each side is re-encoded under ``r``'s vocabulary, whichever
        vocabulary it was built under."""
        attrs, r = case[:2]
        old = ColumnarRelation(list(attrs), r)
        reset_vocabulary()
        given_sides = _sides(case, sides, ColumnarRelation)
        expected = _reference(r, **{side: dict(rel.counts) for side, rel in given_sides.items()})
        assert dict(patch(old, **given_sides).counts) == expected
        reset_vocabulary()
        assert dict(patch(ColumnarRelation(list(attrs), r), **given_sides).counts) == expected


@SIDES
class TestJointRanks:
    def test_key_past_62_bits(self, sides):
        """Four columns with codes past 2**16 span more than 62 bits, so
        both sides are found by joint ranks against the relation: the
        output is the same bag, in code order, and caches no key."""
        reset_vocabulary()
        ColumnarRelation(["F"], [(i,) for i in range(2**16)])
        attrs = ("K1", "K2", "K3", "K4")
        base = 2**20

        def row(i):
            return tuple(base + 4 * i + j for j in range(4))

        r = {row(i): i + 1 for i in range(6)}
        plus = {row(1): 2, row(7): 1, row(8): 3, row(9): 1}
        minus = {row(0): 1, row(2): 9, row(8): 1, row(9): 1, row(11): 1}
        keyed = ColumnarRelation(list(attrs), r)
        assert columnar._key_radices(keyed._codes) is None
        given_sides = _sides((attrs, r, plus, minus), sides, ColumnarRelation)
        out = patch(keyed, **given_sides)
        counts = {side: dict(rel.counts) for side, rel in given_sides.items()}
        assert dict(out.counts) == _reference(r, **counts)
        assert _in_code_order(out)
        assert out._row_key is None and keyed._row_key is None


@pytest.mark.parametrize("backend", list(BACKENDS))
class TestOverflow:
    def test_sum_past_int64_raises(self, backend):
        """A plus past ``int64`` raises on columnar, even when minus would
        take it back, or the overflowing row is not the one it takes
        from; python counts exactly."""
        make = BACKENDS[backend]
        r = make(["A"], {("x",): 2**62, ("y",): 1})
        plus = make(["A"], {("x",): 2**62})
        cases = [
            ({"plus": plus}, {("x",): 2**63, ("y",): 1}),
            ({"plus": plus, "minus": make(["A"], {("x",): 5})}, {("x",): 2**63 - 5, ("y",): 1}),
            ({"plus": plus, "minus": make(["A"], {("y",): 1})}, {("x",): 2**63}),
        ]
        for given_sides, exact in cases:
            if backend == "columnar":
                with pytest.raises(MultiplicityOverflowError):
                    patch(r, **given_sides)
            else:
                assert dict(patch(r, **given_sides).counts) == exact

    def test_sum_of_exactly_int64_max_fits(self, backend):
        make = BACKENDS[backend]
        r = make(["A", "B"], {("x", 1): 2**63 - 2, ("y", 1): 7})
        plus = make(["A", "B"], {("x", 1): 1, ("z", 1): 2**63 - 1})
        assert dict(patch(r, plus=plus).counts) == {
            ("x", 1): 2**63 - 1, ("y", 1): 7, ("z", 1): 2**63 - 1,
        }
        minus = make(["A", "B"], {("y", 1): 7, ("z", 1): 1})
        assert dict(patch(r, plus=plus, minus=minus).counts) == {
            ("x", 1): 2**63 - 1, ("z", 1): 2**63 - 2,
        }

    def test_nullary_sum_past_int64_raises(self, backend):
        """A plus past ``int64`` raises on columnar, alone or with a minus
        that would take it back; python counts exactly."""
        make = BACKENDS[backend]
        r = make([], {(): 2**63 - 1})
        cases = [
            ({"plus": make([], {(): 1})}, {(): 2**63}),
            ({"plus": make([], {(): 1}), "minus": make([], {(): 1})}, {(): 2**63 - 1}),
        ]
        for given_sides, exact in cases:
            if backend == "columnar":
                with pytest.raises(MultiplicityOverflowError):
                    patch(r, **given_sides)
            else:
                assert dict(patch(r, **given_sides).counts) == exact
        assert patch(r, minus=make([], {(): 2**63 - 1})).is_empty()
