"""Property suite for the delta-fold operator.

``patch(r, d, True)`` must be exactly ``union_all([r, d])`` and
``patch(r, d, False)`` exactly ``difference(r, d)`` — same schema, same
counts — on both backends and across them.  Inputs cover shared and new
rows, deletes that reach zero or go past it, deleted rows absent from
``r``, an empty ``d``, arity 0, an ``r`` that is not in code order (a join
output, rows stored in reverse) and operands encoded under different
vocabularies.  On columnar the output is in code order and carries its
key, so patching it again sorts nothing; a sum past ``int64`` raises
:class:`MultiplicityOverflowError` and a sum of exactly ``2**63 - 1``
does not.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine import Relation, difference, join, patch, union_all
from repro.engine import columnar
from repro.engine.columnar import ColumnarRelation, reset_vocabulary
from repro.exceptions import MultiplicityOverflowError

BACKENDS = {"python": Relation, "columnar": ColumnarRelation}
ATTRIBUTES = ("A", "B", "C")


@st.composite
def bag_pairs(draw):
    """(attributes, r counts, d counts) over a small value domain, so the
    two bags share rows; counts up to 5 make deletes reach zero or go
    past it."""
    arity = draw(st.integers(min_value=0, max_value=3))
    row = st.tuples(*[st.integers(min_value=0, max_value=3)] * arity)
    count = st.integers(min_value=1, max_value=5)
    r = draw(st.dictionaries(row, count, max_size=8))
    d = draw(st.dictionaries(row, count, max_size=6))
    return ATTRIBUTES[:arity], r, d


SHARED_AND_NEW = (("A", "B"), {(0, 1): 2, (1, 1): 1, (2, 0): 3}, {(1, 1): 1, (3, 3): 2})
PAST_ZERO = (("A", "B"), {(0, 1): 2, (1, 1): 1}, {(0, 1): 5, (1, 1): 1})
ABSENT_DELETES = (("A",), {(0,): 2}, {(1,): 1, (2,): 4})
EMPTY_DELTA = (("A", "B", "C"), {(0, 1, 2): 1}, {})
NULLARY = ((), {(): 3}, {(): 2})
NULLARY_PAST_ZERO = ((), {(): 1}, {(): 4})


def _reference(attrs, r, d, insert):
    left, right = Relation(list(attrs), r), Relation(list(attrs), d)
    return union_all([left, right]) if insert else difference(left, right)


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


@pytest.mark.parametrize("insert", [True, False])
@pytest.mark.parametrize("backend", list(BACKENDS))
class TestPatchEqualsUnionAndMonus:
    @given(bag_pairs())
    @settings(max_examples=100, deadline=None)
    @example(SHARED_AND_NEW)
    @example(PAST_ZERO)
    @example(ABSENT_DELETES)
    @example(EMPTY_DELTA)
    @example(NULLARY)
    @example(NULLARY_PAST_ZERO)
    def test_same_bag(self, backend, insert, case):
        attrs, r, d = case
        make = BACKENDS[backend]
        out = patch(make(list(attrs), r), make(list(attrs), d), insert)
        assert isinstance(out, make)
        assert out.schema == Relation(list(attrs)).schema
        assert dict(out.counts) == dict(_reference(attrs, r, d, insert).counts)

    @given(bag_pairs())
    @settings(max_examples=50, deadline=None)
    @example(SHARED_AND_NEW)
    @example(NULLARY)
    def test_across_backends(self, backend, insert, case):
        """A python operand is promoted: the result is columnar."""
        attrs, r, d = case
        other = "python" if backend == "columnar" else "columnar"
        out = patch(
            BACKENDS[backend](list(attrs), r), BACKENDS[other](list(attrs), d), insert
        )
        assert isinstance(out, ColumnarRelation)
        assert dict(out.counts) == dict(_reference(attrs, r, d, insert).counts)


@pytest.mark.parametrize("insert", [True, False])
class TestColumnarCodeOrder:
    @given(bag_pairs(), st.booleans())
    @settings(max_examples=100, deadline=None)
    @example(SHARED_AND_NEW, True)
    @example(PAST_ZERO, True)
    def test_output_in_code_order_and_patched_again_unsorted(
        self, insert, case, unordered
    ):
        """The output is in code order whatever the input's order; its
        carried key serves the next patch, which sorts nothing.  An empty
        delta returns the input itself."""
        attrs, r, d = case
        base = _unordered(attrs, r) if unordered else ColumnarRelation(list(attrs), r)
        delta = ColumnarRelation(list(attrs), d)
        out = patch(base, delta, insert)
        assert dict(out.counts) == dict(_reference(attrs, r, d, insert).counts)
        if not d:
            assert out is base
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
            again = patch(out, delta, insert)
        # The carried key served the lookup: nothing sorted, nothing re-packed.
        assert len(keys) == 1 and keys[0] is out._row_key and keys[0].order is None
        expected = _reference(attrs, dict(out.counts), d, insert)
        assert dict(again.counts) == dict(expected.counts)
        assert _in_code_order(again)

    def test_join_output(self, insert):
        """The smaller join side probes the larger one, so the output
        follows the larger side's order: here by B, whose codes run
        against A's whichever of 0 and 1 was encoded first.  The patch
        sorts it once and returns a code-ordered bag."""
        left = ColumnarRelation(["A", "B"], {(1, 0): 1, (0, 1): 2})
        right = ColumnarRelation(["B", "C"], {(0, 5): 1, (1, 3): 2, (1, 4): 1})
        joined = join(left, right)
        assert not _in_code_order(joined)
        attrs = joined.attributes
        delta = {(0, 1, 3): 3, (1, 0, 5): 1, (9, 9, 9): 2}
        out = patch(joined, ColumnarRelation(list(attrs), delta), insert)
        expected = _reference(attrs, dict(joined.counts), delta, insert)
        assert dict(out.counts) == dict(expected.counts)
        assert _in_code_order(out)
        assert out._row_key.order is None


@pytest.mark.parametrize("insert", [True, False])
class TestVocabularyReset:
    @given(bag_pairs())
    @settings(max_examples=30, deadline=None)
    @example(SHARED_AND_NEW)
    def test_operands_from_different_vocabularies(self, insert, case):
        attrs, r, d = case
        old = ColumnarRelation(list(attrs), r)
        reset_vocabulary()
        new = ColumnarRelation(list(attrs), d)
        expected = dict(_reference(attrs, r, d, insert).counts)
        assert dict(patch(old, new, insert).counts) == expected
        reset_vocabulary()
        assert dict(patch(ColumnarRelation(list(attrs), r), new, insert).counts) == expected


class TestOverflow:
    def test_sum_past_int64_raises(self):
        r = ColumnarRelation(["A"], {("x",): 2**62, ("y",): 1})
        d = ColumnarRelation(["A"], {("x",): 2**62})
        with pytest.raises(MultiplicityOverflowError):
            patch(r, d, True)
        assert patch(Relation(["A"], r.counts), Relation(["A"], d.counts), True).counts[
            ("x",)
        ] == 2**63

    def test_sum_of_exactly_int64_max_fits(self):
        r = ColumnarRelation(["A", "B"], {("x", 1): 2**63 - 2, ("y", 1): 7})
        d = ColumnarRelation(["A", "B"], {("x", 1): 1, ("z", 1): 2**63 - 1})
        out = patch(r, d, True)
        assert dict(out.counts) == {
            ("x", 1): 2**63 - 1, ("y", 1): 7, ("z", 1): 2**63 - 1,
        }

    def test_nullary_sum_past_int64_raises(self):
        r = ColumnarRelation([], {(): 2**63 - 1})
        with pytest.raises(MultiplicityOverflowError):
            patch(r, ColumnarRelation([], {(): 1}), True)
        assert patch(r, ColumnarRelation([], {(): 2**63 - 1}), False).is_empty()
