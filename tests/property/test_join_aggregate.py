"""Property suite for the early-aggregating table primitive.

``join_aggregate(parts, keep)`` must be exactly the join-then-group
reference ``group_by(join_all(parts), keep)`` — same attributes in the
same order, same counts — whatever order its bound-driven policy joins
the parts in.  Every permutation of the parts must give the identical
factor and the identical ``argmax_count()``, so reordering joins never
perturbs a witness tie-break.  Part lists include attribute-disjoint
parts (forced cross products), parts whose attributes are a subset of
another's, zero-arity and empty parts, ``keep=()`` and a ``keep`` that
spans several parts.
"""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine import Relation
from repro.engine.columnar import ColumnarRelation
from repro.engine.operators import group_by, join_all
from repro.evaluation.joinstate import join_aggregate

BACKENDS = {"python": Relation, "columnar": ColumnarRelation}
ATTRIBUTES = ("A", "B", "C", "D", "E")


@st.composite
def part_lists(draw):
    """(parts as (attributes, rows) pairs, keep) over a small value domain."""
    n_parts = draw(st.integers(min_value=1, max_value=4))
    parts = []
    for _ in range(n_parts):
        attrs = tuple(
            draw(st.lists(st.sampled_from(ATTRIBUTES), max_size=3, unique=True))
        )
        rows = draw(
            st.lists(
                st.tuples(*[st.integers(min_value=0, max_value=2)] * len(attrs)),
                max_size=6,
            )
        )
        parts.append((attrs, rows))
    union = sorted({a for attrs, _rows in parts for a in attrs})
    keep = draw(st.lists(st.sampled_from(union), unique=True)) if union else []
    return parts, tuple(keep)


# Each named shape is pinned as an explicit example on top of the random
# draws.
CROSS_PRODUCT = (
    [(("A", "B"), [(0, 1), (1, 1)]), (("C",), [(2,), (0,)]), (("B", "D"), [(1, 0)])],
    ("A", "C", "D"),
)
SUBSET_PARTS = (
    [(("B",), [(1,), (2,)]), (("A", "B", "C"), [(0, 1, 2), (1, 1, 2), (0, 2, 2)]),
     (("C", "A"), [(2, 0), (2, 0)])],
    ("B",),
)
EMPTY_PART = (
    [(("A", "B"), [(0, 1)]), (("B", "C"), []), (("C",), [(0,)])],
    ("A", "C"),
)
SCALAR_KEEP = (
    [(("A", "B"), [(0, 1), (0, 2)]), (("B", "C"), [(1, 0), (2, 0), (2, 1)]),
     ((), [(), ()])],
    (),
)
KEEP_SPANS_PARTS = (
    [(("A", "B"), [(0, 1), (1, 1), (1, 2)]), (("B", "C"), [(1, 0), (2, 0)]),
     (("C", "D"), [(0, 0), (0, 1)]), (("D", "E"), [(0, 2), (1, 2)])],
    ("E", "C", "A"),
)


def _relations(backend, parts):
    make = BACKENDS[backend]
    return [make(list(attrs), rows) for attrs, rows in parts]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestJoinAggregate:
    @given(part_lists())
    @example(CROSS_PRODUCT)
    @example(SUBSET_PARTS)
    @example(EMPTY_PART)
    @example(SCALAR_KEEP)
    @example(KEEP_SPANS_PARTS)
    @settings(max_examples=60, deadline=None)
    def test_matches_join_then_group(self, backend, drawn):
        parts, keep = drawn
        relations = _relations(backend, parts)
        got = join_aggregate(relations, keep)
        assert got.attributes == keep
        assert got == group_by(join_all(relations), keep)

    @given(part_lists())
    @example(CROSS_PRODUCT)
    @example(SUBSET_PARTS)
    @example(EMPTY_PART)
    @example(SCALAR_KEEP)
    @example(KEEP_SPANS_PARTS)
    @settings(max_examples=40, deadline=None)
    def test_every_part_order_gives_the_same_factor(self, backend, drawn):
        parts, keep = drawn
        relations = _relations(backend, parts)
        first = join_aggregate(relations, keep)
        for order in itertools.permutations(relations):
            again = join_aggregate(list(order), keep)
            assert again == first
            assert again.argmax_count() == first.argmax_count()
