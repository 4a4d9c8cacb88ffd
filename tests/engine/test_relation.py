"""Unit tests for :mod:`repro.engine.relation` — bag semantics throughout."""

import pytest

from repro.engine.operators import patch
from repro.engine.relation import Relation, empty_like
from repro.engine.schema import Schema
from repro.exceptions import SchemaError


@pytest.fixture
def bag():
    return Relation(["A", "B"], [(1, 2), (1, 2), (3, 4)])


class TestConstruction:
    def test_from_rows_counts_duplicates(self, bag):
        assert bag.multiplicity((1, 2)) == 2
        assert bag.multiplicity((3, 4)) == 1

    def test_from_mapping(self):
        rel = Relation(["A"], {(1,): 5, (2,): 0})
        assert rel.multiplicity((1,)) == 5
        assert (2,) not in rel  # zero-count entries dropped

    def test_from_schema_object(self):
        rel = Relation(Schema(["A"]), [(1,)])
        assert rel.attributes == ("A",)

    def test_arity_mismatch_raises(self):
        with pytest.raises(SchemaError):
            Relation(["A", "B"], [(1,)])

    def test_negative_multiplicity_raises(self):
        with pytest.raises(SchemaError):
            Relation(["A"], {(1,): -1})

    def test_zero_arity_relation(self):
        unit = Relation(Schema(()), {(): 3})
        assert unit.total_count() == 3
        assert unit.distinct_count() == 1


class TestCounts:
    def test_totals(self, bag):
        assert bag.total_count() == 3
        assert bag.distinct_count() == 2
        assert len(bag) == 2

    def test_is_empty(self, bag):
        assert not bag.is_empty()
        assert Relation(["A"], ()).is_empty()

    def test_iteration_over_distinct(self, bag):
        assert sorted(bag) == [(1, 2), (3, 4)]

    def test_items(self, bag):
        assert dict(bag.items()) == {(1, 2): 2, (3, 4): 1}


class TestColumnStatistics:
    def test_column_values(self, bag):
        assert bag.column_values("A") == frozenset({1, 3})

    def test_max_frequency_single_attribute(self, bag):
        assert bag.max_frequency(("A",)) == 2

    def test_max_frequency_counts_bag_multiplicity(self):
        rel = Relation(["A", "B"], [(1, 2), (1, 3), (1, 2)])
        assert rel.max_frequency(("A",)) == 3

    def test_max_frequency_empty_attributes_is_total(self, bag):
        # The cross-product extension: mf(∅, R) = |R|.
        assert bag.max_frequency(()) == 3

    def test_max_frequency_empty_relation(self):
        assert Relation(["A"], ()).max_frequency(("A",)) == 0

    def test_argmax_count(self, bag):
        row, count = bag.argmax_count()
        assert (row, count) == ((1, 2), 2)

    def test_argmax_deterministic_tie_break(self):
        rel = Relation(["A"], [(2,), (1,)])
        assert rel.argmax_count() == ((1,), 1)

    def test_argmax_empty(self):
        assert Relation(["A"], ()).argmax_count() == (None, 0)


class TestUpdates:
    """A stored relation changes only through ``patch``."""

    def test_add_returns_copy(self, bag):
        grown = patch(bag, plus=Relation(bag.schema, [(1, 2)]))
        assert grown.multiplicity((1, 2)) == 3
        assert bag.multiplicity((1, 2)) == 2  # original untouched

    def test_remove_one_copy(self, bag):
        shrunk = patch(bag, minus=Relation(bag.schema, [(1, 2)]))
        assert shrunk.multiplicity((1, 2)) == 1
        assert bag.multiplicity((1, 2)) == 2

    def test_remove_absent_is_noop(self, bag):
        assert patch(bag, minus=Relation(bag.schema, [(9, 9)])) == bag

    def test_remove_all_copies(self, bag):
        gone = patch(bag, minus=Relation(bag.schema, {(1, 2): 10}))
        assert (1, 2) not in gone
        assert dict(gone.items()) == {(3, 4): 1}

    def test_filter(self, bag):
        kept = bag.filter(lambda row: row["A"] == 1)
        assert dict(kept.items()) == {(1, 2): 2}

    def test_rename(self, bag):
        renamed = bag.rename({"A": "X"})
        assert renamed.attributes == ("X", "B")
        assert renamed.multiplicity((1, 2)) == 2

    def test_scale_counts(self, bag):
        scaled = bag.scale_counts(3)
        assert scaled.multiplicity((1, 2)) == 6

    def test_scale_counts_rejects_nonpositive(self, bag):
        with pytest.raises(SchemaError):
            bag.scale_counts(0)


class TestComparison:
    def test_equality(self):
        assert Relation(["A"], [(1,), (1,)]) == Relation(["A"], {(1,): 2})

    def test_not_hashable(self, bag):
        with pytest.raises(TypeError):
            hash(bag)

    def test_same_bag_reorders_columns(self):
        left = Relation(["A", "B"], [(1, 2)])
        right = Relation(["B", "A"], [(2, 1)])
        assert left.same_bag(right)
        assert not left.same_bag(Relation(["B", "A"], [(1, 2)]))

    def test_empty_like(self, bag):
        fresh = empty_like(bag)
        assert fresh.is_empty()
        assert fresh.schema == bag.schema
