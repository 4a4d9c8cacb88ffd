"""Unit tests for :mod:`repro.engine.operators` — the r̃join/γ algebra."""

import pytest

from repro.engine.operators import (
    cross_product,
    difference,
    group_by,
    join,
    join_all,
    join_bound,
    max_rows_per_value,
    patch,
    project,
    select,
    semijoin,
    symmetric_difference_size,
    union_all,
)
from repro.engine.columnar import ColumnarRelation
from repro.engine.relation import Relation
from repro.exceptions import SchemaError


@pytest.fixture
def r_ab():
    return Relation(["A", "B"], [(1, 2), (1, 2), (1, 3)])


@pytest.fixture
def r_bc():
    return Relation(["B", "C"], [(2, 9), (3, 9), (3, 8)])


class TestJoin:
    def test_counts_multiply(self, r_ab, r_bc):
        out = join(r_ab, r_bc)
        # (1,2) has multiplicity 2 and joins (2,9) once -> count 2.
        assert out.multiplicity((1, 2, 9)) == 2
        assert out.multiplicity((1, 3, 9)) == 1
        assert out.multiplicity((1, 3, 8)) == 1
        assert out.total_count() == 4

    def test_schema_order(self, r_ab, r_bc):
        assert join(r_ab, r_bc).attributes == ("A", "B", "C")

    def test_symmetric_total(self, r_ab, r_bc):
        assert join(r_ab, r_bc).total_count() == join(r_bc, r_ab).total_count()

    def test_join_on_multiple_attributes(self):
        left = Relation(["A", "B", "C"], [(1, 2, 3), (1, 2, 4)])
        right = Relation(["B", "C", "D"], [(2, 3, 7)])
        out = join(left, right)
        assert dict(out.items()) == {(1, 2, 3, 7): 1}

    def test_no_common_attributes_is_cross_product(self):
        left = Relation(["A"], [(1,), (2,)])
        right = Relation(["B"], [(5,)])
        out = join(left, right)
        assert out.total_count() == 2
        assert out.attributes == ("A", "B")

    def test_empty_side_gives_empty(self, r_ab):
        assert join(r_ab, Relation(["B", "C"], ())).is_empty()

    def test_join_all_left_deep(self, r_ab, r_bc):
        third = Relation(["C", "D"], [(9, 0)])
        assert join_all([r_ab, r_bc, third]).total_count() == 3

    def test_join_all_empty_list_raises(self):
        with pytest.raises(SchemaError):
            join_all([])

    def test_matches_bruteforce_nested_loop(self, r_ab, r_bc):
        expected = {}
        for lrow, lcnt in r_ab.items():
            for rrow, rcnt in r_bc.items():
                if lrow[1] == rrow[0]:
                    key = (lrow[0], lrow[1], rrow[1])
                    expected[key] = expected.get(key, 0) + lcnt * rcnt
        assert dict(join(r_ab, r_bc).items()) == expected


class TestCrossProduct:
    def test_counts_multiply(self):
        left = Relation(["A"], {(1,): 2})
        right = Relation(["B"], {(5,): 3})
        assert cross_product(left, right).multiplicity((1, 5)) == 6

    def test_overlap_rejected(self, r_ab):
        with pytest.raises(SchemaError):
            cross_product(r_ab, r_ab)

    def test_with_zero_arity_unit(self):
        unit = Relation([], {(): 4})
        rel = Relation(["A"], [(1,)])
        assert cross_product(unit, rel).multiplicity((1,)) == 4


class TestGroupBy:
    def test_sums_counts(self, r_ab):
        out = group_by(r_ab, ("A",))
        assert dict(out.items()) == {(1,): 3}

    def test_empty_attributes_counts_all(self, r_ab):
        out = group_by(r_ab, ())
        assert dict(out.items()) == {(): 3}

    def test_project_alias(self, r_ab):
        assert project(r_ab, ("B",)) == group_by(r_ab, ("B",))

    def test_group_by_reorders(self, r_ab):
        out = group_by(r_ab, ("B", "A"))
        assert out.attributes == ("B", "A")
        assert out.multiplicity((2, 1)) == 2


class TestSelect:
    def test_keeps_matching(self, r_ab):
        out = select(r_ab, lambda row: row["B"] == 2)
        assert dict(out.items()) == {(1, 2): 2}


class TestSemijoin:
    def test_filters_without_changing_counts(self, r_ab):
        right = Relation(["B"], [(2,)])
        out = semijoin(r_ab, right)
        assert dict(out.items()) == {(1, 2): 2}

    def test_no_common_attributes_nonempty_right(self, r_ab):
        assert semijoin(r_ab, Relation(["Z"], [(1,)])) == r_ab

    def test_no_common_attributes_empty_right(self, r_ab):
        assert semijoin(r_ab, Relation(["Z"], ())).is_empty()


class TestBagSetOps:
    def test_union_all_adds_counts(self, r_ab):
        out = union_all([r_ab, r_ab])
        assert out.multiplicity((1, 2)) == 4

    def test_union_all_schema_mismatch(self, r_ab, r_bc):
        with pytest.raises(SchemaError):
            union_all([r_ab, r_bc])

    def test_difference_monus(self):
        left = Relation(["A"], {(1,): 3, (2,): 1})
        right = Relation(["A"], {(1,): 1, (2,): 5})
        out = difference(left, right)
        assert dict(out.items()) == {(1,): 2}

    def test_monus_matching_no_row_returns_the_input(self):
        """python hands back the relation itself, with no dict copy;
        columnar returns the same bag (in code order, as every patch)."""
        rows = {(1, 2): 3, (2, 2): 1}
        absent = {(9, 9): 1, (1, 3): 2}
        python = Relation(["A", "B"], rows)
        assert patch(python, minus=Relation(["A", "B"], absent)) is python
        columnar = ColumnarRelation(["A", "B"], rows)
        out = patch(columnar, minus=ColumnarRelation(["A", "B"], absent))
        assert dict(out.counts) == rows

    def test_symmetric_difference_size(self):
        left = Relation(["A"], {(1,): 3, (2,): 1})
        right = Relation(["A"], {(1,): 1, (3,): 2})
        # |3-1| + |1-0| + |0-2| = 5
        assert symmetric_difference_size(left, right) == 5

    def test_symmetric_difference_handles_column_order(self):
        left = Relation(["A", "B"], {(1, 2): 1})
        right = Relation(["B", "A"], {(2, 1): 1})
        assert symmetric_difference_size(left, right) == 0

    def test_symmetric_difference_different_attrs_raises(self, r_ab, r_bc):
        with pytest.raises(SchemaError):
            symmetric_difference_size(r_ab, r_bc)


class TestJoinBound:
    def test_matches_python_backend(self):
        left = Relation(["A", "B"], {(1, 2): 1, (1, 3): 4, (2, 3): 1})
        right = Relation(["B", "C"], {(3, 7): 1, (3, 8): 2, (2, 9): 1, (4, 9): 1})
        for a, b in ((left, right), (right, left)):
            expected = join_bound(a, b)
            assert expected == min(3 * 2, 4 * 2)
            columnar = ColumnarRelation(a.schema, a.counts)
            assert join_bound(columnar, ColumnarRelation(b.schema, b.counts)) == expected

    def test_columnar_peaks_computed_once(self, monkeypatch):
        """A relation never changes, so each code column's peak is
        computed on the first bound that reads it and memoised; a rename
        shares the arrays and hands the memo on."""
        from repro.engine import columnar

        left = ColumnarRelation(["A", "B", "C"], {(i % 3, i % 5, i): 1 for i in range(30)})
        right = ColumnarRelation(["B", "C", "D"], {(i % 5, i, 0): 1 for i in range(12)})
        counted = []
        real = columnar.np.bincount

        def spy(column, *args, **kwargs):
            counted.append(column)
            return real(column, *args, **kwargs)

        monkeypatch.setattr(columnar.np, "bincount", spy)
        first = join_bound(left, right)
        assert len(counted) == 4  # B and C of each side
        for _ in range(3):
            assert join_bound(left, right) == first
            assert join_bound(right, left) == first
        renamed = left.rename({"A": "Z"})
        assert join_bound(renamed, right) == first
        assert max_rows_per_value(left, ["A"]) == 10
        assert len(counted) == 5
        assert max_rows_per_value(renamed, ["Z"]) == 10
        assert len(counted) == 5
