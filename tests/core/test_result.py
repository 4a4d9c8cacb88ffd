"""Unit tests for :mod:`repro.core.result` — multiplicity tables."""

import pytest

from repro.core.result import MultiplicityTable, SensitiveTuple, SensitivityResult
from repro.engine import Relation
from repro.exceptions import UnknownAttributeError


@pytest.fixture
def dense_table():
    factor = Relation(["A", "B"], {("a1", "b1"): 3, ("a2", "b2"): 7})
    return MultiplicityTable("R", (factor,))


@pytest.fixture
def factored_table():
    left = Relation(["A"], {("a1",): 2, ("a2",): 5})
    right = Relation(["B"], {("b1",): 3})
    return MultiplicityTable("R", (left, right))


class TestDenseTable:
    def test_lookup(self, dense_table):
        assert dense_table.sensitivity_of({"A": "a2", "B": "b2"}) == 7

    def test_missing_combination_is_zero(self, dense_table):
        assert dense_table.sensitivity_of({"A": "a1", "B": "b2"}) == 0

    def test_extra_keys_ignored(self, dense_table):
        assert dense_table.sensitivity_of({"A": "a1", "B": "b1", "Z": 9}) == 3

    def test_argmax(self, dense_table):
        assignment, value = dense_table.argmax()
        assert value == 7
        assert assignment == {"A": "a2", "B": "b2"}

    def test_max_sensitivity(self, dense_table):
        assert dense_table.max_sensitivity() == 7


class TestFactoredTable:
    def test_lookup_multiplies(self, factored_table):
        assert factored_table.sensitivity_of({"A": "a2", "B": "b1"}) == 15

    def test_missing_factor_value_is_zero(self, factored_table):
        assert factored_table.sensitivity_of({"A": "a2", "B": "zz"}) == 0

    def test_argmax_multiplies_maxima(self, factored_table):
        assignment, value = factored_table.argmax()
        assert value == 15
        assert assignment == {"A": "a2", "B": "b1"}

    def test_empty_factor_argmax(self):
        table = MultiplicityTable(
            "R", (Relation(["A"], ()), Relation(["B"], {("b",): 2}))
        )
        assert table.argmax() == (None, 0)

    def test_dense_materialisation(self, factored_table):
        dense = factored_table.dense()
        assert dense.multiplicity(("a1", "b1")) == 6
        assert dense.total_count() == (2 + 5) * 3

    def test_overlapping_factors_rejected(self):
        with pytest.raises(ValueError):
            MultiplicityTable(
                "R",
                (Relation(["A"], [(1,)]), Relation(["A"], [(2,)])),
            )

    def test_no_factors_rejected(self):
        with pytest.raises(ValueError):
            MultiplicityTable("R", ())

    def test_zero_arity_factor_acts_as_scalar(self):
        unit = Relation([], {(): 4})
        other = Relation(["A"], {("a",): 3})
        table = MultiplicityTable("R", (unit, other))
        assert table.sensitivity_of({"A": "a"}) == 12


class TestBulkLookup:
    ASSIGNMENTS = [
        {"A": "a2", "B": "b1"},
        {"A": "a1", "B": "b1", "Z": 9},
        {"A": "a2", "B": "zz"},
        {"A": "zz", "B": "b1"},
    ]

    @pytest.mark.parametrize("table", ["dense_table", "factored_table"])
    def test_matches_single_lookups(self, table, request):
        table = request.getfixturevalue(table)
        assert table.sensitivities_of(self.ASSIGNMENTS) == [
            table.sensitivity_of(assignment) for assignment in self.ASSIGNMENTS
        ]
        assert table.sensitivities_of([]) == []

    def test_missing_attribute_raises(self, factored_table):
        with pytest.raises(UnknownAttributeError):
            factored_table.sensitivities_of([{"A": "a1", "B": "b1"}, {"A": "a1"}])
        with pytest.raises(UnknownAttributeError):
            factored_table.sensitivity_of({"A": "a1"})


class TestScaling:
    def test_scaled_lookups(self, dense_table):
        assert dense_table.scaled(10).sensitivity_of({"A": "a1", "B": "b1"}) == 30

    def test_scaled_argmax(self, factored_table):
        assert factored_table.scaled(2).argmax()[1] == 30

    def test_zero_multiplier(self, dense_table):
        zeroed = dense_table.scaled(0)
        assert zeroed.sensitivity_of({"A": "a2", "B": "b2"}) == 0
        assert zeroed.dense().is_empty()

    def test_attributes(self, factored_table):
        assert factored_table.attributes == ("A", "B")


class TestSensitivityResult:
    def test_tuple_sensitivity_helper(self, dense_table):
        result = SensitivityResult(
            query_name="Q",
            method="tsens",
            local_sensitivity=7,
            witness=SensitiveTuple("R", {"A": "a2", "B": "b2"}, 7),
            per_relation={},
            tables={"R": dense_table},
        )
        assert result.tuple_sensitivity("R", {"A": "a1", "B": "b1"}) == 3
        with pytest.raises(KeyError):
            result.table("S")

    def test_sensitive_tuple_as_row(self):
        witness = SensitiveTuple("R", {"A": 1, "B": 2}, 5)
        assert witness.as_row(("B", "A")) == (2, 1)
