"""Unit tests for the columnar execution backend.

Every operator and accessor of :class:`ColumnarRelation` is checked
against the dict-based :class:`Relation` reference on the same inputs —
the backends must be observationally identical.
"""

import numpy as np
import pytest

from repro.engine import (
    BACKEND_NAMES,
    ColumnarRelation,
    Database,
    Relation,
    backend_of,
    cross_product,
    difference,
    empty_like,
    get_backend,
    group_by,
    join,
    semijoin,
    symmetric_difference_size,
    to_backend,
    union_all,
)
from repro.engine import columnar as columnar_mod
from repro.engine.columnar import reset_vocabulary
from repro.exceptions import MechanismConfigError, MultiplicityOverflowError, SchemaError


def both(schema, rows):
    """The same logical relation on both backends."""
    return Relation(schema, rows), ColumnarRelation(schema, rows)


R_ROWS = [(1, 2), (1, 2), (3, 2), (4, 5), (4, 7)]
S_ROWS = [(2, 7), (2, 8), (5, 9), (5, 9), (5, 9)]


class TestConstruction:
    def test_rows_and_mapping_agree(self):
        from_rows = ColumnarRelation(["A", "B"], R_ROWS)
        from_map = ColumnarRelation(["A", "B"], {(1, 2): 2, (3, 2): 1, (4, 5): 1, (4, 7): 1})
        assert from_rows == from_map

    def test_matches_python_backend(self):
        py, col = both(["A", "B"], R_ROWS)
        assert col == py and py == col
        assert col.total_count() == py.total_count() == 5
        assert col.distinct_count() == py.distinct_count() == 4

    def test_arity_mismatch_raises(self):
        with pytest.raises(SchemaError):
            ColumnarRelation(["A", "B"], [(1,)])

    def test_negative_multiplicity_raises(self):
        with pytest.raises(SchemaError):
            ColumnarRelation(["A"], {(1,): -2})

    def test_zero_arity(self):
        py, col = both([], [(), (), ()])
        assert col.total_count() == 3
        assert col.multiplicity(()) == 3
        assert col == py

    def test_empty(self):
        py, col = both(["A"], ())
        assert col.is_empty() and col == py
        assert col.argmax_count() == (None, 0)

    def test_mixed_value_types(self):
        py, col = both(["A"], [("x",), (1,), (1.0,), (None,)])
        # 1 and 1.0 are the same dict key on both backends.
        assert col.multiplicity((1,)) == py.multiplicity((1,)) == 2
        assert col == py

    def test_not_hashable(self):
        _, col = both(["A"], [(1,)])
        with pytest.raises(TypeError):
            hash(col)


class TestAccessors:
    def test_counts_iteration(self):
        py, col = both(["A", "B"], R_ROWS)
        assert dict(col.counts) == dict(py.counts)
        assert sorted(col) == sorted(py)
        assert sorted(col.items()) == sorted(py.items())
        assert len(col) == len(py)
        assert (1, 2) in col and (9, 9) not in col

    def test_column_values(self):
        py, col = both(["A", "B"], R_ROWS)
        assert col.column_values("A") == py.column_values("A")
        assert col.column_values("B") == py.column_values("B")

    def test_max_frequency(self):
        py, col = both(["A", "B"], R_ROWS)
        for attrs in (["A"], ["B"], ["A", "B"], []):
            assert col.max_frequency(attrs) == py.max_frequency(attrs)

    def test_argmax_count_tie_break(self):
        rows = [(2, 1), (1, 9), (1, 9), (2, 1)]
        py, col = both(["A", "B"], rows)
        assert col.argmax_count() == py.argmax_count() == ((1, 9), 2)

    def test_argmax_count_string_tie_break(self):
        rows = [("b", "x"), ("a", "y")]
        py, col = both(["A", "B"], rows)
        assert col.argmax_count() == py.argmax_count() == (("a", "y"), 1)


class TestBagUpdates:
    def test_add_zero_multiplicity_is_noop_on_both(self):
        py, col = both(["A", "B"], R_ROWS)
        assert py.add((8, 8), 0).distinct_count() == py.distinct_count()
        assert col.add((8, 8), 0) == py.add((8, 8), 0)

    def test_add_remove(self):
        py, col = both(["A", "B"], R_ROWS)
        assert col.add((1, 2)) == py.add((1, 2))
        assert col.add((8, 8), 3) == py.add((8, 8), 3)
        assert col.remove((1, 2)) == py.remove((1, 2))
        assert col.remove((1, 2), 99) == py.remove((1, 2), 99)
        assert col.remove((8, 8)) == py.remove((8, 8))  # absent: no-op

    def test_filter(self):
        py, col = both(["A", "B"], R_ROWS)
        pred = lambda row: row["A"] != 4
        assert col.filter(pred) == py.filter(pred)
        assert isinstance(col.filter(pred), ColumnarRelation)

    def test_rename_scale(self):
        py, col = both(["A", "B"], R_ROWS)
        assert col.rename({"A": "Z"}) == py.rename({"A": "Z"})
        assert col.scale_counts(4) == py.scale_counts(4)
        with pytest.raises(SchemaError):
            col.scale_counts(0)

    def test_empty_like_preserves_backend(self):
        _, col = both(["A", "B"], R_ROWS)
        empty = empty_like(col)
        assert isinstance(empty, ColumnarRelation) and empty.is_empty()


class TestOperators:
    def test_join(self):
        rp, rc = both(["A", "B"], R_ROWS)
        sp, sc = both(["B", "C"], S_ROWS)
        assert join(rc, sc) == join(rp, sp)
        assert isinstance(join(rc, sc), ColumnarRelation)

    def test_join_mixed_operands_promote(self):
        rp, rc = both(["A", "B"], R_ROWS)
        sp, sc = both(["B", "C"], S_ROWS)
        mixed = join(rp, sc)
        assert isinstance(mixed, ColumnarRelation)
        assert mixed == join(rp, sp)

    def test_join_multi_attribute_key(self):
        rows_l = [(1, 2, 9), (1, 3, 9), (2, 2, 7)]
        rows_r = [(1, 2, "u"), (1, 2, "v"), (2, 2, "w")]
        lp, lc = both(["A", "B", "X"], rows_l)
        rp, rc = both(["A", "B", "Y"], rows_r)
        assert join(lc, rc) == join(lp, rp)

    def test_join_disjoint_is_cross_product(self):
        rp, rc = both(["A"], [(1,), (2,)])
        sp, sc = both(["B"], [(7,), (7,)])
        assert join(rc, sc) == join(rp, sp) == cross_product(rp, sp)

    def test_group_by(self):
        rp, rc = both(["A", "B"], R_ROWS)
        for attrs in (["A"], ["B"], ["B", "A"], []):
            assert group_by(rc, attrs) == group_by(rp, attrs)

    def test_semijoin(self):
        rp, rc = both(["A", "B"], R_ROWS)
        sp, sc = both(["B", "C"], S_ROWS)
        assert semijoin(rc, sc) == semijoin(rp, sp)
        # no shared attributes: keep all iff right non-empty
        tp, tc = both(["Z"], [(0,)])
        assert semijoin(rc, tc) == rc
        assert semijoin(rc, empty_like(tc)).is_empty()

    def test_union_all_and_difference(self):
        rp, rc = both(["A", "B"], R_ROWS)
        sp, sc = both(["A", "B"], [(1, 2), (9, 9)])
        assert union_all([rc, sc]) == union_all([rp, sp])
        assert difference(rc, sc) == difference(rp, sp)
        assert difference(sc, rc) == difference(sp, rp)
        with pytest.raises(SchemaError):
            difference(rc, both(["A", "C"], [(1, 2)])[1])

    def test_difference_zero_arity(self):
        ap, ac = both([], [(), (), ()])
        bp, bc = both([], [()])
        assert difference(ac, bc) == difference(ap, bp)
        assert difference(bc, ac).is_empty()

    def test_cross_product_overlap_raises(self):
        _, rc = both(["A", "B"], R_ROWS)
        with pytest.raises(SchemaError):
            cross_product(rc, rc)


class TestBackendRegistry:
    def test_round_trip(self):
        py, col = both(["A", "B"], R_ROWS)
        assert to_backend(py, "columnar") == col
        assert to_backend(col, "python") == py
        assert to_backend(col, "columnar") is col
        assert backend_of(py) == "python" and backend_of(col) == "columnar"

    def test_unknown_backend_raises(self):
        with pytest.raises(MechanismConfigError):
            get_backend("gpu")

    def test_backend_names(self):
        assert "python" in BACKEND_NAMES and "columnar" in BACKEND_NAMES

    def test_database_backend_knob(self):
        db = Database(
            {"R": Relation(["A", "B"], R_ROWS)}, backend="columnar"
        )
        assert db.backend == "columnar"
        assert isinstance(db.relation("R"), ColumnarRelation)
        back = db.with_backend("python")
        assert back.backend == "python"
        assert back.relation("R") == db.relation("R")

    def test_cascade_delete_stays_columnar(self):
        from repro.engine import ForeignKey

        db = Database(
            {
                "P": Relation(["K"], [(1,), (2,)]),
                "C": Relation(["K", "V"], [(1, "a"), (1, "b"), (2, "c")]),
            },
            primary_keys={"P": ("K",)},
            foreign_keys=[ForeignKey("C", ("K",), "P", ("K",))],
            backend="columnar",
        )
        after = db.cascade_delete("P", (1,))
        assert after.backend == "columnar"
        assert after.relation("C").total_count() == 1


class TestTopKClamp:
    def test_columnar_clamp_matches_python(self):
        from repro.core.topk import clamp_to_top_k

        rows = {( "a",): 5, ("b",): 3, ("c",): 2, ("d",): 1}
        py = Relation(["X"], rows)
        col = ColumnarRelation(["X"], rows)
        for k in (1, 2, 3, 4, 10):
            clamped = clamp_to_top_k(col, k)
            assert clamped == clamp_to_top_k(py, k)
            assert isinstance(clamped, ColumnarRelation)


class TestIoBackend:
    def test_csv_round_trip_columnar(self, tmp_path):
        from repro.engine.io import read_relation_csv, write_relation_csv

        _, col = both(["A", "B"], [("x", "y"), ("x", "y"), ("z", "w")])
        path = tmp_path / "r.csv"
        write_relation_csv(col, path)
        loaded = read_relation_csv(path, backend="columnar")
        assert isinstance(loaded, ColumnarRelation)
        assert loaded == col

    def test_json_database_columnar(self, tmp_path):
        from repro.engine.io import load_database, save_database

        db = Database({"R": Relation(["A"], [(1,), (1,), (2,)])})
        path = tmp_path / "db.json"
        save_database(db, path)
        loaded = load_database(path, backend="columnar")
        assert loaded.backend == "columnar"
        assert loaded.relation("R") == db.relation("R")


class TestLargeVectorizedPaths:
    def test_large_join_group_by_agree(self):
        rng = np.random.default_rng(7)
        rows_l = [tuple(map(int, r)) for r in rng.integers(0, 50, size=(4000, 2))]
        rows_r = [tuple(map(int, r)) for r in rng.integers(0, 50, size=(4000, 2))]
        lp, lc = both(["A", "B"], rows_l)
        rp, rc = both(["B", "C"], rows_r)
        assert join(lc, rc) == join(lp, rp)
        assert group_by(lc, ["B"]) == group_by(lp, ["B"])
        assert semijoin(lc, rc) == semijoin(lp, rp)


class TestOverflowGuards:
    """int64 wrap-around must error (python backend is the escape hatch)."""

    def test_join_product_overflow_raises(self):
        big = 4_000_000_000
        left = ColumnarRelation(["A", "B"], {(1, 2): big})
        right = ColumnarRelation(["B", "C"], {(2, 3): big})
        with pytest.raises(MultiplicityOverflowError):
            join(left, right)
        # python backend handles the same input exactly
        assert join(
            Relation(["A", "B"], {(1, 2): big}), Relation(["B", "C"], {(2, 3): big})
        ).total_count() == big * big

    def test_cross_product_overflow_raises(self):
        big = 4_000_000_000
        with pytest.raises(MultiplicityOverflowError):
            cross_product(
                ColumnarRelation(["A"], {(1,): big}),
                ColumnarRelation(["B"], {(2,): big}),
            )

    def test_non_combining_large_rows_pass(self):
        # Large counts whose rows never join must NOT trip the guard.
        big = 4_000_000_000
        left = ColumnarRelation(["A", "B"], {(1, 1): big, (9, 5): 2})
        right = ColumnarRelation(["B", "C"], {(2, 3): big, (5, 7): 3})
        assert join(left, right) == Relation(["A", "B", "C"], {(9, 5, 7): 6})

    def test_construction_beyond_int64_raises(self):
        with pytest.raises(MultiplicityOverflowError):
            ColumnarRelation(["A"], {(1,): 2**70})
        with pytest.raises(MultiplicityOverflowError):
            to_backend(Relation(["A"], {(1,): 2**70}), "columnar")
        with pytest.raises(MultiplicityOverflowError):
            ColumnarRelation(["A"], {(1,): 1}).add((1,), 2**70)

    def test_scale_counts_overflow_raises(self):
        with pytest.raises(MultiplicityOverflowError):
            ColumnarRelation(["A"], {(1,): 2**40}).scale_counts(2**40)

    def test_group_by_sum_overflow_raises(self):
        half = 2**62
        rel = ColumnarRelation(["A", "B"], {(1, 1): half, (1, 2): half, (1, 3): half})
        with pytest.raises(MultiplicityOverflowError):
            group_by(rel, ["A"])

    def test_large_but_fitting_counts_pass(self):
        near = 2**62
        rel = ColumnarRelation(["A", "B"], {(1, 1): near, (1, 2): near - 1})
        # bound check (max * count) trips, exact sum fits: must succeed
        assert group_by(rel, ["A"]).multiplicity((1,)) == 2 * near - 1


class TestVocabularyReset:
    """reset_vocabulary() reclaims the process dictionary; relations built
    before the reset stay valid and interoperate with new ones."""

    def test_old_relations_survive_reset(self):
        old = ColumnarRelation(["A", "B"], [("u", "v"), ("u", "w")])
        reset_vocabulary()
        assert dict(old.counts) == {("u", "v"): 1, ("u", "w"): 1}
        assert old.multiplicity(("u", "v")) == 1

    def test_cross_generation_operators_align(self):
        old = ColumnarRelation(["A", "B"], [(1, 2), (3, 2)])
        reset_vocabulary()
        new = ColumnarRelation(["B", "C"], [(2, 9)])
        joined = join(old, new)
        assert joined == Relation(["A", "B", "C"], [(1, 2, 9), (3, 2, 9)])
        assert semijoin(old, new) == old
        assert union_all([old, old.rename({})]) == old.scale_counts(2)
        assert difference(old, ColumnarRelation(["A", "B"], [(1, 2)])) == \
            Relation(["A", "B"], [(3, 2)])


class TestSortCache:
    """The ``_match_pairs`` argsort memo (:func:`columnar._sorted_key`)."""

    def test_small_and_view_arrays_bypass_cache(self):
        columnar_mod._SORT_CACHE.clear()
        small = np.arange(10, dtype=np.int64)[::-1].copy()
        order, sorted_key = columnar_mod._sorted_key(small)
        assert list(sorted_key) == sorted(small.tolist())
        assert len(columnar_mod._SORT_CACHE) == 0
        big = np.random.default_rng(0).integers(
            0, 100, columnar_mod._SORT_CACHE_MIN_SIZE + 1
        )
        view = big[1:]
        columnar_mod._sorted_key(view)
        assert len(columnar_mod._SORT_CACHE) == 0

    def test_cache_hit_returns_same_arrays(self):
        columnar_mod._SORT_CACHE.clear()
        key = np.random.default_rng(1).integers(
            0, 1000, columnar_mod._SORT_CACHE_MIN_SIZE + 5
        )
        order1, sorted1 = columnar_mod._sorted_key(key)
        order2, sorted2 = columnar_mod._sorted_key(key)
        assert order1 is order2 and sorted1 is sorted2
        assert len(columnar_mod._SORT_CACHE) == 1

    def test_cache_evicts_by_capacity(self):
        columnar_mod._SORT_CACHE.clear()
        keys = [
            np.random.default_rng(i).integers(
                0, 1000, columnar_mod._SORT_CACHE_MIN_SIZE
            )
            for i in range(columnar_mod._SORT_CACHE_MAX_ENTRIES + 4)
        ]
        for key in keys:
            columnar_mod._sorted_key(key)
        assert (
            len(columnar_mod._SORT_CACHE)
            <= columnar_mod._SORT_CACHE_MAX_ENTRIES
        )

    def test_join_correct_with_cache_across_calls(self):
        rows = [(i % 97, i) for i in range(3000)]
        left = ColumnarRelation(["A", "B"], rows)
        right = ColumnarRelation(["A", "C"], [(i % 97, -i) for i in range(3000)])
        once = join(left, right)
        again = join(left, right)
        assert symmetric_difference_size(once, again) == 0
