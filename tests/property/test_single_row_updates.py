"""Property suite for single-row database updates.

``Database.add_tuple`` and ``remove_tuple`` are the paper's neighbours
``D ∪ {t}`` and ``D \\ {t}`` (Def. 2.1); ``cascade_delete`` is PrivSQL's,
which also deletes every row that references ``t`` through foreign keys.
All three change a stored relation only through ``patch``.  On random rows
over a small domain (present, absent, repeated), each gives the same bags
on both backends; add and remove equal a one-row ``patch``, and cascade
equals a reference over plain dicts.  On columnar every relation they
touch is left in code order and carries its row key, so the next update
neither sorts nor re-packs it.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.engine import Database, ForeignKey, Relation, patch

BACKENDS = ("python", "columnar")
ATTRIBUTES = ("A", "B", "C")
VALUE = st.integers(min_value=0, max_value=4)


def _in_code_order(relation):
    if relation.distinct_count() < 2:
        return True
    order = np.lexsort(tuple(reversed(relation._codes)))
    return bool((order == np.arange(order.size)).all())


def _assert_keyed_in_code_order(relation):
    assert _in_code_order(relation)
    assert relation._row_key is not None and relation._row_key.order is None


@st.composite
def update_streams(draw):
    """A bag over 1–3 attributes and a stream of signed single rows drawn
    from the same small domain, so rows repeat, exist and are absent."""
    arity = draw(st.integers(min_value=1, max_value=3))
    row = st.tuples(*[VALUE] * arity)
    counts = draw(st.dictionaries(row, st.integers(min_value=1, max_value=3), max_size=8))
    stream = draw(st.lists(st.tuples(st.booleans(), row), min_size=1, max_size=6))
    return ATTRIBUTES[:arity], counts, stream


class TestAddAndRemove:
    @given(update_streams())
    @settings(max_examples=100, deadline=None)
    def test_one_row_patches_on_both_backends(self, case):
        attrs, counts, stream = case
        dbs = {
            backend: Database({"R": Relation(list(attrs), counts)}, backend=backend)
            for backend in BACKENDS
        }
        for insert, row in stream:
            for backend, db in dbs.items():
                base = db.relation("R")
                after = db.add_tuple("R", row) if insert else db.remove_tuple("R", row)
                expected = patch(base, type(base)(base.schema, [row]), insert)
                assert dict(after.relation("R").counts) == dict(expected.counts)
                assert dict(base.counts) == dict(db.relation("R").counts)
                if backend == "columnar":
                    _assert_keyed_in_code_order(after.relation("R"))
                dbs[backend] = after
            assert dict(dbs["columnar"].relation("R").counts) == dict(
                dbs["python"].relation("R").counts
            )


FOREIGN_KEYS = [
    ForeignKey("C", ("K",), "P", ("K",)),
    ForeignKey("G", ("V",), "C", ("V",)),
]
SCHEMAS = {"P": ("K",), "C": ("K", "V"), "G": ("V", "W")}


def _cascade_reference(counts, name, row):
    """The cascade over plain dicts: one copy of ``row`` leaves ``name``,
    then every copy of each row referencing a deleted row, transitively."""
    counts = {rel: dict(bag) for rel, bag in counts.items()}
    if counts[name].get(row, 0) > 1:
        counts[name][row] -= 1
    else:
        counts[name].pop(row, None)
    frontier = [(name, row)]
    while frontier:
        parent, parent_row = frontier.pop()
        for fk in FOREIGN_KEYS:
            if fk.parent != parent:
                continue
            key = tuple(
                parent_row[SCHEMAS[parent].index(a)] for a in fk.parent_attributes
            )
            child = SCHEMAS[fk.child]
            for child_row in [
                r
                for r in counts[fk.child]
                if tuple(r[child.index(a)] for a in fk.child_attributes) == key
            ]:
                del counts[fk.child][child_row]
                frontier.append((fk.child, child_row))
    return counts


@st.composite
def keyed_databases(draw):
    """Bags for P(K) ← C(K,V) ← G(V,W) and a row of one of them to delete."""
    counts = {
        name: draw(
            st.dictionaries(
                st.tuples(*[VALUE] * len(attrs)),
                st.integers(min_value=1, max_value=3),
                max_size=8,
            )
        )
        for name, attrs in SCHEMAS.items()
    }
    name = draw(st.sampled_from(sorted(SCHEMAS)))
    existing = sorted(counts[name])
    fresh = st.tuples(*[VALUE] * len(SCHEMAS[name]))
    row = draw(st.sampled_from(existing) | fresh if existing else fresh)
    return counts, name, row


# A root row with two copies loses one; its dependants all go.
TWO_COPY_ROOT = (
    {"P": {(1,): 2, (2,): 1}, "C": {(1, 3): 3, (2, 4): 1}, "G": {(3, 0): 1, (4, 0): 2}},
    "P",
    (1,),
)


class TestCascadeDelete:
    @given(keyed_databases())
    @settings(max_examples=100, deadline=None)
    @example(TWO_COPY_ROOT)
    def test_matches_reference_on_both_backends(self, case):
        counts, name, row = case
        expected = _cascade_reference(counts, name, row)
        for backend in BACKENDS:
            db = Database(
                {rel: Relation(list(SCHEMAS[rel]), bag) for rel, bag in counts.items()},
                foreign_keys=FOREIGN_KEYS,
                backend=backend,
            )
            after = db.cascade_delete(name, row)
            for rel in SCHEMAS:
                assert dict(after.relation(rel).counts) == expected[rel]
                assert dict(db.relation(rel).counts) == counts[rel]
            base = db.relation(name)
            one_row = patch(base, type(base)(base.schema, [row]), False)
            assert dict(after.relation(name).counts) == dict(one_row.counts)
            if backend == "columnar":
                for rel in SCHEMAS:
                    if after.relation(rel) is not db.relation(rel):
                        _assert_keyed_in_code_order(after.relation(rel))
