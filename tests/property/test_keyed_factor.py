"""Property suite for keyed table factors.

A table component of two parts that share exactly the attributes it sums
out, one of them unique on a kept attribute, is stored as a
:class:`~repro.core.result.KeyedFactor` instead of being materialised.
On both backends, over random two-part components with and without the
key, the stored factor must answer exactly as the materialised
``join_aggregate(parts, keep)``: argmax value and tie-broken tuple (over
ints, strings and ints past 2**53), ``distinct_count``, ``total_count``
and lookups of present and absent keys, which read through the parts and
leave the factor unmaterialised.  A columnar overflow raises the located
error the materialised build raises, in a build and in a fold, which then
commits nothing.  A fold of either part re-forms the factor over the new
part, reusing the other part's groups, and folds (one row or several, on
either part, that break and restore the key) leave a maintained table
equal to a fresh build, in values and in form.
"""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.result import KeyedFactor, MultiplicityTable
from repro.engine import Database, Relation, patch
from repro.engine.columnar import ColumnarRelation
from repro.evaluation import IncrementalEvaluator, joinstate
from repro.evaluation.joinstate import JoinState, RelationDelta, join_aggregate, table_factor
from repro.exceptions import MultiplicityOverflowError
from repro.query import component_trees, parse_query
from repro.query.ghd import ghd_from_groups

BACKENDS = {"python": Relation, "columnar": ColumnarRelation}
#: Value domains: the tie-break must order each exactly as Python does.
DOMAINS = {
    "int": [0, 1, 2, 3],
    "str": ["a", "b", "c", "d"],
    "big": [2**53, 2**53 + 1, 2**53 + 2, 2**53 + 3],
}


@st.composite
def components(draw):
    """``(parts as (attributes, rows), keep)`` for a two-part component:
    a part over shared and its own kept attributes, the other over the
    same shared attributes and its own.  With ``keyed`` the first part's
    first kept attribute is unique; counts are small, so peaks tie."""
    domain = DOMAINS[draw(st.sampled_from(sorted(DOMAINS)))]
    # Two values per column make rows meet and kept values repeat.
    values = st.sampled_from(domain[:2])
    shared = draw(st.sampled_from([("S",), ("S", "T")]))
    own = [("A",), ("A", "B")][draw(st.integers(0, 1))]
    other = [(), ("C",), ("C", "E")][draw(st.integers(0, 2))]
    keyed = draw(st.booleans())
    parts = []
    for kept in (own, other):
        attrs = tuple(draw(st.permutations(shared + kept)))
        n_rows = draw(st.integers(min_value=1, max_value=len(domain) if keyed else 6))
        rows = {}
        unique = draw(st.permutations(domain))
        for i in range(n_rows):
            row = {a: draw(values) for a in attrs}
            if keyed and kept is own:
                row[own[0]] = unique[i]
            rows[tuple(row[a] for a in attrs)] = draw(st.integers(min_value=1, max_value=3))
        parts.append((attrs, rows))
    if draw(st.booleans()):
        parts.reverse()
    keep = tuple(draw(st.permutations(own + other)))
    return parts, keep


def _has_key(attrs, rows, shared):
    """Some kept column holds a distinct value in every row."""
    kept = [i for i, a in enumerate(attrs) if a not in shared]
    return bool(rows) and any(
        len({row[i] for row in rows}) == len(rows) for i in kept
    )


PEAK_TIES = (
    [(("S", "A"), {(0, 0): 2, (0, 1): 2, (1, 2): 1}),
     (("C", "S"), {(3, 0): 1, (2, 0): 1, (1, 1): 2})],
    ("C", "A"),
)
BIG_TIES = (
    [(("A", "S"), {(2**53 + 1, 0): 1, (2**53, 1): 1}),
     (("S", "C"), {(0, 2**53): 1, (1, 2**53 + 1): 1})],
    ("A", "C"),
)
NO_KEY = (
    [(("S", "A"), {(0, 0): 1, (1, 0): 1}), (("S", "C"), {(0, 1): 1, (1, 1): 1})],
    ("A", "C"),
)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestKeyedFactorMatchesMaterialised:
    @given(components())
    @settings(max_examples=150, deadline=None)
    @example(PEAK_TIES)
    @example(BIG_TIES)
    @example(NO_KEY)
    def test_answers_and_form(self, backend, case):
        spec, keep = case
        parts = [BACKENDS[backend](list(attrs), rows) for attrs, rows in spec]
        factor = table_factor(parts, keep)
        reference = join_aggregate(parts, keep)
        shared = set(spec[0][0]) & set(spec[1][0])
        keyed = any(_has_key(attrs, list(rows), shared) for attrs, rows in spec)
        assert isinstance(factor, KeyedFactor) == keyed
        assert factor.attributes == reference.attributes
        assert factor.argmax_count() == reference.argmax_count()
        assert factor.distinct_count() == reference.distinct_count()
        assert factor.total_count() == reference.total_count()
        present = sorted(reference.counts, key=repr)[:8]
        domain = sorted(
            {v for _, rows in spec for row in rows for v in row}, key=repr
        )[:3]
        absent = [
            row for row in itertools.product(domain, repeat=len(keep))
            if row not in reference.counts
        ][:8]
        assert factor.multiplicities(present + absent) == reference.multiplicities(
            present + absent
        )
        if isinstance(factor, KeyedFactor):
            assert factor.materialise() == reference


# ------------------------------------------------------------- maintained
#: q3's O table in miniature: ``T^O = γ_{CK,K}(J(g1)[K,N] ⋈ C[N,CK])``,
#: keyed while C is unique on CK.
TRIANGLE = parse_query("R(N,K), C(N,CK), O(CK,K)")
TREE = ghd_from_groups(
    TRIANGLE, groups={"g0": ["R"], "g1": ["C", "O"]}, root="g0", parent={"g1": "g0"}
)
DOMAIN = {"N": [0, 1], "CK": [0, 1, 2], "K": [0, 1, 2]}


def _database(relations, backend):
    return Database(
        {
            name: Relation(list(TRIANGLE.atom(name).variables), rows)
            for name, rows in relations.items()
        },
        backend=backend,
    )


def _evaluator(relations, backend):
    """An evaluator over the triangle's one-component plan, and its state,
    which ``evaluator.apply_batch`` folds into in place."""
    evaluator = IncrementalEvaluator(
        TRIANGLE,
        _database(relations, backend),
        component_pairs=component_trees(TRIANGLE, TREE),
    )
    (state,) = evaluator.component_states
    return evaluator, state


def _same_table(maintained, fresh):
    assert [type(f) for f in maintained.factors] == [type(f) for f in fresh.factors]
    for kept, built in zip(maintained.factors, fresh.factors):
        assert kept.attributes == built.attributes
        assert kept.argmax_count() == built.argmax_count()
        assert kept.distinct_count() == built.distinct_count()
        assert kept.total_count() == built.total_count()
        assert dict(kept.items()) == dict(built.items())


@st.composite
def update_streams(draw):
    """Signed one-row updates on the triangle: C rows reuse a CK under a
    second N (breaking C's key) about as often as they restore it."""
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        relation = draw(st.sampled_from(["C", "C", "R", "O"]))
        attrs = TRIANGLE.atom(relation).variables
        row = tuple(draw(st.sampled_from(DOMAIN[a])) for a in attrs)
        steps.append((relation, row, draw(st.booleans())))
    return steps


BREAK_AND_RESTORE = [("C", (1, 0), True), ("R", (2, 1), True), ("C", (1, 0), False)]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestMaintainedKeyedTables:
    @given(update_streams())
    @settings(max_examples=60, deadline=None)
    @example(BREAK_AND_RESTORE)
    def test_folds_match_fresh_build(self, backend, steps):
        # J(g1)[K,N] repeats K 0, so O's factor is keyed on C alone.
        relations = {
            "R": {(0, 0): 2, (1, 0): 1, (1, 2): 3},
            "C": {(0, 0): 1, (1, 1): 2, (0, 2): 1},
            "O": {(0, 0): 1, (1, 2): 2},
        }
        evaluator, state = _evaluator(relations, backend)
        state.topjoins()
        for relation in TRIANGLE.relation_names:
            state.multiplicity_table(relation)
        assert isinstance(state.multiplicity_table("O").factors[0], KeyedFactor)
        for relation, row, insert in steps:
            rows = relations[relation]
            if not insert and row not in rows:
                continue
            evaluator.apply_batch(
                [RelationDelta(relation, {row: 1} if insert else {}, {} if insert else {row: 1})]
            )
            rows[row] = rows.get(row, 0) + (1 if insert else -1)
            if not rows[row]:
                del rows[row]
            fresh = JoinState(TRIANGLE, TREE, _database(relations, backend))
            assert state.count == fresh.count
            for name in TRIANGLE.relation_names:
                _same_table(state.multiplicity_table(name), fresh.multiplicity_table(name))

    def test_break_then_restore_changes_form(self, backend):
        """Neither part is keyed once C reuses CK 0 under N 1 (R has K 0
        under both N), and C is keyed again once that row goes."""
        relations = {"R": {(0, 0): 1, (1, 0): 1}, "C": {(0, 0): 1}, "O": {}}
        evaluator, state = _evaluator(relations, backend)
        state.multiplicity_table("O")
        forms = []
        for insert in (True, False):
            delta = {(1, 0): 1}
            evaluator.apply_batch(
                [RelationDelta("C", delta if insert else {}, {} if insert else delta)]
            )
            forms.append(type(state.multiplicity_table("O").factors[0]))
        assert forms == [BACKENDS[backend], KeyedFactor]


class TestOverflowIsLocated:
    def test_keyed_build_raises_the_materialised_error(self, monkeypatch):
        """``J(g1)[K,N] · C[N,CK] = 2**62 · 4`` overflows O's keyed factor
        on columnar, where the count (O joins nothing) does not; the error
        names the table and factor exactly as the materialised build's."""
        relations = {"R": {(0, 0): 2**62}, "C": {(0, 5): 4}, "O": {(9, 9): 1}}

        def build_error():
            state = JoinState(TRIANGLE, TREE, _database(relations, "columnar"))
            with pytest.raises(MultiplicityOverflowError) as error:
                state.multiplicity_table("O")
            return str(error.value)

        keyed = build_error()
        assert keyed.startswith("multiplicity table for 'O', factor 0: ")
        monkeypatch.setattr(joinstate, "_key_part", lambda parts, keep, known: None)
        assert keyed == build_error()
        python = JoinState(TRIANGLE, TREE, _database(relations, "python"))
        assert python.multiplicity_table("O").argmax() == ({"CK": 5, "K": 0}, 2**64)


# ------------------------------------------------------ lookups and folds
@st.composite
def keyed_folds(draw):
    """A keyed component and a fold of either part: rows of that part's
    schema inserted, or some of its rows deleted."""
    parts, keep = draw(components())
    side = draw(st.integers(0, 1))
    attrs, rows = parts[side]
    values = st.sampled_from(sorted({v for _, r in parts for row in r for v in row}, key=repr))
    insert = draw(st.booleans()) or not rows
    if insert:
        delta = draw(
            st.dictionaries(st.tuples(*[values] * len(attrs)), st.integers(1, 3), min_size=1, max_size=3)
        )
    else:
        chosen = draw(st.lists(st.sampled_from(sorted(rows, key=repr)), min_size=1, unique=True))
        delta = {row: draw(st.integers(1, rows[row])) for row in chosen}
    return parts, keep, side, delta, insert


def _assert_same_answers(factor, reference):
    assert factor.attributes == reference.attributes
    assert factor.argmax_count() == reference.argmax_count()
    assert factor.distinct_count() == reference.distinct_count()
    assert factor.total_count() == reference.total_count()


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestKeyedFactorLookups:
    @given(components())
    @settings(max_examples=100, deadline=None)
    @example(PEAK_TIES)
    @example(BIG_TIES)
    def test_lookups_read_through_the_parts(self, backend, case):
        """Present and absent keys answer the materialised factor's
        counts, and the factor stays unmaterialised."""
        spec, keep = case
        parts = [BACKENDS[backend](list(attrs), rows) for attrs, rows in spec]
        factor = table_factor(parts, keep)
        if not isinstance(factor, KeyedFactor):
            return
        reference = join_aggregate(parts, keep)
        domain = sorted({v for _, rows in spec for row in rows for v in row}, key=repr)
        keys = list(itertools.product(domain[:3], repeat=len(keep)))[:12]
        keys += sorted(reference.counts, key=repr)[:6]
        assert factor.multiplicities(keys) == reference.multiplicities(keys)
        assert factor.multiplicity(keys[0]) == reference.multiplicity(keys[0])
        table = MultiplicityTable("X", (factor,))
        assignments = [dict(zip(keep, key)) for key in keys]
        assert table.sensitivities_of(assignments) == reference.multiplicities(keys)
        assert factor._materialised is None


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestKeyedFactorFolds:
    @given(keyed_folds())
    @settings(max_examples=150, deadline=None)
    def test_patched_factor_equals_a_fresh_one(self, backend, case):
        """A fold of either part re-forms the factor as a fold does: the
        unchanged key part keeps the key and its groups; a changed key
        part is checked again.  The result has the fresh build's form and
        answers."""
        spec, keep, side, delta, insert = case
        kind = BACKENDS[backend]
        parts = [kind(list(attrs), rows) for attrs, rows in spec]
        factor = table_factor(parts, keep)
        if not isinstance(factor, KeyedFactor):
            return
        delta = kind(list(spec[side][0]), delta)
        moved = patch(parts[side], plus=delta) if insert else patch(parts[side], minus=delta)
        new_parts = [moved if i == side else part for i, part in enumerate(parts)]
        fresh = table_factor(new_parts, keep)
        if factor.key != side:
            folded = factor.with_part(side, moved, factor.key)
            assert folded._groups[1 - side] is factor._groups[1 - side]
        else:
            key = joinstate._key_part(new_parts, keep, {})
            folded = (
                join_aggregate(new_parts, keep) if key is None
                else factor.with_part(side, moved, key)
            )
        assert isinstance(folded, KeyedFactor) == isinstance(fresh, KeyedFactor)
        _assert_same_answers(folded, join_aggregate(new_parts, keep))


@st.composite
def batch_streams(draw):
    """Signed multi-row batches on the triangle's R (J(g1), the unkeyed
    part of O's factor) and C (its key part)."""
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        relation = draw(st.sampled_from(["C", "R"]))
        attrs = TRIANGLE.atom(relation).variables
        rows = st.tuples(*[st.sampled_from(DOMAIN[a]) for a in attrs])
        batches.append(
            (relation, draw(st.dictionaries(rows, st.integers(1, 2), min_size=1, max_size=3)),
             draw(st.booleans()))
        )
    return batches


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestMaintainedKeyedFolds:
    @given(batch_streams())
    @settings(max_examples=60, deadline=None)
    def test_multi_row_folds_on_either_part_match_fresh_build(self, backend, batches):
        relations = {
            "R": {(0, 0): 2, (1, 0): 1, (1, 2): 3},
            "C": {(0, 0): 1, (1, 1): 2, (0, 2): 1},
            "O": {(0, 0): 1, (1, 2): 2},
        }
        evaluator, state = _evaluator(relations, backend)
        state.topjoins()
        for relation in TRIANGLE.relation_names:
            state.multiplicity_table(relation)
        for relation, rows, insert in batches:
            current = relations[relation]
            if not insert:
                rows = {row: min(cnt, current[row]) for row, cnt in rows.items() if row in current}
                if not rows:
                    continue
            evaluator.apply_batch(
                [RelationDelta(relation, rows if insert else {}, {} if insert else rows)]
            )
            for row, cnt in rows.items():
                current[row] = current.get(row, 0) + (cnt if insert else -cnt)
                if not current[row]:
                    del current[row]
            fresh = JoinState(TRIANGLE, TREE, _database(relations, backend))
            assert state.count == fresh.count
            for name in TRIANGLE.relation_names:
                _same_table(state.multiplicity_table(name), fresh.multiplicity_table(name))

    def test_fold_overflow_is_located_and_commits_nothing(self, backend):
        """J(g1) at (K 0, N 0) reaches 2**62 and meets C's count 4 in
        O's keyed factor: past int64 on columnar, where the count (O joins
        nothing) does not overflow.  The error names the table and factor
        and the state keeps every level and table; python answers."""
        relations = {"R": {(0, 0): 1}, "C": {(0, 5): 4}, "O": {(9, 9): 1}}
        evaluator, state = _evaluator(relations, backend)
        state.topjoins()
        before = {name: state.multiplicity_table(name) for name in TRIANGLE.relation_names}
        assert isinstance(before["O"].factors[0], KeyedFactor)
        levels = (dict(state.botjoins), dict(state.topjoins()), dict(state.bound.atom_relations))
        delta = RelationDelta("R", {(0, 0): 2**62 - 1}, {})
        if backend == "python":
            evaluator.apply_batch([delta])
            assert state.multiplicity_table("O").argmax() == ({"CK": 5, "K": 0}, 2**64)
            return
        with pytest.raises(MultiplicityOverflowError) as raised:
            evaluator.apply_batch([delta])
        assert str(raised.value).startswith("multiplicity table for 'O', factor 0: ")
        assert {name: state.multiplicity_table(name) for name in before} == before
        assert (dict(state.botjoins), dict(state.topjoins()), dict(state.bound.atom_relations)) == levels
        assert evaluator.db.relation("R").multiplicity((0, 0)) == 1
