"""TSens truncation (Definition 6.4).

``T_TSens(Q, D, i)`` keeps every tuple of the primary private relation whose
tuple sensitivity is at most ``i`` (other relations pass through).  Two key
facts the mechanism relies on:

* the tuple sensitivities come from one probe of the primary's distinct
  tuples (:meth:`~repro.session.PreparedQuery.probe`, Berkholz, Keppeler
  and Schweikardt's delta propagation over the botjoins and topjoins) —
  no multiplicity table and no re-evaluation per tuple;
* ``Q(T_TSens(Q, ·, τ))`` has global sensitivity ``τ``: a tuple with
  sensitivity above ``τ`` is truncated before it can affect the count, and
  any surviving tuple changes the count by at most its sensitivity ≤ τ.

:class:`TruncationOracle` additionally caches the truncated counts: the
count only changes when the threshold crosses one of the distinct
sensitivity values present in the relation, so an SVT sweep over
``i = 1..ℓ`` costs one evaluation per distinct level, not per ``i``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.engine.database import Database
from repro.engine.operators import patch, semijoin
from repro.engine.relation import Row
from repro.evaluation.yannakakis import count_query
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.jointree import DecompositionTree
from repro.session import PreparedQuery, prepare
from repro.dp.marking import declassified
from repro.exceptions import MechanismConfigError


@declassified(reason="pre-DP utility: input to a mechanism, not a release")
def tuple_sensitivities(
    query: ConjunctiveQuery,
    db: Database,
    relation: str,
    tree: Optional[DecompositionTree] = None,
) -> Dict[Row, int]:
    """``δ(t, Q, D)`` for every distinct tuple of ``relation``.

    One probe of all the tuples on a fresh session.  Tuples failing the
    query's selection predicate, or not joining with the rest of the
    database, get sensitivity 0.
    """
    return _probed(prepare(query, db, tree=tree), relation)


def _probed(session: PreparedQuery, relation: str) -> Dict[Row, int]:
    rows = list(session.db.relation(relation))
    return dict(zip(rows, session.probe(relation, rows)))


@declassified(reason="pre-DP utility: input to a mechanism, not a release")
def tsens_truncate(
    query: ConjunctiveQuery,
    db: Database,
    primary: str,
    threshold: int,
    tree: Optional[DecompositionTree] = None,
) -> Database:
    """``T_TSens(Q, D, threshold)`` — Definition 6.4.

    Removes (all copies of) primary-relation tuples whose tuple sensitivity
    exceeds ``threshold``; every other relation is untouched.
    """
    if threshold < 0:
        raise MechanismConfigError(f"threshold must be >= 0, got {threshold}")
    sensitivities = tuple_sensitivities(query, db, primary, tree=tree)
    return _truncated(db, primary, sensitivities, threshold)


def _truncated(
    db: Database, primary: str, sensitivities: Dict[Row, int], threshold: int
) -> Database:
    """``db`` with every copy of each primary row whose sensitivity exceeds
    ``threshold`` patched out by monus."""
    base = db.relation(primary)
    over = type(base)(
        base.schema, [row for row, level in sensitivities.items() if level > threshold]
    )
    return db.with_relation(primary, patch(base, semijoin(base, over), False))


class TruncationOracle:
    """Caches ``|Q(T_TSens(Q, D, i))|`` across thresholds.

    Built from one probe of the primary's distinct tuples and one count on
    a session; no multiplicity table is read.

    Parameters
    ----------
    query, db:
        The query and instance.
    primary:
        The primary private relation being truncated.
    tree:
        Decomposition for the default session.
    skip_relations:
        Relations the :attr:`local_sensitivity` diagnostic skips.
    session:
        A :class:`~repro.session.PreparedQuery` over ``db`` to probe and
        count on, so the topjoins the probe builds stay in it — the
        session layer passes itself; defaults to
        ``prepare(query, db, tree=tree)``.  The oracle reads the query,
        instance and tree off this session, and rejects one over another
        database.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        db: Database,
        primary: str,
        tree: Optional[DecompositionTree] = None,
        skip_relations: Tuple[str, ...] = (),
        session: Optional[PreparedQuery] = None,
    ):
        self._primary = primary
        self._skip_relations = tuple(skip_relations)
        owned = session is None
        if owned:
            session = prepare(query, db, tree=tree)
        with session.lock:
            if session.db is not db:
                raise MechanismConfigError(
                    "the oracle's session is prepared over another database"
                )
            self._query, self._db, self._tree = session.query, db, session.tree
            self._sensitivities = _probed(session, primary)
            self._base_count = session.count()
            # The diagnostic LS is read later, at this snapshot.  Nobody
            # else can update a session the oracle prepared; a caller's is
            # forked, which shares its state and which no later update of
            # it reaches.
            self._snapshot = session if owned else session.fork()
        # Distinct sensitivity levels, ascending; thresholds between two
        # levels produce identical truncations.
        self._levels: List[int] = sorted(set(self._sensitivities.values()))
        # Because the primary relation appears exactly once in the query
        # (no self-joins), every output tuple matches exactly one distinct
        # primary row, and removing a row with multiplicity c and tuple
        # sensitivity δ removes exactly c·δ outputs.  Truncated counts are
        # therefore base − Σ_{δ(r) > i} mult(r)·δ(r): precompute the
        # removed-output mass per level and its suffix sums.
        base_relation = self._db.relation(primary)
        mass_per_level: Dict[int, int] = {}
        for row, cnt in base_relation.items():
            level = self._sensitivities[row]
            mass_per_level[level] = mass_per_level.get(level, 0) + cnt * level
        self._suffix_removed: List[int] = [0] * (len(self._levels) + 1)
        for index in range(len(self._levels) - 1, -1, -1):
            self._suffix_removed[index] = self._suffix_removed[index + 1] + (
                mass_per_level.get(self._levels[index], 0)
            )

    @property
    @declassified(reason="diagnostic accessor; mechanisms only use it pre-DP")
    def local_sensitivity(self) -> int:
        """``LS(Q, D)`` as computed by TSens at the oracle's snapshot, with
        its ``skip_relations`` (built on first read, then cached)."""
        return self._snapshot.sensitivity(
            skip_relations=self._skip_relations
        ).local_sensitivity

    @property
    def base_count(self) -> int:
        """``|Q(D)|`` on the untruncated database."""
        return self._base_count

    @property
    def max_primary_sensitivity(self) -> int:
        """Largest tuple sensitivity among the primary's existing tuples."""
        return self._levels[-1] if self._levels else 0

    def _level_key(self, threshold: int) -> int:
        """Index of the highest level ≤ threshold (−1 when all exceed)."""
        return bisect_right(self._levels, threshold) - 1

    def truncated_database(self, threshold: int) -> Database:
        """``T_TSens(Q, D, threshold)`` (uncached; use for final answers)."""
        return _truncated(self._db, self._primary, self._sensitivities, threshold)

    def truncated_count(self, threshold: int) -> int:
        """``|Q(T_TSens(Q, D, threshold))|`` in O(log #levels).

        Uses the suffix-sum decomposition (see ``__init__``); the
        equivalence with a full re-evaluation on the truncated database is
        covered by property tests.
        """
        key = self._level_key(threshold)
        return self._base_count - self._suffix_removed[key + 1]

    @declassified(reason="testing cross-check for truncated_count")
    def truncated_count_reevaluated(self, threshold: int) -> int:
        """``|Q(T_TSens(Q, D, threshold))|`` by actually re-running the
        query on the truncated database — the cross-check for
        :meth:`truncated_count`."""
        return count_query(
            self._query, self.truncated_database(threshold), tree=self._tree
        )

    def truncated_fraction(self, threshold: int) -> float:
        """Fraction of primary tuples (bag-weighted) removed at ``threshold``."""
        base = self._db.relation(self._primary)
        total = base.total_count()
        if total == 0:
            return 0.0
        removed = sum(
            cnt
            for row, cnt in base.items()
            if self._sensitivities[row] > threshold
        )
        return removed / total
