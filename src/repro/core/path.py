"""LSPathJoin — Algorithm 1, local sensitivity of path join queries.

For a path query ``R1(A0,A1), R2(A1,A2), ..., Rm(Am-1,Am)`` the sensitivity
of a tuple ``(a, b)`` in ``Ri`` factors into (number of incoming join paths
ending at ``a``) × (number of outgoing join paths starting at ``b``) —
Example 4.1.  Algorithm 1 computes, in two linear sweeps:

* topjoins ``J(Ri) = γ_{Ai-1}(r̃join(R1..Ri-1))`` iteratively left-to-right,
* botjoins ``K(Ri) = γ_{Ai-1}(r̃join(Ri..Rm))`` iteratively right-to-left,

then reads off, per relation, the max-count entries of ``J(Ri)`` and
``K(Ri+1)`` whose product is the most sensitive tuple's sensitivity.  Total
time is ``O(n log n)`` irrespective of the join output size (Theorem 4.1).

On a path query every join tree is the path itself, so Algorithm 2's
passes over that tree *are* the two sweeps: the botjoin and topjoin of
each node group the partial joins on either side of it, and the factored
multiplicity table of ``Ri`` (Eqn. 6) is exactly ``J(Ri) × K(Ri+1)``.
This module therefore runs no sweep of its own.  It reads the tables off a
:class:`~repro.evaluation.joinstate.JoinState` — the session's maintained
one, or a fresh one over the GYO join tree — and keeps only Algorithm 1's
step III: the per-relation witness scan in path order, which shares the
state's witness cache with TSens reads.

The implementation generalises the paper's two-attribute form slightly:

* adjacent relations may share several attributes (the paper's "replace
  multiple attributes by a combination" remark, handled natively);
* end relations may be unary (TPC-H ``Region(RK)``) or have exclusive
  attributes anywhere, which take extrapolated values in the witness.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.engine.database import Database
from repro.evaluation.joinstate import JoinState
from repro.query.classify import path_order
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.gyo import gyo_join_tree
from repro.core.acyclic import sensitivity_from_tables
from repro.core.result import SensitivityResult
from repro.exceptions import QueryStructureError


class PathState:
    """Algorithm 1's view of a :class:`JoinState`: the path order plus the
    state whose botjoins and topjoins are the two sweeps.

    ``state`` is the session's maintained component state, which
    committed updates already fold in place; without one a fresh state is
    built over ``gyo_join_tree(query)`` against ``db``.
    """

    __slots__ = ("order", "join_state")

    def __init__(
        self,
        query: ConjunctiveQuery,
        db: Database,
        state: Optional[JoinState] = None,
    ):
        order = path_order(query)
        if order is None:
            raise QueryStructureError(
                f"query {query.name} is not a path join query"
            )
        self.order = order
        if state is None:
            state = JoinState(query, gyo_join_tree(query), db)
        self.join_state = state


def ls_path_join(
    query: ConjunctiveQuery,
    db: Database,
    state: Optional[PathState] = None,
    skip_relations: Iterable[str] = (),
) -> SensitivityResult:
    """Run Algorithm 1 on a path join query.

    ``state`` — a :class:`PathState` over the session's maintained join
    state — reuses its sweeps, tables and cached witnesses; without one
    they are built from scratch against ``db``.  Either way the result is
    computed against ``db``, which must be the database the state
    reflects.

    ``skip_relations`` are certified to have tuple sensitivity ≤ 1, as in
    :func:`~repro.core.acyclic.tsens_connected`: each gets bound 1 and no
    table is built for it.

    Raises :class:`~repro.exceptions.QueryStructureError` when the query is
    not a path query (use :func:`repro.core.api.local_sensitivity`, which
    dispatches automatically).
    """
    if state is None:
        state = PathState(query, db)
    # III) per-relation most sensitive tuple: argmax(J[i]) × argmax(K[i+1]),
    # the same witness TSens caches for the same table.  Overall ties go
    # to the earliest relation in path order, not in body order as TSens.
    join_state = state.join_state
    return sensitivity_from_tables(
        query, db, state.order, join_state.multiplicity_table, "path",
        skip_relations, join_state.witnesses,
    )
