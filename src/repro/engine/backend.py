"""Execution-backend registry: the two physical representations.

The algorithmic layers (Yannakakis evaluation, TSens, the DP mechanisms)
are written against the *logical* relation interface — schema, counts,
bag operators.  This module names the physical implementations of that
interface and converts between them:

* ``"python"`` — :class:`~repro.engine.relation.Relation`, a dict from
  value tuple to multiplicity.  Arbitrary-precision counts, friendliest
  for debugging, the correctness reference.
* ``"columnar"`` — :class:`~repro.engine.columnar.ColumnarRelation`,
  dictionary-encoded numpy code columns plus an ``int64`` multiplicity
  column, with vectorized join/group-by/semijoin kernels.

Everything that materialises data (:mod:`repro.engine.io`, the dataset
generators, the CLI, the benchmarks) accepts a ``backend=`` knob and
resolves it here; everything that transforms data dispatches on the
relation type in :mod:`repro.engine.operators`, so the two families never
need to know about each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.engine.columnar import ColumnarRelation
from repro.engine.relation import Relation
from repro.exceptions import MechanismConfigError

#: Relation-like: either backend's relation class.
AnyRelation = object


@dataclass(frozen=True)
class Backend:
    """One physical execution backend.

    Attributes
    ----------
    name:
        Registry key (``"python"`` or ``"columnar"``).
    relation_cls:
        The relation class; its constructor takes ``(schema, rows)`` like
        :class:`~repro.engine.relation.Relation`.
    description:
        One-line summary for ``--help`` texts and reports.
    """

    name: str
    relation_cls: type
    description: str

    def relation(self, schema, rows=None):
        """Construct a relation of this backend."""
        return self.relation_cls(schema, rows)

    def convert(self, relation):
        """Re-materialise ``relation`` under this backend (identity when it
        already is one)."""
        if isinstance(relation, self.relation_cls):
            return relation
        return self.relation_cls(relation.schema, relation.counts)


PYTHON_BACKEND = Backend(
    name="python",
    relation_cls=Relation,
    description="dict-of-counts rows; arbitrary-precision, per-tuple ops",
)
COLUMNAR_BACKEND = Backend(
    name="columnar",
    relation_cls=ColumnarRelation,
    description="dictionary-encoded numpy columns; vectorized ops",
)

BACKENDS: Dict[str, Backend] = {
    PYTHON_BACKEND.name: PYTHON_BACKEND,
    COLUMNAR_BACKEND.name: COLUMNAR_BACKEND,
}

#: Valid ``backend=`` values (for argparse choices).
BACKEND_NAMES: Tuple[str, ...] = tuple(BACKENDS)

DEFAULT_BACKEND = PYTHON_BACKEND.name


def get_backend(name: str) -> Backend:
    """Resolve a backend by name; raises on unknown names."""
    try:
        return BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise MechanismConfigError(
            f"unknown backend {name!r} (known: {known})"
        ) from None


def backend_of(relation) -> str:
    """Name of the backend a relation belongs to."""
    for backend in BACKENDS.values():
        if isinstance(relation, backend.relation_cls):
            return backend.name
    raise MechanismConfigError(f"object {type(relation).__name__} is no known backend relation")


def to_backend(relation, backend) -> AnyRelation:
    """Convert ``relation`` to ``backend`` (a name or a :class:`Backend`)."""
    if isinstance(backend, str):
        backend = get_backend(backend)
    return backend.convert(relation)
