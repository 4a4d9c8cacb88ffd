"""Bag-semantics relational engine: the substrate the paper's algorithms run on.

Two interchangeable execution backends implement the same logical relation
interface (see :mod:`repro.engine.backend`): the dict-based ``"python"``
:class:`Relation` and the numpy-based ``"columnar"``
:class:`ColumnarRelation`.  The operators dispatch on the operand type, so
all higher layers are backend-agnostic.
"""

from repro.engine.backend import (
    BACKEND_NAMES,
    BACKENDS,
    Backend,
    DEFAULT_BACKEND,
    backend_of,
    get_backend,
    register_backend,
    to_backend,
)
from repro.engine.columnar import ColumnarRelation, reset_vocabulary
from repro.engine.database import Database, ForeignKey
from repro.engine.operators import (
    cross_product,
    difference,
    group_by,
    join,
    join_all,
    project,
    select,
    semijoin,
    symmetric_difference_size,
    union_all,
)
from repro.engine.relation import Relation, empty_like
from repro.engine.schema import Schema

__all__ = [
    "BACKENDS",
    "BACKEND_NAMES",
    "Backend",
    "ColumnarRelation",
    "DEFAULT_BACKEND",
    "Database",
    "ForeignKey",
    "Relation",
    "Schema",
    "backend_of",
    "cross_product",
    "difference",
    "empty_like",
    "get_backend",
    "group_by",
    "join",
    "join_all",
    "project",
    "register_backend",
    "reset_vocabulary",
    "select",
    "semijoin",
    "symmetric_difference_size",
    "to_backend",
    "union_all",
]
