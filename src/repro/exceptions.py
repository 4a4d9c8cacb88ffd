"""Exception hierarchy for the ``repro`` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch a single base class.  Sub-classes are grouped by the layer that raises
them (schema/engine, query analysis, sensitivity algorithms, privacy).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A relation or database was built with an inconsistent schema.

    Raised for duplicate attribute names, arity mismatches between a schema
    and a tuple, or attempts to combine relations whose shared attributes
    disagree on position conventions.
    """


class UnknownRelationError(ReproError):
    """A query or operation referenced a relation not present in the database."""

    def __init__(self, name: str):
        super().__init__(f"unknown relation: {name!r}")
        self.name = name


class UnknownAttributeError(ReproError):
    """An operation referenced an attribute not present in the schema."""

    def __init__(self, attribute: str, where: str = ""):
        suffix = f" in {where}" if where else ""
        super().__init__(f"unknown attribute: {attribute!r}{suffix}")
        self.attribute = attribute


class QueryStructureError(ReproError):
    """A query does not satisfy the structural requirements of an algorithm.

    Examples: running the path-join algorithm on a non-path query, running
    plain TSens on a cyclic query without a hypertree decomposition, or a
    query with self-joins (unsupported by the paper's algorithms).
    """


class NotAcyclicError(QueryStructureError):
    """GYO decomposition did not empty the hypergraph: the query is cyclic."""


class SelfJoinError(QueryStructureError):
    """The query repeats a base relation; the paper's algorithms exclude this."""


class DecompositionError(QueryStructureError):
    """A supplied (generalized) hypertree decomposition is invalid."""


class ParseError(ReproError):
    """A datalog-style query string could not be parsed."""


class PrivacyBudgetError(ReproError):
    """A mechanism was asked to spend more privacy budget than it holds."""


class MultiplicityOverflowError(ReproError):
    """A columnar-backend operation would overflow int64 multiplicities.

    The python backend (arbitrary-precision ints) handles such inputs."""


class MechanismConfigError(ReproError, ValueError):
    """A DP mechanism received inconsistent configuration parameters.

    Also a :class:`ValueError`: an ``epsilon <= 0`` or ``scale <= 0`` is a
    plain bad argument, and callers outside the library naturally reach
    for ``except ValueError``.
    """


class SessionError(ReproError):
    """A prepared-query session was driven with an invalid request.

    Examples: an update-stream element whose op is neither ``"insert"``
    nor ``"delete"``."""


class ServeError(ReproError):
    """The serving layer (:mod:`repro.serve`) was driven invalidly.

    Examples: reading through a lease that was already released, submitting
    work to a closed epoch manager or admission queue, or a server-side
    failure reported back to a client whose error type is not one of the
    library's own exception classes.
    """


class ProtocolError(ServeError):
    """A wire message violated the serving protocol.

    Raised for non-JSON lines, missing ``op``/``id`` fields, unknown
    operations and oversized frames — on either side of the connection.
    """


class TenantError(ServeError):
    """A multi-tenant request referenced an invalid or unknown tenant."""


class OverloadedError(ServeError):
    """The serving layer shed a request instead of queueing it.

    Raised when the epoch manager's writer queue already holds its
    ``max_queue`` pending update batches.  Nothing was committed; the
    caller may retry once the writer catches up.
    """


class InternalError(ReproError):
    """An internal invariant of the library was violated.

    Replaces bare ``assert`` statements in library code paths: unlike an
    assert, the check survives ``python -O`` and the message reaches the
    caller.  Seeing this exception always indicates a bug in ``repro``
    itself, not in its inputs.
    """
