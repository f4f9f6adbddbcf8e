"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch any failure originating in this package with a single ``except``
clause while still being able to distinguish precise failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A schema is malformed or used inconsistently.

    Raised, for instance, when a fact mentions a relation that is not part
    of the schema, or when a relation is declared twice with different
    arities.
    """


class ArityError(SchemaError):
    """A fact or atom has the wrong number of arguments for its relation."""


class FrozenDatabaseError(SchemaError):
    """A frozen (immutable snapshot) database was asked to mutate itself.

    Databases are frozen when they become engine snapshots (registration in
    a :class:`~repro.engine.SolverPool`, or an explicit
    :meth:`~repro.db.database.Database.freeze`); mutating a snapshot in
    place would silently corrupt every cache keyed by its content digest,
    so the attempt is rejected loudly instead.  Derive a new snapshot with
    :meth:`~repro.db.database.Database.apply_delta`.
    """


class DeltaError(SchemaError):
    """A delta (inserted/deleted fact sets) is malformed.

    For example a fact listed both as inserted and as deleted, or an
    inserted fact that does not fit the target database's schema.
    """


class ConstraintError(ReproError):
    """A key constraint is malformed.

    Examples include key positions outside the relation's arity, or a set of
    constraints declaring two different keys for the same relation (which
    would violate the *primary* key assumption the paper works under).
    """


class QueryError(ReproError):
    """A query is malformed or does not belong to the expected fragment."""


class QueryParseError(QueryError):
    """The textual representation of a query could not be parsed."""


class FragmentError(QueryError):
    """A query does not belong to the syntactic fragment an algorithm needs.

    For example, the certificate-based exact counter and the FPRAS of
    Theorem 6.2 require existential positive queries; feeding them a query
    with negation raises this error.
    """


class EvaluationError(ReproError):
    """Query evaluation failed (e.g. free variables left unbound)."""


class ReductionError(ReproError):
    """A many-one reduction received an input outside its domain."""


class ApproximationError(ReproError):
    """An approximation scheme was configured with invalid parameters.

    For example ``epsilon <= 0`` or ``delta`` outside ``(0, 1)``.
    """


class CompactorError(ReproError):
    """A compactor produced or was asked to parse a malformed compact string."""


class StoreError(ReproError):
    """The persistence subsystem (:mod:`repro.store`) was misused.

    Store *entries* can never raise — damaged or missing entries read as
    cache misses by design — so this only covers genuine misuse, such as
    appending a lineage record that does not extend its chain.
    """


class LineageError(ReproError):
    """A snapshot lineage could not resolve or replay a reference.

    Raised when an ``as_of`` reference names no recorded snapshot (unknown
    digest, ambiguous prefix, out-of-range chain index), when no recorded
    delta chain connects the materialised head to the requested snapshot,
    or when replaying a chain fails to reproduce the recorded content
    digest (a corrupt or incomplete history — the replay is *verified*, so
    a damaged catalog can lose history but never fabricate a snapshot).
    """


class EngineError(ReproError):
    """The batch engine was misused (unknown database, bad worker count)."""


class BatchSpecError(EngineError):
    """A batch job specification (job file or job payload) is malformed."""


class ServerError(EngineError):
    """The async serving layer was misconfigured or misused.

    Examples include a non-positive shard count or queue limit, an unknown
    backpressure policy, or submitting work to a server that was never
    started.
    """


class WireError(ServerError):
    """An HTTP wire-protocol exchange was malformed or truncated.

    Raised by the zero-dependency HTTP front (:mod:`repro.server.wire`)
    for unparseable request lines, oversized headers/bodies, truncated
    chunked streams and the like.  Server-side it maps to a ``400``
    response; client-side it means the transport broke mid-exchange —
    never that a job failed silently.
    """


class ServerOverloadedError(ServerError):
    """A job was rejected because the bounded queue is full.

    Only raised under the ``"reject"`` backpressure policy; the ``"wait"``
    policy blocks the submitter instead.  Rejection is loud by design — a
    job is either accepted (and will produce a result or an error) or the
    caller is told immediately, never silently dropped.
    """


class ShardLostError(ServerError):
    """A shard's worker process died, so the shard cannot answer.

    Every call pending on that shard when its worker was lost fails with
    this error, and so does every later call.  Over HTTP it maps, like
    every :class:`ServerError`, to ``503`` with a ``Retry-After`` hint:
    the shard may come back.  Other shards keep serving.
    """


class RebalanceError(ServerError):
    """An elastic-sharding operation could not be performed.

    Raised for conflicting ownership moves (the same name is already
    mid-handoff), unknown shard ids, or removing the last shard.  Over
    HTTP it maps to ``409 Conflict`` — not retryable by blind resend: the
    caller must change the request or wait for the conflicting operation
    to finish.
    """
