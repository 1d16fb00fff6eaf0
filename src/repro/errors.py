"""Exception hierarchy for the ``repro`` package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch one base class. Configuration
mistakes raise :class:`ConfigurationError` (a subclass of ``ValueError``
as well, to honour the principle of least surprise for library users who
expect bad arguments to raise ``ValueError``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid configuration value was supplied.

    Raised eagerly at construction time (not at use time) so that a
    misconfigured experiment fails before any simulation work is done.
    """


class TraceError(ReproError):
    """A workload trace is malformed or inconsistent.

    For example: an interval trace whose CPI array length disagrees with
    its branch-record structure, or a trace with zero intervals.
    """


class PredictionError(ReproError):
    """A predictor was driven incorrectly.

    For example: asking a predictor for statistics before any interval
    has been observed, or updating with a phase ID that was never
    predicted against.
    """


class SimulationError(ReproError):
    """The microarchitecture substrate was driven with invalid inputs."""


class EngineError(ReproError):
    """The parallel experiment engine was misused or a worker returned
    a result that fails the sequential-shape contract.

    Raised for invalid worker counts and whenever a parallel result is
    not structurally identical to what the sequential path produces
    (wrong type, interval-count mismatch, malformed phase IDs) — the
    admission check that keeps ``--jobs N`` bit-deterministic.
    """


class PoolError(ReproError):
    """The structure-of-arrays tracker pool was misused.

    Raised for out-of-range or unallocated slot handles, for
    allocation from a full pool with growth disabled, and for
    configurations the pool cannot host (an infinite signature table).
    """


class TelemetryError(ReproError):
    """The telemetry layer was misused.

    For example: registering two metrics with the same name but
    different kinds, an invalid metric name, or exporting with an
    unknown format.
    """


class ServiceError(ReproError):
    """Base class for the phase-classification service layer.

    Splits into two families a caller must treat differently:
    *application* errors the server reported (a subclass per protocol
    error code — the request reached the service and was refused) and
    :class:`ServiceTransportError` (the request may never have arrived).
    """


class ProtocolError(ServiceError):
    """A message violated the newline-delimited-JSON wire protocol.

    Raised server-side for malformed or unknown requests, and
    client-side when a response cannot be decoded.
    """


class SessionNotFoundError(ServiceError):
    """The named session does not exist (never opened, closed, evicted
    by the LRU cap, or expired by the idle TTL)."""


class SessionExistsError(ServiceError):
    """An ``open`` request named a session that is already live."""


class ServiceOverloadedError(ServiceError):
    """Admission control refused the request: the session table is at
    capacity (and LRU eviction is disabled) or an ingest limit was hit.

    Transient by design — the client may retry after backoff once load
    subsides.
    """


class ServiceUnavailableError(ServiceError):
    """The service is draining for shutdown and no longer admits new
    requests; queued work is still being classified."""


class SnapshotError(ServiceError):
    """A tracker snapshot document is malformed, of an unsupported
    version, or inconsistent with the classifier configuration."""


class SnapshotSchemaError(SnapshotError):
    """A snapshot document's ``schema_version`` does not match the one
    this build reads.

    Raised by the envelope validators (``loads`` / ``decode``)
    *before* any component state is touched, so a version skew surfaces
    as one clear error instead of failing deep inside predictor
    restore.
    """


#: What ``restore_state`` hooks raise on malformed state; the snapshot
#: restore paths turn each into a :class:`SnapshotError`.
STATE_ERRORS = (
    ArithmeticError, AttributeError, LookupError, TypeError, ValueError,
    ReproError,
)


class PersistenceError(ReproError):
    """The durable session tier was misused or its on-disk state is
    unusable.

    Routine damage — a torn journal tail after ``kill -9``, an
    unreadable checkpoint — is *not* reported this way: recovery treats
    it as a counted, non-fatal event. This exception is reserved for
    programming errors (bad sync mode, appending to a closed journal)
    and for data that cannot be safely interpreted at all.
    """


class ClusterError(ServiceError):
    """The cluster layer refused or could not complete a request.

    Raised by the dispatcher for unknown worker ids, migrations that
    cannot proceed (unknown session, last live worker), and requests
    whose worker connection was lost mid-exchange after the reconnect
    window expired. Carried on the wire as error code ``cluster``, so
    clients can distinguish a cluster-topology refusal from both
    single-service application errors and transport failures.
    """


class ServiceTransportError(ServiceError):
    """The client could not complete the exchange (connect failure,
    timeout, or a connection dropped mid-request).

    Unlike the application errors above, a transport failure leaves the
    request's fate unknown: it may or may not have been processed.
    """
