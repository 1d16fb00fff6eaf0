"""The service wire protocol: newline-delimited JSON messages.

Every message is one JSON object on one ``\\n``-terminated line, UTF-8
encoded. Clients send *requests*; the server answers each request with
exactly one *response* carrying the request's ``id``, and may interleave
*pushes* (server-initiated records with no ``id``) before the response.

Requests::

    {"op":"ping","id":1}
    {"op":"stats","id":2}
    {"op":"open","id":3,"session":"s1","config":{...},
     "interval_instructions":100000,"snapshot":{...}}
    {"op":"observe","id":4,"session":"s1","pcs":[...],"counts":[...],
     "cpi":1.0}
    {"op":"predict","id":5,"session":"s1"}
    {"op":"snapshot","id":6,"session":"s1"}
    {"op":"close","id":7,"session":"s1"}
    {"op":"cluster","id":8,"action":"status","params":{}}

Responses::

    {"id":4,"ok":true,"result":{"intervals":2,"branches":1000}}
    {"id":4,"ok":false,"error":{"code":"session_not_found",
                                "message":"..."}}

Pushes (one per interval boundary classified during an ``observe``,
written *before* that observe's response)::

    {"push":"interval","session":"s1","report":{...}}

The ``report`` payload is exactly
:meth:`repro.core.online.TrackerReport.to_dict`. Error codes map 1:1
to the exception classes in :mod:`repro.errors`
(:data:`ERROR_CODE_EXCEPTIONS`), so a client can rethrow the server's
refusal as a typed exception distinct from any transport failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Type, Union

from repro.errors import (
    ClusterError,
    ConfigurationError,
    ProtocolError,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
    SessionExistsError,
    SessionNotFoundError,
    SnapshotError,
)

#: Protocol revision, reported by ``ping``; bumped on breaking changes.
PROTOCOL_VERSION = 1

#: Upper bound on one encoded line. Snapshots dominate (a full tracker
#: state is tens of KiB); observe batches of 100k pairs stay under 2 MiB.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Wire error code -> exception raised client-side. ``internal`` is the
#: catch-all for unexpected server-side failures.
ERROR_CODE_EXCEPTIONS: Dict[str, Type[ServiceError]] = {
    "protocol": ProtocolError,
    "session_not_found": SessionNotFoundError,
    "session_exists": SessionExistsError,
    "overloaded": ServiceOverloadedError,
    "shutting_down": ServiceUnavailableError,
    "snapshot": SnapshotError,
    "cluster": ClusterError,
    "internal": ServiceError,
}

_EXCEPTION_ERROR_CODES: Dict[Type[Exception], str] = {
    exception: code
    for code, exception in ERROR_CODE_EXCEPTIONS.items()
    if exception is not ServiceError
}
# A bad ``open`` config override is the request's fault, not the
# server's: it is refused like any other malformed request.
_EXCEPTION_ERROR_CODES[ConfigurationError] = "protocol"


def error_code_for(error: Exception) -> str:
    """The wire code a server reports for ``error``.

    Subclasses inherit their nearest ancestor's code (for example
    :class:`~repro.errors.SnapshotSchemaError` reports ``snapshot``),
    so new refinements of an existing refusal never leak ``internal``.
    """
    for klass in type(error).__mro__:
        code = _EXCEPTION_ERROR_CODES.get(klass)
        if code is not None:
            return code
    return "internal"


def exception_for(code: str, message: str) -> ServiceError:
    """Rebuild the typed exception a wire error code denotes."""
    return ERROR_CODE_EXCEPTIONS.get(code, ServiceError)(message)


# -- request messages ---------------------------------------------------------


@dataclass(frozen=True)
class PingRequest:
    """Liveness probe; answers with the protocol version."""

    id: int
    op = "ping"


@dataclass(frozen=True)
class StatsRequest:
    """Service-level statistics (sessions, totals)."""

    id: int
    op = "stats"


@dataclass(frozen=True)
class OpenRequest:
    """Create a session, optionally restoring a tracker snapshot.

    ``session`` may be omitted to let the server assign a name.
    ``config`` holds :class:`~repro.core.config.ClassifierConfig`
    field overrides; ``interval_instructions`` the interval length.
    When ``snapshot`` is given it must be a document produced by the
    ``snapshot`` op (configuration travels inside it, so ``config`` and
    ``interval_instructions`` must then be omitted).
    """

    id: int
    session: Optional[str] = None
    config: Optional[dict] = None
    interval_instructions: Optional[int] = None
    snapshot: Optional[dict] = None
    op = "open"


@dataclass(frozen=True)
class CloseRequest:
    """Tear down a session, discarding its tracker."""

    id: int
    session: str
    op = "close"


@dataclass(frozen=True)
class ObserveRequest:
    """Ingest a batch of committed branches into a session.

    ``pcs`` and ``counts`` are parallel arrays of branch PCs and
    instruction counts. ``cpi`` is attributed to any interval boundary
    the batch completes (the client-side measured CPI; defaults to 1.0
    for callers without a cycle counter).
    """

    id: int
    session: str
    pcs: List[int] = field(default_factory=list)
    counts: List[int] = field(default_factory=list)
    cpi: float = 1.0
    op = "observe"


@dataclass(frozen=True)
class PredictRequest:
    """Current phase plus next-phase / length-class predictions."""

    id: int
    session: str
    op = "predict"


@dataclass(frozen=True)
class SnapshotRequest:
    """Export the session's full tracker state as a snapshot document."""

    id: int
    session: str
    op = "snapshot"


@dataclass(frozen=True)
class ClusterRequest:
    """A cluster control-plane operation.

    Understood fully only by a cluster dispatcher (``status``,
    ``drain-worker``, ``migrate``, ``rebalance``, ``grow``); a plain
    :class:`~repro.service.server.PhaseService` answers only the
    ``diagnostics`` action (the dispatcher uses it to assemble the
    cluster-wide view) and refuses everything else with error code
    ``cluster``.
    """

    id: int
    action: str
    params: dict = field(default_factory=dict)
    op = "cluster"


Request = Union[
    PingRequest,
    StatsRequest,
    OpenRequest,
    CloseRequest,
    ObserveRequest,
    PredictRequest,
    SnapshotRequest,
    ClusterRequest,
]

_REQUEST_OPS = ("ping", "stats", "open", "close", "observe", "predict",
                "snapshot", "cluster")


# -- server-to-client messages ------------------------------------------------


@dataclass(frozen=True)
class Response:
    """One reply per request, matched to it by ``id``."""

    id: int
    ok: bool
    result: dict = field(default_factory=dict)
    error_code: Optional[str] = None
    error_message: Optional[str] = None

    def raise_for_error(self) -> "Response":
        """Rethrow a refusal as its typed exception; no-op when ok."""
        if not self.ok:
            raise exception_for(
                self.error_code or "internal", self.error_message or ""
            )
        return self


@dataclass(frozen=True)
class IntervalPush:
    """A server-initiated interval report for one classified boundary."""

    session: str
    report: dict


ServerMessage = Union[Response, IntervalPush]


# -- encoding -----------------------------------------------------------------


def encode(payload: dict) -> bytes:
    """One wire line: compact JSON + newline, UTF-8."""
    line = json.dumps(payload, separators=(",", ":"))
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"message of {len(data)} bytes exceeds the "
            f"{MAX_LINE_BYTES}-byte line limit"
        )
    return data


def ok_response(request_id: int, result: dict) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: int, code: str, message: str) -> dict:
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def interval_push(session: str, report: dict) -> dict:
    return {"push": "interval", "session": session, "report": report}


#: The counts a next-phase predictor scoreboard is built from.
PREDICTION_COUNTS = (
    "scored", "correct", "confident_scored", "confident_correct",
)


def prediction_scoreboard(
    scored: int, correct: int, confident_scored: int, confident_correct: int
) -> dict:
    """The ``predictions`` block of ``stats`` (``prediction`` in
    diagnostics): the :data:`PREDICTION_COUNTS` plus both accuracies,
    ``None`` until something was scored."""
    return {
        "scored": scored,
        "correct": correct,
        "accuracy": correct / scored if scored else None,
        "confident_scored": confident_scored,
        "confident_correct": confident_correct,
        "confident_accuracy": (
            confident_correct / confident_scored
            if confident_scored else None
        ),
    }


def request_payload(request: Request) -> dict:
    """The wire form of a request object (omitting default fields)."""
    payload: dict = {"op": request.op, "id": request.id}
    if isinstance(request, OpenRequest):
        if request.session is not None:
            payload["session"] = request.session
        if request.config is not None:
            payload["config"] = request.config
        if request.interval_instructions is not None:
            payload["interval_instructions"] = request.interval_instructions
        if request.snapshot is not None:
            payload["snapshot"] = request.snapshot
    elif isinstance(request, ObserveRequest):
        payload["session"] = request.session
        payload["pcs"] = request.pcs
        payload["counts"] = request.counts
        payload["cpi"] = request.cpi
    elif isinstance(
        request, (CloseRequest, PredictRequest, SnapshotRequest)
    ):
        payload["session"] = request.session
    elif isinstance(request, ClusterRequest):
        payload["action"] = request.action
        if request.params:
            payload["params"] = request.params
    return payload


# -- decoding -----------------------------------------------------------------


def _decode_object(line: Union[str, bytes]) -> dict:
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"line is not UTF-8: {error}") from None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"line is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("message must be a JSON object")
    return payload


def _require_id(payload: dict) -> int:
    request_id = payload.get("id")
    if not isinstance(request_id, int) or isinstance(request_id, bool):
        raise ProtocolError("request 'id' must be an integer")
    return request_id


def _require_session(payload: dict) -> str:
    session = payload.get("session")
    if not isinstance(session, str) or not session:
        raise ProtocolError("request 'session' must be a non-empty string")
    return session


#: Largest pc or instruction count: the tracker holds both in int64.
_MAX_INT64 = 2**63 - 1

_INT_TYPES = frozenset((int,))


def _int_list(payload: dict, name: str) -> List[int]:
    """``payload[name]`` checked as a list of ints in ``[0, 2**63 - 1]``.

    ``type`` rather than ``isinstance`` keeps bools out, and the range
    check is two C-level scans (``min``/``max``): observes carry
    thousands of values, so no per-value Python code runs here.
    """
    values = payload.get(name)
    if not isinstance(values, list) or not set(map(type, values)) <= (
        _INT_TYPES
    ):
        raise ProtocolError(f"observe '{name}' must be a list of integers")
    if values and (min(values) < 0 or max(values) > _MAX_INT64):
        raise ProtocolError(
            f"observe '{name}' values must lie in [0, {_MAX_INT64}]"
        )
    return values


def observe_request(
    request_id: int, session: str, payload: dict
) -> ObserveRequest:
    """Validate an observe's ``pcs``, ``counts`` and ``cpi`` fields.

    The one observe validator: NDJSON ``observe`` lines and the HTTP
    observe-batch body both go through it, so every value a round
    ingests fits the tracker's int64 arrays and every CPI is a finite
    positive number.
    """
    pcs = _int_list(payload, "pcs")
    counts = _int_list(payload, "counts")
    if len(pcs) != len(counts):
        raise ProtocolError(
            f"observe 'pcs' and 'counts' must be parallel arrays: "
            f"{len(pcs)} vs {len(counts)}"
        )
    cpi = payload.get("cpi", 1.0)
    if type(cpi) not in (int, float):
        raise ProtocolError("observe 'cpi' must be a positive number")
    try:
        cpi = float(cpi)
    except OverflowError:
        cpi = math.inf
    if not 0.0 < cpi < math.inf:  # NaN fails both comparisons
        raise ProtocolError(
            "observe 'cpi' must be a finite positive number"
        )
    return ObserveRequest(
        id=request_id, session=session, pcs=pcs, counts=counts, cpi=cpi
    )


def parse_request(line: Union[str, bytes]) -> Request:
    """Decode and validate one request line.

    Raises :class:`~repro.errors.ProtocolError` on any malformed input;
    the server maps that to an ``error`` response with code
    ``protocol``.
    """
    payload = _decode_object(line)
    op = payload.get("op")
    if op not in _REQUEST_OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {_REQUEST_OPS}"
        )
    request_id = _require_id(payload)

    if op == "ping":
        return PingRequest(id=request_id)
    if op == "stats":
        return StatsRequest(id=request_id)
    if op == "open":
        session = payload.get("session")
        if session is not None and (
            not isinstance(session, str) or not session
        ):
            raise ProtocolError(
                "open 'session' must be a non-empty string when given"
            )
        config = payload.get("config")
        if config is not None and not isinstance(config, dict):
            raise ProtocolError("open 'config' must be an object")
        interval = payload.get("interval_instructions")
        if interval is not None and (
            not isinstance(interval, int) or isinstance(interval, bool)
            or interval <= 0
        ):
            raise ProtocolError(
                "open 'interval_instructions' must be a positive integer"
            )
        snapshot = payload.get("snapshot")
        if snapshot is not None:
            if not isinstance(snapshot, dict):
                raise ProtocolError("open 'snapshot' must be an object")
            if config is not None or interval is not None:
                raise ProtocolError(
                    "open with 'snapshot' must not also carry 'config' "
                    "or 'interval_instructions' (they travel inside the "
                    "snapshot)"
                )
        return OpenRequest(
            id=request_id,
            session=session,
            config=config,
            interval_instructions=interval,
            snapshot=snapshot,
        )
    if op == "observe":
        return observe_request(request_id, _require_session(payload), payload)
    if op == "cluster":
        action = payload.get("action")
        if not isinstance(action, str) or not action:
            raise ProtocolError(
                "cluster 'action' must be a non-empty string"
            )
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise ProtocolError("cluster 'params' must be an object")
        return ClusterRequest(id=request_id, action=action, params=params)
    session = _require_session(payload)
    if op == "close":
        return CloseRequest(id=request_id, session=session)
    if op == "predict":
        return PredictRequest(id=request_id, session=session)
    return SnapshotRequest(id=request_id, session=session)


def parse_server_message(line: Union[str, bytes]) -> ServerMessage:
    """Decode one server line into a :class:`Response` or a push."""
    payload = _decode_object(line)
    if "push" in payload:
        if payload["push"] != "interval":
            raise ProtocolError(f"unknown push type {payload['push']!r}")
        report = payload.get("report")
        session = payload.get("session")
        if not isinstance(report, dict) or not isinstance(session, str):
            raise ProtocolError("interval push lacks 'session'/'report'")
        return IntervalPush(session=session, report=report)
    request_id = _require_id(payload)
    ok = payload.get("ok")
    if not isinstance(ok, bool):
        raise ProtocolError("response 'ok' must be a boolean")
    if ok:
        result = payload.get("result", {})
        if not isinstance(result, dict):
            raise ProtocolError("response 'result' must be an object")
        return Response(id=request_id, ok=True, result=result)
    error = payload.get("error")
    if not isinstance(error, dict) or "code" not in error:
        raise ProtocolError("error response lacks an 'error' object")
    return Response(
        id=request_id,
        ok=False,
        error_code=str(error["code"]),
        error_message=str(error.get("message", "")),
    )
