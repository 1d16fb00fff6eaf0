"""The scalar oracle for the phase service's NDJSON wire streams.

:func:`replay` runs one connection's request plan (a list of request
dicts, in send order) through a scalar :class:`repro.api.PhaseTracker`
per session and builds, with :mod:`repro.service.protocol`, the wire
payloads a correct service answers each request with: an observe's
interval pushes first and its ack last, one response per request.
:func:`expected_stream` encodes them into the exact bytes the service
writes on that connection, so byte-identity tests compare a served
stream against a reference that shares no code with the serving path.

Supported ops: ``open`` (without a client snapshot), ``observe``,
``predict``, ``snapshot`` and ``close``. Sessions are independent, so
a multi-connection load replays connection by connection.
"""

from typing import Dict, List

from repro.api import ClassifierConfig, PhaseTracker
from repro.service import protocol
from repro.service.snapshot import snapshot_tracker
from repro.workloads.trace import DEFAULT_INTERVAL_INSTRUCTIONS


class _Session:
    __slots__ = ("tracker", "branches")

    def __init__(self, request: dict) -> None:
        assert "snapshot" not in request, "the oracle opens fresh trackers"
        config = request.get("config")
        self.tracker = PhaseTracker(
            ClassifierConfig(**config) if config
            else ClassifierConfig.paper_default(),
            interval_instructions=(
                request.get("interval_instructions")
                or DEFAULT_INTERVAL_INSTRUCTIONS
            ),
        )
        self.branches = 0


def _answer(request: dict, sessions: Dict[str, _Session]) -> List[dict]:
    op, name = request["op"], request["session"]
    if op == "open":
        session = sessions[name] = _Session(request)
        return [protocol.ok_response(request["id"], {
            "session": name,
            "restored": False,
            "interval_instructions": session.tracker.interval_instructions,
        })]
    session = sessions[name]
    tracker = session.tracker
    if op == "observe":
        reports = tracker.observe_batch(
            request["pcs"], request["counts"], cpi=request.get("cpi", 1.0)
        )
        session.branches += len(request["pcs"])
        payloads = [
            protocol.interval_push(name, report.to_dict())
            for report in reports
        ]
        payloads.append(protocol.ok_response(request["id"], {
            "intervals": len(reports),
            "branches": len(request["pcs"]),
        }))
        return payloads
    if op == "snapshot":
        return [protocol.ok_response(
            request["id"], {"snapshot": snapshot_tracker(tracker)}
        )]
    if op == "predict":
        pending = tracker.next_phase.pending_prediction
        return [protocol.ok_response(request["id"], {
            "session": name,
            "intervals": tracker.intervals_observed,
            "current_phase": tracker.current_phase,
            "predicted_next_phase": (
                pending.phase_id if pending is not None else None
            ),
            "prediction_confident": (
                pending.confident if pending is not None else False
            ),
            "prediction_source": (
                pending.source if pending is not None else None
            ),
            "predicted_length_class":
                tracker.length_predictor.outstanding_prediction,
        })]
    assert op == "close", f"the oracle does not model {op!r}"
    del sessions[name]
    return [protocol.ok_response(request["id"], {
        "session": name,
        "intervals": tracker.intervals_observed,
        "branches": session.branches,
    })]


def replay(plan: List[dict]) -> List[List[dict]]:
    """The expected wire payloads for each request of ``plan``."""
    sessions: Dict[str, _Session] = {}
    return [_answer(request, sessions) for request in plan]


def expected_stream(plan: List[dict]) -> bytes:
    """The exact bytes a correct service writes for ``plan``."""
    return b"".join(
        protocol.encode(payload)
        for payloads in replay(plan) for payload in payloads
    )


def expected_reports(plan: List[dict]) -> List[dict]:
    """Every interval report ``plan``'s observes produce, in order."""
    return [
        payload["report"]
        for payloads in replay(plan) for payload in payloads
        if payload.get("push") == "interval"
    ]
