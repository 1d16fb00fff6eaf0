"""The HTTP operations gateway over a running :class:`PhaseService`.

Routes
------
``GET  /``                                  the built-in live dashboard
``GET  /healthz``                           liveness (always 200 while up)
``GET  /readyz``                            readiness (503 once draining)
``GET  /metrics``                           Prometheus text exposition
``GET  /v1/sessions``                       list live sessions
``POST /v1/sessions``                       open a session
``GET  /v1/sessions/{id}``                  phase + predictions
``DELETE /v1/sessions/{id}``                close a session
``POST /v1/sessions/{id}/observe-batch``    ingest branches
``GET  /v1/sessions/{id}/snapshot``         full tracker snapshot
``GET  /v1/diagnostics``                    operational state (dashboard)
``GET  /v1/events``                         live SSE event stream
``POST /v1/drain``                          begin a graceful drain

The session routes do **not** reimplement the service: each JSON body
is mapped onto the same :mod:`repro.service.protocol` request objects
the NDJSON listener parses, and executed through
``PhaseService._execute`` — so an observe-batch over HTTP produces
byte-for-byte the interval reports the TCP path would have pushed, and
every service-side guarantee (journaling before ack, admission
control, error taxonomy) holds identically. Wire error codes map onto
HTTP statuses (``session_not_found`` -> 404, ``overloaded`` -> 429,
``shutting_down`` -> 503, ...).

The gateway instruments itself on the shared telemetry hub: per-route
request counters and latency histograms, an in-flight gauge, an SSE
subscriber gauge, and a dropped-events counter — all visible on its
own ``/metrics``.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.obs.http import (
    HttpError,
    HttpRequest,
    HttpResponse,
    HttpServer,
    StreamingResponse,
    route_pattern_match,
)
from repro.service import protocol

#: Wire error code -> HTTP status.
ERROR_STATUS: Dict[str, int] = {
    "protocol": 400,
    "session_not_found": 404,
    "session_exists": 409,
    "overloaded": 429,
    "shutting_down": 503,
    "snapshot": 400,
    "cluster": 503,
    "internal": 500,
}

#: Seconds between SSE heartbeat comments when no events flow.
SSE_HEARTBEAT_SECONDS = 15.0
#: Poll cadence for draining a subscriber's buffer.
SSE_POLL_SECONDS = 0.25
#: Per-subscriber buffered-event bound (drop-oldest beyond this).
SSE_QUEUE_MAXLEN = 256


class HttpGateway:
    """Serve the operations surface for one :class:`PhaseService`."""

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self._http = HttpServer(self._dispatch, host=host, port=port)
        # (method, pattern, route-label, handler, mutating)
        self._routes: List[Tuple[str, str, str, object, bool]] = [
            ("GET", "/", "/", self._route_dashboard, False),
            ("GET", "/healthz", "/healthz", self._route_healthz, False),
            ("GET", "/readyz", "/readyz", self._route_readyz, False),
            ("GET", "/metrics", "/metrics", self._route_metrics, False),
            ("GET", "/v1/sessions", "/v1/sessions",
             self._route_list_sessions, False),
            ("POST", "/v1/sessions", "/v1/sessions",
             self._route_open_session, True),
            ("GET", "/v1/sessions/{id}", "/v1/sessions/{id}",
             self._route_get_session, False),
            ("DELETE", "/v1/sessions/{id}", "/v1/sessions/{id}",
             self._route_close_session, True),
            ("POST", "/v1/sessions/{id}/observe-batch",
             "/v1/sessions/{id}/observe-batch",
             self._route_observe_batch, True),
            ("GET", "/v1/sessions/{id}/snapshot",
             "/v1/sessions/{id}/snapshot", self._route_snapshot, False),
            ("GET", "/v1/diagnostics", "/v1/diagnostics",
             self._route_diagnostics, False),
            ("GET", "/v1/events", "/v1/events", self._route_events, False),
            ("POST", "/v1/drain", "/v1/drain", self._route_drain, True),
        ]
        telemetry = service.telemetry
        self._telemetry = telemetry
        if telemetry is not None:
            self._g_in_flight = telemetry.gauge(
                "repro_http_in_flight",
                "HTTP requests currently being handled",
            )
            self._g_subscribers = telemetry.gauge(
                "repro_http_sse_subscribers",
                "Open SSE event-stream subscriptions",
            )
            self._m_sse_events = telemetry.counter(
                "repro_http_sse_events_total",
                "Events delivered over SSE streams",
            )
            self._m_sse_dropped = telemetry.counter(
                "repro_http_sse_dropped_total",
                "Events dropped from saturated SSE subscriber queues",
            )
        self._sse_tasks = 0

    # -- lifecycle ------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._http.host

    @property
    def port(self) -> int:
        return self._http.port

    async def start(self) -> None:
        await self._http.start()

    async def shutdown(self) -> None:
        await self._http.shutdown()

    # -- dispatch -------------------------------------------------------------

    async def _dispatch(self, request: HttpRequest):
        matched_path = False
        for method, pattern, label, handler, mutating in self._routes:
            captured = route_pattern_match(pattern, request.path)
            if captured is None:
                continue
            matched_path = True
            if request.method != method and not (
                request.method == "HEAD" and method == "GET"
            ):
                continue
            if mutating and self.service.draining:
                # Mirror the NDJSON read loop: once a drain begins no
                # new work is accepted, with a typed refusal.
                return self._instrumented_error(
                    label, request.method, 503,
                    "service is draining; no new work is accepted",
                    code="shutting_down",
                )
            return await self._run_route(
                label, handler, request, captured
            )
        if matched_path:
            return self._instrumented_error(
                request.path, request.method, 405,
                f"method {request.method} not allowed for {request.path}",
            )
        return self._instrumented_error(
            "unmatched", request.method, 404,
            f"no route for {request.path}",
        )

    async def _run_route(self, label, handler, request, captured):
        import time

        telemetry = self._telemetry
        counter = histogram = None
        if telemetry is not None:
            counter = telemetry.counter(
                "repro_http_requests_total",
                "HTTP requests handled, by route and method",
                labels={"route": label, "method": request.method},
            )
            histogram = telemetry.histogram(
                "repro_http_request_seconds",
                "Wall time to handle one HTTP request",
                labels={"route": label},
            )
            self._g_in_flight.inc()
        started = time.perf_counter()
        try:
            return await handler(request, *captured)
        finally:
            if telemetry is not None:
                counter.inc()
                histogram.observe(time.perf_counter() - started)
                self._g_in_flight.dec()

    def _instrumented_error(
        self, label: str, method: str, status: int, message: str,
        code: Optional[str] = None,
    ) -> HttpResponse:
        if self._telemetry is not None:
            self._telemetry.counter(
                "repro_http_requests_total",
                "HTTP requests handled, by route and method",
                labels={"route": label, "method": method},
            ).inc()
        return HttpResponse.error(status, message, code=code)

    # -- protocol bridge ------------------------------------------------------

    def _execute(
        self, request: "protocol.Request"
    ) -> Tuple[dict, List[dict]]:
        """Run a protocol request through the service; returns
        ``(result, interval_reports)``. Error responses raise
        :class:`HttpError` with the mapped status."""
        return self._unwrap(self.service._execute(request))

    def _unwrap(
        self, payloads: List[dict]
    ) -> Tuple[dict, List[dict]]:
        response = payloads[-1]
        reports = [
            payload["report"] for payload in payloads[:-1]
            if payload.get("push") == "interval"
        ]
        if not response.get("ok", False):
            error = response.get("error", {})
            code = error.get("code", "internal")
            raise HttpError(
                ERROR_STATUS.get(code, 500),
                error.get("message", "request failed"),
            )
        return response["result"], reports

    # -- routes ---------------------------------------------------------------

    async def _route_dashboard(self, request: HttpRequest) -> HttpResponse:
        from repro.obs.dashboard import DASHBOARD_HTML

        return HttpResponse.html(DASHBOARD_HTML)

    async def _route_healthz(self, request: HttpRequest) -> HttpResponse:
        from repro import __version__
        import os

        return HttpResponse.json({
            "status": "ok",
            "draining": self.service.draining,
            "version": __version__,
            "pid": os.getpid(),
            "uptime_seconds": self.service.uptime_seconds,
            "sessions": len(self.service.registry.sessions()),
        })

    async def _route_readyz(self, request: HttpRequest) -> HttpResponse:
        if self.service.draining:
            return HttpResponse.json(
                {"ready": False, "reason": "draining"}, status=503
            )
        return HttpResponse.json({"ready": True})

    async def _route_metrics(self, request: HttpRequest) -> HttpResponse:
        telemetry = self.service.telemetry
        if telemetry is None:
            raise HttpError(404, "service has no telemetry hub")
        self.service.touch_uptime()
        return HttpResponse.text(
            telemetry.render_metrics("prometheus"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    async def _route_list_sessions(
        self, request: HttpRequest
    ) -> HttpResponse:
        sessions = [
            {
                "session": session.name,
                "intervals": session.tracker.intervals_observed,
                "branches": session.branches_ingested,
                "current_phase": session.tracker.current_phase,
                "idle_seconds": session.idle_seconds(
                    self.service.registry.clock()
                ),
            }
            for session in self.service.registry.sessions()
        ]
        return HttpResponse.json({"sessions": sessions})

    async def _route_open_session(
        self, request: HttpRequest
    ) -> HttpResponse:
        body = _require_object(request.json())
        session = body.get("session")
        if session is not None and not isinstance(session, str):
            raise HttpError(400, "'session' must be a string")
        config = body.get("config")
        if config is not None and not isinstance(config, dict):
            raise HttpError(400, "'config' must be an object")
        interval = body.get("interval_instructions")
        if interval is not None and not isinstance(interval, int):
            raise HttpError(400, "'interval_instructions' must be an int")
        snapshot = body.get("snapshot")
        if snapshot is not None and not isinstance(snapshot, dict):
            raise HttpError(400, "'snapshot' must be an object")
        result, _ = self._execute(protocol.OpenRequest(
            id=0, session=session, config=config,
            interval_instructions=interval, snapshot=snapshot,
        ))
        return HttpResponse.json(result, status=201)

    async def _route_get_session(
        self, request: HttpRequest, session: str
    ) -> HttpResponse:
        result, _ = self._execute(
            protocol.PredictRequest(id=0, session=session)
        )
        return HttpResponse.json(result)

    async def _route_close_session(
        self, request: HttpRequest, session: str
    ) -> HttpResponse:
        result, _ = self._execute(
            protocol.CloseRequest(id=0, session=session)
        )
        return HttpResponse.json(result)

    async def _route_observe_batch(
        self, request: HttpRequest, session: str
    ) -> HttpResponse:
        body = _require_object(request.json())
        try:
            observe = protocol.observe_request(0, session, body)
        except ProtocolError as error:
            raise HttpError(400, str(error)) from None
        # Observes join the service's coalescing rounds, so the
        # gateway's ingest shares the fused pool pass with the NDJSON
        # wire path.
        result, reports = self._unwrap(
            await self.service.execute_observe(observe)
        )
        payload = dict(result)
        payload["reports"] = reports
        return HttpResponse.json(payload)

    async def _route_snapshot(
        self, request: HttpRequest, session: str
    ) -> HttpResponse:
        result, _ = self._execute(
            protocol.SnapshotRequest(id=0, session=session)
        )
        return HttpResponse.json(result)

    async def _route_diagnostics(
        self, request: HttpRequest
    ) -> HttpResponse:
        return HttpResponse.json(self.service.diagnostics())

    async def _route_drain(self, request: HttpRequest) -> HttpResponse:
        body = _require_object(request.json())
        grace = body.get("grace", 0.5)
        if not isinstance(grace, (int, float)) or isinstance(grace, bool):
            raise HttpError(400, "'grace' must be a number")
        self.service.begin_drain(grace=float(grace))
        return HttpResponse.json({"draining": True, "grace": float(grace)})

    # -- SSE ------------------------------------------------------------------

    async def _route_events(self, request: HttpRequest):
        telemetry = self.service.telemetry
        if telemetry is None:
            raise HttpError(404, "service has no telemetry hub")
        types_param = request.query_first("types")
        types = (
            frozenset(t for t in types_param.split(",") if t)
            if types_param else None
        )
        return StreamingResponse(self._event_stream(telemetry, types))

    async def _event_stream(self, telemetry, types):
        subscription = telemetry.subscribe(maxlen=SSE_QUEUE_MAXLEN)
        if self._telemetry is not None:
            self._g_subscribers.inc()
        dropped_seen = 0
        idle = 0.0
        try:
            yield b": connected\nretry: 2000\n\n"
            while True:
                records = subscription.drain()
                dropped = subscription.dropped
                if dropped > dropped_seen:
                    if self._telemetry is not None:
                        self._m_sse_dropped.inc(dropped - dropped_seen)
                    dropped_seen = dropped
                if records:
                    idle = 0.0
                    chunks = []
                    for record in records:
                        name = record.get("event", "event")
                        if types is not None and name not in types:
                            continue
                        data = json.dumps(record, default=float)
                        chunks.append(
                            f"event: {name}\ndata: {data}\n\n"
                            .encode("utf-8")
                        )
                    if chunks:
                        if self._telemetry is not None:
                            self._m_sse_events.inc(len(chunks))
                        yield b"".join(chunks)
                        continue
                await asyncio.sleep(SSE_POLL_SECONDS)
                idle += SSE_POLL_SECONDS
                if idle >= SSE_HEARTBEAT_SECONDS:
                    idle = 0.0
                    yield b": heartbeat\n\n"
        finally:
            subscription.close()
            if self._telemetry is not None:
                self._g_subscribers.dec()


class ClusterGateway(HttpGateway):
    """The operations surface for a
    :class:`~repro.cluster.dispatcher.ClusterDispatcher`.

    Same shell as :class:`HttpGateway` — dashboard, probes,
    ``/metrics``, SSE events, drain — but the data plane differs:

    - ``/v1/diagnostics`` aggregates every worker's diagnostics into
      the single-service shape (so the dashboard renders unchanged)
      plus a ``cluster`` section with per-worker health and shard
      occupancy;
    - ``GET /v1/cluster`` returns the topology (worker states, shard
      map, session placement, migration counters) without touching the
      workers; ``POST /v1/cluster`` runs a control-plane action
      (``migrate``, ``drain-worker``, ``rebalance``, ``grow``);
    - the per-session CRUD routes are not served — sessions live on
      the workers and the NDJSON endpoint is the data plane;
    - ``/metrics`` refreshes the ``repro_cluster_*`` labeled gauges
      before rendering, so scrapes always see current per-worker
      health, session counts, and shard occupancy.
    """

    def __init__(
        self,
        dispatcher,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(dispatcher, host=host, port=port)
        self._routes = [
            ("GET", "/", "/", self._route_dashboard, False),
            ("GET", "/healthz", "/healthz", self._route_healthz, False),
            ("GET", "/readyz", "/readyz", self._route_readyz, False),
            ("GET", "/metrics", "/metrics", self._route_metrics, False),
            ("GET", "/v1/cluster", "/v1/cluster",
             self._route_cluster, False),
            ("POST", "/v1/cluster", "/v1/cluster",
             self._route_cluster_action, True),
            ("GET", "/v1/diagnostics", "/v1/diagnostics",
             self._route_diagnostics, False),
            ("GET", "/v1/events", "/v1/events", self._route_events, False),
            ("POST", "/v1/drain", "/v1/drain", self._route_drain, True),
        ]

    async def _route_healthz(self, request: HttpRequest) -> HttpResponse:
        from repro import __version__
        import os

        dispatcher = self.service
        workers = {
            worker_id: handle.state
            for worker_id, handle in sorted(
                dispatcher.supervisor.workers.items()
            )
        }
        return HttpResponse.json({
            "status": "ok",
            "draining": dispatcher.draining,
            "version": __version__,
            "pid": os.getpid(),
            "uptime_seconds": dispatcher.uptime_seconds,
            "sessions": len(dispatcher._sessions),
            "workers": workers,
        })

    async def _route_metrics(self, request: HttpRequest) -> HttpResponse:
        self.service.refresh_cluster_metrics()
        return await super()._route_metrics(request)

    async def _route_diagnostics(
        self, request: HttpRequest
    ) -> HttpResponse:
        return HttpResponse.json(
            await self.service.aggregate_diagnostics()
        )

    async def _route_cluster(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.json(self.service.cluster_status())

    async def _route_cluster_action(
        self, request: HttpRequest
    ) -> HttpResponse:
        from repro.errors import ReproError

        body = _require_object(request.json())
        action = body.get("action")
        if not isinstance(action, str) or not action:
            raise HttpError(400, "'action' must be a non-empty string")
        params = body.get("params", {})
        if not isinstance(params, dict):
            raise HttpError(400, "'params' must be an object")
        try:
            result = await self.service._execute_cluster(
                protocol.ClusterRequest(id=0, action=action, params=params)
            )
        except ReproError as error:
            code = protocol.error_code_for(error)
            raise HttpError(
                ERROR_STATUS.get(code, 500), str(error)
            ) from None
        return HttpResponse.json(result)


def _require_object(body: object) -> dict:
    if not isinstance(body, dict):
        raise HttpError(400, "request body must be a JSON object")
    return body
