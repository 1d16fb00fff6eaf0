"""The asyncio phase-classification server.

One :class:`PhaseService` hosts a :class:`~repro.service.session.SessionRegistry`
behind the NDJSON protocol (:mod:`repro.service.protocol`). The
connection shell — bounded per-connection queues (backpressure), the
line rules, the connection cap and the graceful drain — is the shared
:class:`~repro.service.frontend.FrontEnd`; this module supplies how a
batch of requests is executed. Observes execute in the cross-connection
rounds of :class:`~repro.service.coalesce.IngestCoalescer`; every other
request executes on the connection's worker, and pushes for an observe
precede that observe's ack.

Admission control: the session cap refuses/evicts at ``open`` (see the
registry), a connection cap closes surplus sockets at accept, and during
shutdown new requests are refused with ``shutting_down``.

Graceful drain: :meth:`PhaseService.shutdown` (``drain=True``) stops
accepting connections and new request lines, but every request already
queued is still executed and its responses/pushes flushed before sockets
close — no interval is lost or double-classified across a drain, which
the test suite proves by snapshotting at shutdown and replaying.

Durability (``data_dir=...``): the service builds a
:class:`~repro.persistence.manager.PersistenceManager`, recovers the
registry from the last checkpoints plus journal replay before binding,
and from then on journals every successful open/observe/close *before*
acknowledging it, checkpoints dirty sessions on a timer (and at
shutdown), and lets the registry evict idle sessions to disk instead of
destroying them — they hydrate back on their next touch.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Awaitable, Dict, List, Optional, TYPE_CHECKING

from repro.errors import (
    ClusterError,
    ConfigurationError,
    ServiceUnavailableError,
)
from repro.service import protocol
from repro.service.coalesce import IngestCoalescer
from repro.service.frontend import Connection, FrontEnd, ServiceHandle
from repro.service.session import Session, SessionRegistry
from repro.service.snapshot import snapshot_tracker

if TYPE_CHECKING:  # pragma: no cover - import-time typing only
    from repro.telemetry import Telemetry


class PhaseService(FrontEnd):
    """A streaming phase-classification service.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port, exposed as
        :attr:`port` after :meth:`start`.
    max_sessions, idle_ttl, evict_lru:
        Session registry policy (see :class:`SessionRegistry`).
        ``max_sessions`` also sizes the registry's tracker pool, which
        hosts every default-config session; sessions opened with
        configuration overrides get scalar trackers.
    max_connections:
        Concurrent-connection cap; surplus accepts are closed
        immediately.
    queue_size:
        Per-connection ingest queue bound — the backpressure depth, in
        requests.
    sweep_interval:
        Seconds between idle-session sweeps (only meaningful with an
        ``idle_ttl``).
    drain_timeout:
        Upper bound, per connection, on waiting for queued work to
        finish during a graceful shutdown — a stalled client cannot
        wedge the drain.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` hub; the service
        records request/error counters, ingest- and request-latency
        histograms, connection/session gauges, and lifecycle events.
    data_dir:
        Enable the durable session tier rooted here (journal +
        checkpoints). Construction recovers whatever the directory
        holds — including after ``kill -9``.
    checkpoint_interval:
        Seconds between periodic checkpoint-dirty-sessions sweeps
        (each followed by journal compaction).
    sync:
        Journal durability mode (``none`` / ``batch`` / ``always``);
        see :mod:`repro.persistence.journal`. Only meaningful with a
        ``data_dir``.
    uds_path:
        When given, listen on this Unix domain socket instead of the
        TCP ``host``/``port`` pair. This is the cluster worker mode:
        the dispatcher proxies client frames over per-worker Unix
        sockets, which skip the TCP stack and are unreachable from off
        the box. A stale socket file from a previous incarnation is
        unlinked before binding.
    http_host, http_port:
        When ``http_port`` is given (0 picks a free port), run the
        :class:`~repro.obs.HttpGateway` alongside the NDJSON listener:
        health/readiness probes, a Prometheus ``/metrics`` scrape
        target, a JSON session API, live SSE events, and the built-in
        dashboard at ``/``. ``http_host`` defaults to ``host``. A
        service with a gateway but no ``telemetry`` gets an in-memory
        hub automatically so the scrape surface is never empty.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_sessions: int = 64,
        idle_ttl: Optional[float] = None,
        evict_lru: bool = True,
        max_connections: int = 64,
        queue_size: int = 32,
        sweep_interval: float = 5.0,
        drain_timeout: float = 30.0,
        telemetry: "Optional[Telemetry]" = None,
        data_dir: Optional[str] = None,
        checkpoint_interval: float = 30.0,
        sync: str = "batch",
        uds_path: Optional[str] = None,
        http_host: Optional[str] = None,
        http_port: Optional[int] = None,
    ) -> None:
        if checkpoint_interval <= 0:
            raise ConfigurationError(
                f"checkpoint_interval must be positive, "
                f"got {checkpoint_interval}"
            )
        super().__init__(
            host, port,
            max_connections=max_connections,
            queue_size=queue_size,
            drain_timeout=drain_timeout,
            telemetry=telemetry,
            http_host=http_host,
            http_port=http_port,
        )
        telemetry = self._telemetry
        self.uds_path = uds_path
        self.sweep_interval = sweep_interval
        self._coalescer = IngestCoalescer(self._coalesce_round)
        self.registry = SessionRegistry(
            max_sessions=max_sessions,
            idle_ttl=idle_ttl,
            evict_lru=evict_lru,
            telemetry=telemetry,
        )
        self.checkpoint_interval = checkpoint_interval
        self._persistence = None
        self.sessions_recovered = 0
        if data_dir is not None:
            # Imported lazily: the persistence package depends on the
            # service package, not the other way around.
            from repro.persistence import PersistenceManager

            self._persistence = PersistenceManager(
                data_dir, sync=sync, telemetry=telemetry
            )
            self.sessions_recovered = self._persistence.install_into(
                self.registry
            )
        self.checkpoint_failures = 0
        self.predictions_scored = 0
        self.predictions_correct = 0
        self.confident_scored = 0
        self.confident_correct = 0
        if telemetry is not None:
            from repro import __version__ as _version

            telemetry.gauge(
                "repro_service_info",
                "Constant 1; process identity in the labels.",
                labels={
                    "version": _version,
                    "pid": os.getpid(),
                    "started": int(self.started_at),
                },
            ).set(1)
            self._m_pred_scored = telemetry.counter(
                "repro_service_predictions_total",
                "Next-phase predictions scored against the next interval",
            )
            self._m_pred_correct = telemetry.counter(
                "repro_service_predictions_correct_total",
                "Scored next-phase predictions that matched",
            )
            self._m_pred_confident = telemetry.counter(
                "repro_service_predictions_confident_total",
                "Scored predictions the predictor marked confident",
            )
            self._m_pred_confident_correct = telemetry.counter(
                "repro_service_predictions_confident_correct_total",
                "Confident scored predictions that matched",
            )
            self._m_branches = telemetry.counter(
                "repro_service_branches_total",
                "Branch records ingested via observe",
            )
            self._m_intervals = telemetry.counter(
                "repro_service_intervals_total",
                "Interval reports pushed to clients",
            )
            self._h_request = telemetry.histogram(
                "repro_service_request_seconds",
                "Wall time to execute one request",
            )
            self._h_ingest = telemetry.histogram(
                "repro_service_ingest_seconds",
                "Mean per-branch ingest latency, one sample per observe",
            )
            self._m_checkpoint_failures = telemetry.counter(
                "repro_service_checkpoint_failures_total",
                "Periodic checkpoint sweeps that raised",
            )
            self._m_coalesce_rounds = telemetry.counter(
                "repro_service_coalesce_rounds_total",
                "Coalesced ingest scheduling rounds executed",
            )
            self._m_coalesce_fallbacks = telemetry.counter(
                "repro_service_coalesce_fallbacks_total",
                "Observes in a round executed on the per-session "
                "path (non-pool sessions)",
            )
            self._h_round_size = telemetry.histogram(
                "repro_service_coalesce_round_size",
                "Observe requests fused per scheduling round",
                start=1.0, factor=2.0, count=16,
            )
            self._g_coalesced_sessions = telemetry.gauge(
                "repro_service_coalesced_sessions",
                "Distinct pool-backed sessions in the last "
                "coalesced round",
            )

    # -- lifecycle ------------------------------------------------------------

    async def _start_backend(self) -> None:
        self._coalescer.start()
        if self.idle_ttl_enabled:
            self._background.append(
                asyncio.ensure_future(self._sweep_idle())
            )
        if self._persistence is not None:
            self._background.append(
                asyncio.ensure_future(self._checkpoint_loop())
            )

    def _make_gateway(self):
        # Imported lazily: the NDJSON service must not pay for the
        # HTTP gateway unless it was asked for.
        from repro.obs import HttpGateway

        return HttpGateway(self, host=self.http_host, port=self.http_port)

    async def start(self) -> None:
        """Bind and start accepting connections."""
        await super().start()
        if self._telemetry is not None:
            self._telemetry.emit(
                "service_start", host=self.host, port=self.port,
                max_sessions=self.registry.max_sessions,
                recovered=self.sessions_recovered,
                durable=self._persistence is not None,
                http_port=self.http_port,
            )

    @property
    def idle_ttl_enabled(self) -> bool:
        return self.registry.idle_ttl is not None

    @property
    def persistence(self):
        """The :class:`~repro.persistence.manager.PersistenceManager`
        backing this service, or ``None`` when RAM-only."""
        return self._persistence

    async def _stop_backend(self, drain: bool) -> None:
        # After the workers: every queued observe has been rounded and
        # acked (the drain guarantee); stopping earlier would strand
        # workers awaiting their round.
        await self._coalescer.stop()
        if self._persistence is not None:
            # Final checkpoint so a graceful stop leaves the data dir
            # ready to recover every session — the registry teardown
            # below destroys only the RAM copies.
            self._persistence.checkpoint_all(self.registry.sessions())
            self._persistence.compact()
            self._persistence.close()
        closed = self.registry.close_all()
        if self._telemetry is not None:
            self._telemetry.emit(
                "service_stop", drained=drain, sessions_closed=closed,
                requests=self.requests_served,
            )

    async def _sweep_idle(self) -> None:
        while True:
            await asyncio.sleep(self.sweep_interval)
            self.registry.expire_idle()

    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self.checkpoint_interval)
            try:
                self._persistence.checkpoint_all(self.registry.sessions())
                self._persistence.compact()
            except Exception as error:
                # One failed sweep (disk full, transient I/O) must not
                # kill the loop: with no checkpoints the journal grows
                # unboundedly and recovery time degrades silently.
                self.checkpoint_failures += 1
                if self._telemetry is not None:
                    self._telemetry.emit(
                        "checkpoint_sweep_failed",
                        error=f"{type(error).__name__}: {error}",
                    )
                    self._m_checkpoint_failures.inc()

    # -- answering a connection's batch ---------------------------------------

    async def _answer(
        self, connection: Connection, batch: List[tuple]
    ) -> List[bytes]:
        """Answer one cycle's queue items in request order.

        Observe requests are submitted to the ingest scheduler (joining
        the cross-connection round) and any other request acts as an
        ordering barrier: earlier observes' results are collected
        first, so responses always leave in request order and a close
        never overtakes its session's in-flight observe.
        """
        chunks: List[bytes] = []
        # (future, request, submit time) triples for observes whose
        # results have not been collected yet, in request order.
        pending: List[tuple] = []

        async def _collect_pending() -> None:
            for future, request, submitted in pending:
                try:
                    payloads = await future
                except Exception as error:
                    # A scheduler fault must answer the request, not
                    # strand the connection.
                    payloads = self._error_payloads(request.id, error)
                for payload in payloads:
                    chunks.append(protocol.encode(payload))
                self._count_request(submitted)
            pending.clear()

        for kind, request_id, body in batch:
            started = time.perf_counter()
            if kind == "request" and isinstance(
                body, protocol.ObserveRequest
            ):
                pending.append((self.execute_observe(body), body, started))
                continue
            await _collect_pending()  # the ordering barrier
            if kind == "bad":
                payloads = self._error_payloads(request_id, body)
            else:
                payloads = self._execute(body)
            for payload in payloads:
                chunks.append(protocol.encode(payload))
            self._count_request(started)
        await _collect_pending()
        return chunks

    def _count_request(self, started: float) -> None:
        self.requests_served += 1
        if self._telemetry is not None:
            self._m_requests.inc()
            self._h_request.observe(time.perf_counter() - started)

    # -- request execution -----------------------------------------------------

    def _execute(self, request: protocol.Request) -> List[dict]:
        """Run one non-observe request (observes go through
        :meth:`execute_observe`); returns its wire response as a
        one-payload list."""
        # Requests already queued when a drain begins are still
        # executed — the drain guarantee — so there is deliberately no
        # draining check here; refusal happens at the read loop.
        try:
            return [protocol.ok_response(
                request.id, self._handle_simple(request)
            )]
        except Exception as error:
            return self._error_payloads(request.id, error)

    def _error_payloads(
        self, request_id: int, error: Exception
    ) -> List[dict]:
        """:meth:`_error_payload` as a one-payload answer."""
        return [self._error_payload(request_id, error)]

    def _handle_simple(self, request: protocol.Request) -> dict:
        if isinstance(request, protocol.PingRequest):
            return {
                "protocol": protocol.PROTOCOL_VERSION,
                "draining": self._draining,
            }
        if isinstance(request, protocol.StatsRequest):
            stats = dict(self.registry.stats())
            stats.update(
                requests=self.requests_served,
                errors=self.errors_returned,
                connections=len(self._connections),
                uptime_seconds=self.touch_uptime(),
                predictions=self.prediction_accuracy(),
            )
            if self._persistence is not None:
                stats["persistence"] = self._persistence.stats()
                stats["checkpoint_failures"] = self.checkpoint_failures
            return stats
        if isinstance(request, protocol.OpenRequest):
            session = self.registry.open(
                name=request.session,
                config=request.config,
                interval_instructions=request.interval_instructions,
                snapshot=request.snapshot,
            )
            if self._persistence is not None:
                self._persistence.log_open(
                    session.name,
                    config=request.config,
                    interval_instructions=(
                        session.tracker.interval_instructions
                    ),
                    snapshot=request.snapshot,
                )
            return {
                "session": session.name,
                "restored": session.restored,
                "interval_instructions":
                    session.tracker.interval_instructions,
            }
        if isinstance(request, protocol.CloseRequest):
            session = self.registry.close(request.session)
            if self._persistence is not None:
                self._persistence.log_close(session.name)
            return {
                "session": session.name,
                "intervals": session.tracker.intervals_observed,
                "branches": session.branches_ingested,
            }
        if isinstance(request, protocol.PredictRequest):
            session = self.registry.get(request.session)
            return self._predict_result(session)
        if isinstance(request, protocol.ClusterRequest):
            # A worker answers the diagnostics action so a dispatcher
            # can aggregate the same shape the dashboard renders; every
            # other cluster action belongs to the dispatcher.
            if request.action == "diagnostics":
                return self.diagnostics()
            raise ClusterError(
                f"action {request.action!r} requires a cluster "
                f"dispatcher; this is a single phase service"
            )
        assert isinstance(request, protocol.SnapshotRequest)
        session = self.registry.get(request.session)
        return {"snapshot": snapshot_tracker(session.tracker)}

    @staticmethod
    def _predict_result(session: Session) -> dict:
        tracker = session.tracker
        pending = tracker.next_phase.pending_prediction
        return {
            "session": session.name,
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
        }

    def _handle_observe(
        self, session: Session, request: protocol.ObserveRequest
    ) -> List[dict]:
        """Observe on one session's own tracker: the round's path for
        sessions without a pool slot."""
        started = time.perf_counter()
        reports = session.tracker.observe_batch(
            request.pcs, request.counts, cpi=request.cpi
        )
        elapsed = time.perf_counter() - started
        if self._telemetry is not None and request.pcs:
            self._h_ingest.observe(elapsed / len(request.pcs))
        return self._finish_observe(session, request, reports)

    def _finish_observe(
        self,
        session: Session,
        request: protocol.ObserveRequest,
        reports,
    ) -> List[dict]:
        """The shared post-classification tail of an observe: session
        bookkeeping, journaling, prediction scoring, interval events,
        and the wire payloads (pushes first, ack last). Shared by a
        round's fused and per-session paths so the two produce
        byte-identical streams by construction."""
        session.branches_ingested += len(request.pcs)
        session.intervals_pushed += len(reports)
        if self._persistence is not None and request.pcs:
            # Journaled (and flushed per the sync mode) before the ack
            # below is written: an acknowledged batch is as durable as
            # the sync mode promises. In a round every submission
            # logs here before any future resolves, so the whole round
            # is journaled before the first ack leaves.
            self._persistence.log_observe(
                session.name, request.pcs, request.counts,
                cpi=request.cpi,
            )
        if self._telemetry is not None:
            self._m_branches.inc(len(request.pcs))
            self._m_intervals.inc(len(reports))
        payloads = []
        for report in reports:
            self._score_prediction(session, report)
            # Serialized once: the event and the push share the dict
            # (flat scalars; emit copies the fields it records).
            fields = report.to_dict()
            if self._telemetry is not None:
                # One event per boundary (not per branch); with neither
                # a JSONL sink nor an SSE subscriber this is a
                # one-check no-op inside the hub.
                self._telemetry.emit(
                    "interval", session=session.name, **fields
                )
            payloads.append(protocol.interval_push(session.name, fields))
        payloads.append(protocol.ok_response(request.id, {
            "intervals": len(reports),
            "branches": len(request.pcs),
        }))
        return payloads

    # -- coalesced ingest rounds ----------------------------------------------

    def execute_observe(
        self, request: protocol.ObserveRequest
    ) -> "Awaitable[List[dict]]":
        """Queue one observe for the next coalesced round; returns a
        future resolving to its wire payloads (pushes first, ack last).

        The one entry point for observes, shared by the NDJSON workers
        and the HTTP gateway's observe-batch endpoint. With no round
        scheduler running (before :meth:`start`, after :meth:`shutdown`)
        the future already holds a ``shutting_down`` refusal, so no
        caller waits on a round that will never run.
        """
        if self._coalescer.running:
            return self._coalescer.submit(request)
        future = asyncio.get_event_loop().create_future()
        future.set_result(self._error_payloads(
            request.id,
            ServiceUnavailableError(
                "service is not running; no observe is accepted"
            ),
        ))
        return future

    def _coalesce_round(self, submissions) -> None:
        """Execute one coalesced ingest round.

        Sessions on pool slots contribute their record slices to a
        single fused :meth:`TrackerPool.observe_fanin` pass; everything
        else (scalar trackers, lookup failures) takes the per-session
        path. Every submission's future is resolved with its wire
        payloads — pushes first, ack last — and journaling for the
        whole round happens before any future resolves.

        The round runs as consecutive chunks, each with at most
        ``registry.max_sessions`` distinct sessions. ``get`` moves each
        looked-up session to the registry's most-recent end, so a
        hydration inside a chunk can only evict a session outside it:
        no session a chunk has looked up loses its tracker before the
        chunk executes.

        Ordering: submissions arrive in per-connection request order,
        chunks run in that order, a session's submissions within a
        chunk are grouped and the group takes exactly one path (fused
        or per-session), and same-session slices are concatenated in
        submission order, so each session sees its records in exactly
        the order its connection sent them — the stream a scalar
        tracker fed request by request would see.
        """
        limit = self.registry.max_sessions
        fused = 0
        chunk: List[object] = []
        names: set = set()
        for submission in submissions:
            name = submission.request.session
            if name not in names and len(names) == limit:
                fused += self._run_chunk(chunk)
                chunk, names = [], set()
            names.add(name)
            chunk.append(submission)
        if chunk:
            fused += self._run_chunk(chunk)
        if self._telemetry is not None:
            self._m_coalesce_rounds.inc()
            self._h_round_size.observe(len(submissions))
            self._g_coalesced_sessions.set(fused)

    def _run_chunk(self, submissions) -> int:
        """Execute one chunk of a round (see :meth:`_coalesce_round`);
        returns how many sessions took the fused pass."""
        # Group submissions per session, keeping submission order both
        # across groups (insertion order) and within each group. The
        # lookup runs per submission — one LRU / hydration touch per
        # request.
        groups: Dict[str, tuple] = {}
        for submission in submissions:
            request = submission.request
            try:
                session = self.registry.get(request.session)
            except Exception as error:
                submission.resolve(
                    self._error_payloads(request.id, error)
                )
                continue
            group = groups.get(request.session)
            if group is None:
                groups[request.session] = (session, [submission])
            else:
                group[1].append(submission)

        segments = []
        flat: List[tuple] = []  # (submission, session) per segment
        records = 0
        fused = 0
        for session, subs in groups.values():
            slot = self.registry.pool_slot(session)
            if slot is None:
                # Foreign-config scalar trackers: the whole group on its
                # own tracker, in request order.
                for submission in subs:
                    request = submission.request
                    try:
                        payloads = self._handle_observe(session, request)
                    except Exception as error:
                        payloads = self._error_payloads(request.id, error)
                    submission.resolve(payloads)
                if self._telemetry is not None:
                    self._m_coalesce_fallbacks.inc(len(subs))
                continue
            fused += 1
            for submission in subs:
                request = submission.request
                segments.append((
                    slot, request.pcs, request.counts, request.cpi,
                ))
                flat.append((submission, session))
                records += len(request.pcs)
        if not segments:
            return fused

        started = time.perf_counter()
        try:
            fanned = self.registry.pool.observe_fanin(segments)
        except Exception as error:  # pragma: no cover - defensive
            for submission, _ in flat:
                submission.resolve(self._error_payloads(
                    submission.request.id, error
                ))
            return fused
        elapsed = time.perf_counter() - started
        if self._telemetry is not None and records:
            # Per-record ingest latency, attributed per fused pass: the
            # pass is one unit of work.
            self._h_ingest.observe(elapsed / records)
        for (submission, session), reports in zip(flat, fanned):
            try:
                payloads = self._finish_observe(
                    session, submission.request, reports
                )
            except Exception as error:  # pragma: no cover
                payloads = self._error_payloads(
                    submission.request.id, error
                )
            submission.resolve(payloads)
        return fused

    def _score_prediction(self, session: Session, report) -> None:
        """Score the session's outstanding next-phase prediction against
        the interval that just closed, then remember the new one."""
        predicted = session.predicted_next_phase
        if predicted is not None:
            correct = predicted == report.phase_id
            self.predictions_scored += 1
            self.predictions_correct += int(correct)
            if session.prediction_confident:
                self.confident_scored += 1
                self.confident_correct += int(correct)
            if self._telemetry is not None:
                self._m_pred_scored.inc()
                if correct:
                    self._m_pred_correct.inc()
                if session.prediction_confident:
                    self._m_pred_confident.inc()
                    if correct:
                        self._m_pred_confident_correct.inc()
        session.predicted_next_phase = report.predicted_next_phase
        session.prediction_confident = report.prediction_confident

    def prediction_accuracy(self) -> Dict[str, object]:
        """Service-level next-phase predictor scoreboard."""
        return protocol.prediction_scoreboard(
            self.predictions_scored, self.predictions_correct,
            self.confident_scored, self.confident_correct,
        )

    def diagnostics(self) -> Dict[str, object]:
        """The operational state the dashboard renders: per-phase
        occupancy across live sessions, predictor accuracy, pool slot
        utilization, ingest backpressure, and persistence stats."""
        occupancy: Dict[str, int] = {}
        for session in self.registry.sessions():
            phase = session.tracker.current_phase
            key = "none" if phase is None else str(phase)
            occupancy[key] = occupancy.get(key, 0) + 1
        pool = self.registry.pool
        diagnostics: Dict[str, object] = {
            "uptime_seconds": self.touch_uptime(),
            "draining": self._draining,
            "requests": self.requests_served,
            "errors": self.errors_returned,
            "connections": len(self._connections),
            "connections_refused": self.connections_refused,
            "ingest_queue_depth": self.ingest_queue_depth(),
            "phase_occupancy": occupancy,
            "prediction": self.prediction_accuracy(),
            "registry": dict(self.registry.stats()),
            "pool": {
                "capacity": pool.capacity,
                "active_slots": pool.active_slots,
                "utilization": pool.active_slots / pool.capacity,
            },
            "persistence": (
                self._persistence.stats()
                if self._persistence is not None else None
            ),
            "coalesce": self._coalescer.stats(),
        }
        if self._persistence is not None:
            diagnostics["checkpoint_failures"] = self.checkpoint_failures
        return diagnostics


def start_in_thread(**kwargs: object) -> ServiceHandle:
    """Build a :class:`PhaseService` and run it on a daemon thread;
    returns a started :class:`ServiceHandle` (``handle.port`` is live)."""
    service = PhaseService(**kwargs)  # type: ignore[arg-type]
    return ServiceHandle(service).start()
