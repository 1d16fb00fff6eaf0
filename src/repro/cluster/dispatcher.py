"""The cluster front end: one public NDJSON endpoint, N worker processes.

:class:`ClusterDispatcher` owns the TCP socket clients connect to and
proxies every session operation to the worker that owns the session.
Clients speak the exact same protocol as against a single
:class:`~repro.service.server.PhaseService` — the cluster is invisible
except for the extra ``cluster`` control-plane op. Both run the same
connection shell, :class:`~repro.service.frontend.FrontEnd`; this
module supplies how a line is routed and how a batch is answered.

Proxy design, in order of importance:

- **Raw-line forwarding.** The dispatcher routes on a byte-regex over
  the line prefix (our wire form always emits ``op``, ``id``,
  ``session`` first) and forwards the client's bytes to the worker
  unmodified; worker push/response lines travel back equally untouched.
  The dispatcher never re-serializes a report, which is what makes the
  byte-for-byte identity guarantee cheap to keep — and keeps the single
  dispatcher process out of the JSON-parsing business on the hot path.
  Lines the regex cannot take (keys in another order, escaped session
  names) are parsed to find their route, then forwarded as sent.
- **Pipelined hop.** Each client cycle drains every request already
  queued. A run of consecutive routable requests goes out with one
  write per worker channel, and each channel's responses are read back
  in order; opens, dispatcher-local ops and bad lines are barriers
  between runs. The cycle's pushes and responses return to the client
  in request order in one write. A worker therefore sees a client's
  whole batch at once, so its coalesced rounds fill up just as they do
  behind a single-process service.
- **Per-(client, worker) channels.** Each client connection gets its
  own Unix-socket channel to each worker it talks to. The worker sees
  one connection per client, so per-connection request ordering and
  request-id uniqueness hold exactly as they would single-process, and
  the worker's bounded ingest queue backpressures that client alone.
  Responses need no id matching: a worker answers a connection in
  request order, so the k-th non-push line *is* the k-th response.
- **Routing table over hash.** ``shard_of(session)`` → rendezvous
  owner decides where a session *opens*; from then on the dispatcher's
  session table is authoritative. Migration flips the table entry, so
  the shard map can change shape (grow, drain) without stranding live
  sessions.
- **Supervised workers.** A health loop notices crashed workers and
  restarts them on the same socket and data dir; channels reconnect
  with a bounded retry window, so a mid-restart request waits instead
  of failing. After a lost connection only requests whose response was
  not read are retried: read-only ops are resent, and mutating ops fail
  with error code ``cluster`` (their fate on the worker is unknown).

Migration itself lives in :mod:`repro.cluster.migration`.
"""

from __future__ import annotations

import asyncio
import itertools
import re
import time
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro.errors import ClusterError, ConfigurationError, ReproError
from repro.service import protocol
from repro.service.frontend import Connection, FrontEnd, ServiceHandle
from repro.cluster.migration import SessionMigrator
from repro.cluster.routing import DEFAULT_SHARDS, ShardMap
from repro.cluster.supervisor import ClusterSupervisor, UP, WorkerHandle

#: Fast-path router: matches the canonical wire prefix our encoder (and
#: the bundled client) emits — ``op``, ``id``, ``session`` first, with a
#: session name that needs no JSON escaping. Anything else falls back to
#: a full parse; the fast path is an optimization, never a requirement.
_FAST_ROUTE = re.compile(
    rb'^\{"op":"(observe|predict|snapshot|close)",'
    rb'"id":(-?\d+),'
    rb'"session":"([A-Za-z0-9._:\-]{1,200})"[,}]'
)

#: Worker lines that are interval pushes (vs responses). The server
#: encodes with ``separators=(",", ":")`` and dict insertion order, so
#: the prefix is stable.
_PUSH_PREFIX = b'{"push"'

_NOT_FOUND_MARKER = b'"code":"session_not_found"'


#: What answers one forwarded line: ``(push_lines, response_line)``,
#: or the :class:`ClusterError` that stands in for a lost response.
_Reply = Union[Tuple[List[bytes], bytes], ClusterError]

#: Ops safe to send twice: they read session state without changing it.
_RESENDABLE = frozenset(("predict", "snapshot"))


class _WorkerChannel:
    """One Unix-socket connection from the dispatcher to a worker.

    One exchange at a time (guarded by a lock): write a batch of lines,
    read each one's pushes and response in order. Reconnects
    transparently inside a bounded retry window, which is what rides
    out a supervised worker restart. After a lost connection only lines
    whose response was not read are retried: ``resendable`` ones are
    sent again; the others fail with :class:`ClusterError` because the
    worker may already have executed them.
    """

    def __init__(
        self,
        worker_id: str,
        uds_path: str,
        retry_window: float = 20.0,
    ) -> None:
        self.worker_id = worker_id
        self.uds_path = uds_path
        self.retry_window = retry_window
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()
        self._ids = itertools.count(1)

    def next_id(self) -> int:
        return next(self._ids)

    def drop(self) -> None:
        """Forget the current connection (next use reconnects)."""
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is not None:
            try:
                writer.close()
            except Exception:
                pass

    async def close(self) -> None:
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is not None:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _ensure_connected(self, deadline: float) -> None:
        while self._writer is None:
            try:
                self._reader, self._writer = (
                    await asyncio.open_unix_connection(
                        self.uds_path, limit=protocol.MAX_LINE_BYTES
                    )
                )
                return
            except OSError as error:
                if time.monotonic() >= deadline:
                    raise ClusterError(
                        f"worker {self.worker_id} unreachable at "
                        f"{self.uds_path}: {error}"
                    ) from None
                await asyncio.sleep(0.1)

    async def exchange(
        self,
        lines: Sequence[bytes],
        resendable: Sequence[bool],
        deliver: Callable[[int, _Reply], None],
    ) -> None:
        """Send ``lines`` in one write, then read their replies in order.

        ``deliver(index, reply)`` runs exactly once per line, as soon
        as that line's reply is known: ``(push_lines, response_line)``,
        or the :class:`ClusterError` that answers it.
        """
        unread = list(range(len(lines)))
        async with self._lock:
            deadline = time.monotonic() + self.retry_window
            while unread:
                try:
                    await self._ensure_connected(deadline)
                except ClusterError as error:
                    for index in unread:
                        deliver(index, error)
                    return
                assert self._reader is not None and self._writer is not None
                read = 0
                try:
                    self._writer.write(b"".join([lines[i] for i in unread]))
                    await self._writer.drain()
                    for index in unread:
                        pushes: List[bytes] = []
                        line = await self._reader.readline()
                        while line.startswith(_PUSH_PREFIX):
                            pushes.append(line)
                            line = await self._reader.readline()
                        if not line:
                            raise ConnectionError("EOF from worker")
                        read += 1
                        deliver(index, (pushes, line))
                    return
                except (OSError, ConnectionError, ValueError) as error:
                    self.drop()
                    lost = ClusterError(
                        f"connection to worker {self.worker_id} lost "
                        f"mid-request ({error}); the request's fate on "
                        f"the worker is unknown"
                    )
                retry = time.monotonic() < deadline
                remaining = []
                for index in unread[read:]:
                    if retry and resendable[index]:
                        remaining.append(index)
                    else:
                        deliver(index, lost)
                unread = remaining
                if unread:
                    await asyncio.sleep(0.1)

    async def exchange_one(
        self, line: bytes, resendable: bool
    ) -> Tuple[List[bytes], bytes]:
        """The one-line :meth:`exchange`; raises a lost reply's error."""
        replies: List[_Reply] = []
        await self.exchange(
            [line], [resendable], lambda _, reply: replies.append(reply)
        )
        (reply,) = replies
        if isinstance(reply, ClusterError):
            raise reply
        return reply

    async def request(
        self, request: protocol.Request, resendable: bool = False
    ) -> dict:
        """Control-plane convenience: send a typed request, return the
        ``result`` dict, raising the typed exception on refusal."""
        raw = protocol.encode(protocol.request_payload(request))
        _, line = await self.exchange_one(raw, resendable)
        message = protocol.parse_server_message(line)
        assert isinstance(message, protocol.Response)
        message.raise_for_error()
        return message.result


class ClusterDispatcher(FrontEnd):
    """The public endpoint of a sharded multi-process phase service.

    Parameters mirror :class:`~repro.service.server.PhaseService` where
    they mean the same thing; worker-fleet knobs (``workers``,
    ``runtime_dir``, ``data_root``, per-worker capacity) are new.
    ``data_root=None`` runs a RAM-only cluster; with a data root each
    worker persists to ``<data_root>/<worker_id>`` and recovers it on
    restart.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 2,
        runtime_dir: str,
        data_root: Optional[str] = None,
        num_shards: int = DEFAULT_SHARDS,
        queue_size: int = 32,
        max_connections: int = 64,
        drain_timeout: float = 30.0,
        telemetry=None,
        http_host: Optional[str] = None,
        http_port: Optional[int] = None,
        worker_max_sessions: int = 1024,
        sync: str = "batch",
        checkpoint_interval: float = 30.0,
        idle_ttl: Optional[float] = None,
        max_restarts: int = 5,
        ready_timeout: float = 60.0,
        retry_window: float = 20.0,
        migration_timeout: float = 30.0,
    ) -> None:
        if workers <= 0:
            raise ConfigurationError(
                f"workers must be positive, got {workers}"
            )
        if workers > num_shards:
            raise ConfigurationError(
                f"workers ({workers}) cannot exceed num_shards "
                f"({num_shards}); extra workers would own no shards"
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
        self.initial_workers = workers
        self.retry_window = retry_window
        self.migration_timeout = migration_timeout
        self.supervisor = ClusterSupervisor(
            runtime_dir,
            data_root=data_root,
            sync=sync,
            checkpoint_interval=checkpoint_interval,
            max_sessions=worker_max_sessions,
            idle_ttl=idle_ttl,
            queue_size=queue_size,
            max_connections=max_connections + 8,
            max_restarts=max_restarts,
            ready_timeout=ready_timeout,
            telemetry=telemetry,
        )
        self.shard_map = ShardMap(num_shards=num_shards)
        self.migrator = SessionMigrator(self)
        # session -> owning worker id; authoritative once a session is
        # open (the shard map only decides where sessions *start*).
        self._sessions: Dict[str, str] = {}
        # session -> gate Event; present while that session migrates.
        self._gates: Dict[str, asyncio.Event] = {}
        # session -> requests currently executing on a worker.
        self._inflight: Dict[str, int] = {}
        self._control: Dict[str, _WorkerChannel] = {}
        # Each client connection's own channel to each worker it uses.
        self._channels: Dict[Connection, Dict[str, _WorkerChannel]] = {}
        self._restarting: set = set()
        self._names = itertools.count(1)
        self.migrations_completed = 0
        self.migrations_failed = 0
        self._init_metrics()

    def _init_metrics(self) -> None:
        telemetry = self._telemetry
        self._g_workers = self._g_migrations = None
        self._worker_gauges: Dict[str, dict] = {}
        if telemetry is None:
            return
        self._g_workers = telemetry.gauge(
            "repro_cluster_workers", "Live workers in the shard map"
        )
        self._m_migrations = telemetry.counter(
            "repro_cluster_migrations_total",
            "Completed live session migrations",
        )
        self._m_migrations_failed = telemetry.counter(
            "repro_cluster_migrations_failed_total",
            "Session migrations that failed and rolled back",
        )

    def _worker_metrics(self, worker_id: str) -> Optional[dict]:
        """Per-worker labeled gauge handles, created on first use."""
        if self._telemetry is None:
            return None
        gauges = self._worker_gauges.get(worker_id)
        if gauges is None:
            labels = {"worker": worker_id}
            telemetry = self._telemetry
            gauges = {
                "up": telemetry.gauge(
                    "repro_cluster_worker_up",
                    "1 when the worker process is up", labels=labels,
                ),
                "sessions": telemetry.gauge(
                    "repro_cluster_worker_sessions",
                    "Sessions routed to the worker", labels=labels,
                ),
                "shards": telemetry.gauge(
                    "repro_cluster_worker_shards",
                    "Shards the worker owns", labels=labels,
                ),
                "restarts": telemetry.gauge(
                    "repro_cluster_worker_restarts_total",
                    "Times the supervisor restarted the worker",
                    labels=labels,
                ),
            }
            self._worker_gauges[worker_id] = gauges
        return gauges

    def refresh_cluster_metrics(self) -> None:
        """Recompute the ``repro_cluster_*`` gauges (called on scrape
        and after topology changes)."""
        if self._telemetry is None:
            return
        self._g_workers.set(len(self.shard_map))
        occupancy = (
            self.shard_map.occupancy() if len(self.shard_map) else {}
        )
        sessions_per_worker: Dict[str, int] = {}
        for owner in self._sessions.values():
            sessions_per_worker[owner] = (
                sessions_per_worker.get(owner, 0) + 1
            )
        for worker_id, handle in self.supervisor.workers.items():
            gauges = self._worker_metrics(worker_id)
            gauges["up"].set(1.0 if handle.state == UP else 0.0)
            gauges["sessions"].set(sessions_per_worker.get(worker_id, 0))
            gauges["shards"].set(occupancy.get(worker_id, 0))
            gauges["restarts"].set(handle.restarts)

    # -- lifecycle -------------------------------------------------------------

    async def _start_backend(self) -> None:
        handles = await asyncio.gather(*(
            self.supervisor.start_worker()
            for _ in range(self.initial_workers)
        ))
        for handle in handles:
            self._admit_worker(handle)
        self._background.append(asyncio.ensure_future(self._health_loop()))

    def _make_gateway(self):
        from repro.obs import ClusterGateway

        return ClusterGateway(self, host=self.http_host, port=self.http_port)

    async def start(self) -> None:
        await super().start()
        self.refresh_cluster_metrics()
        self._emit(
            "cluster_start", host=self.host, port=self.port,
            workers=list(self.shard_map.workers),
            num_shards=self.shard_map.num_shards,
            http_port=self.http_port,
        )

    def _admit_worker(self, handle: WorkerHandle) -> None:
        self.shard_map.add_worker(handle.worker_id)
        self._control[handle.worker_id] = _WorkerChannel(
            handle.worker_id, handle.uds_path, self.retry_window
        )

    async def _stop_backend(self, drain: bool) -> None:
        """Stop the workers gracefully (each drains and checkpoints)."""
        await self.supervisor.stop_all(timeout=self.drain_timeout)
        for channel in self._control.values():
            await channel.close()
        self._control.clear()
        self._emit(
            "cluster_stop", drained=drain,
            requests=self.requests_served,
            migrations=self.migrations_completed,
        )

    async def _health_loop(self) -> None:
        """Detect crashed workers and restart them on the same socket
        and data dir; channels ride the restart via their retry window."""
        while True:
            await asyncio.sleep(0.25)
            for handle in self.supervisor.crashed_workers():
                worker_id = handle.worker_id
                if worker_id in self._restarting:
                    continue
                self._restarting.add(worker_id)
                asyncio.ensure_future(self._restart_worker(worker_id))

    async def _restart_worker(self, worker_id: str) -> None:
        try:
            await self.supervisor.restart_worker(worker_id)
        except ClusterError as error:
            # Restart budget exhausted (or the worker was stopped
            # mid-crash): stop routing *new* sessions to it. Existing
            # table entries fail loudly per-request.
            if worker_id in self.shard_map and len(self.shard_map) > 1:
                self.shard_map.remove_worker(worker_id)
            self._emit(
                "cluster_worker_abandoned", worker=worker_id,
                error=str(error),
            )
        finally:
            self._restarting.discard(worker_id)
            self.refresh_cluster_metrics()

    # -- routing ---------------------------------------------------------------

    def route(self, session: str) -> str:
        """The worker that owns ``session`` — table entry when live,
        rendezvous owner otherwise."""
        owner = self._sessions.get(session)
        if owner is None:
            owner = self.shard_map.owner_of(session)
        return owner

    def control_channel(self, worker_id: str) -> _WorkerChannel:
        channel = self._control.get(worker_id)
        if channel is None:
            raise ClusterError(f"no such worker: {worker_id!r}")
        return channel

    async def _gate_wait(self, session: str) -> None:
        """Block while ``session`` is being migrated."""
        while True:
            gate = self._gates.get(session)
            if gate is None:
                return
            await gate.wait()

    def _client_channel(
        self, connection: Connection, worker_id: str
    ) -> _WorkerChannel:
        channels = self._channels.setdefault(connection, {})
        channel = channels.get(worker_id)
        if channel is None:
            handle = self.supervisor.workers.get(worker_id)
            if handle is None:
                raise ClusterError(f"no such worker: {worker_id!r}")
            channel = _WorkerChannel(
                worker_id, handle.uds_path, self.retry_window
            )
            channels[worker_id] = channel
        return channel

    # -- answering a connection's batch ---------------------------------------

    async def _close_connection(self, connection: Connection) -> None:
        # Popped before the first await: shutdown() and the
        # connection's own exit may both close it.
        for channel in self._channels.pop(connection, {}).values():
            await channel.close()
        await super()._close_connection(connection)

    def _queue_item(self, line: bytes) -> tuple:
        """Turn one raw request line into a queue item:
        ``("fwd", id, raw, op, session)`` for a request forwarded as
        sent, ``("open", id, request)``, or the shell's ``local`` and
        ``bad`` items.
        """
        if not line.endswith(b"\n"):
            line += b"\n"  # a last line cut off by EOF
        match = _FAST_ROUTE.match(line)
        if match is not None:
            return (
                "fwd", int(match.group(2)), line,
                match.group(1).decode("ascii"),
                match.group(3).decode("ascii"),
            )
        item = super()._queue_item(line)
        if item[0] != "request":
            return item
        request = item[2]
        if isinstance(request, protocol.OpenRequest):
            return ("open", request.id, request)
        # A routable op the regex could not take (keys in another
        # order, an escaped session name): forward the line as sent.
        return ("fwd", request.id, line, request.op, request.session)

    async def _answer(
        self, connection: Connection, batch: List[tuple]
    ) -> List[bytes]:
        """Answer one cycle's queue items in request order.

        Consecutive routable requests go to the workers pipelined
        (:meth:`_forward_run`); opens, dispatcher-local ops and bad
        lines are barriers answered one at a time.
        """
        self.requests_served += len(batch)
        if self._telemetry is not None:
            self._m_requests.inc(len(batch))
        chunks: List[bytes] = []
        start = 0
        while start < len(batch):
            if batch[start][0] != "fwd":
                chunks += await self._answer_barrier(
                    connection, batch[start]
                )
                start += 1
                continue
            end = start + 1
            while end < len(batch) and batch[end][0] == "fwd":
                end += 1
            start += await self._forward_run(
                connection, batch[start:end], chunks
            )
        return chunks

    def _error_line(
        self, request_id: Optional[int], error: Exception
    ) -> bytes:
        return protocol.encode(self._error_payload(request_id, error))

    def _hold(self, session: str) -> None:
        """Count one request to ``session`` as in flight; a migration's
        quiesce waits for the count to drop to zero."""
        self._inflight[session] = self._inflight.get(session, 0) + 1

    def _release(self, session: str) -> None:
        remaining = self._inflight.get(session, 1) - 1
        if remaining:
            self._inflight[session] = remaining
        else:
            self._inflight.pop(session, None)

    async def _answer_barrier(
        self, connection: Connection, item: tuple
    ) -> List[bytes]:
        """Answer one ``open``, ``local`` or ``bad`` queue item."""
        if item[0] == "bad":
            return [self._error_line(item[1], item[2])]
        request = item[2]
        try:
            if item[0] == "open":
                return await self._handle_open(connection, request)
            result = await self._execute_local(request)
        except Exception as error:
            return [self._error_line(request.id, error)]
        return [protocol.encode(protocol.ok_response(request.id, result))]

    # -- request execution -----------------------------------------------------

    async def _forward_run(
        self,
        connection: Connection,
        items: List[tuple],
        chunks: List[bytes],
    ) -> int:
        """Forward a prefix of ``items`` (``fwd`` queue items) pipelined
        and append their answers to ``chunks`` in request order; returns
        how many items it took.

        Each request waits out its session's migration gate, is routed
        and counts as in flight until its response is read. A closed
        gate ends the run once anything is counted: the counted part is
        sent before waiting, so it never stalls that migration's
        quiesce — nor another session's.
        """
        replies: List[Optional[object]] = [None] * len(items)
        groups: Dict[_WorkerChannel, List[int]] = {}
        taken = 0
        for _, _, _, _, session in items:
            if session in self._gates:
                if groups:
                    break
                await self._gate_wait(session)
            index, taken = taken, taken + 1
            try:
                channel = self._client_channel(
                    connection, self.route(session)
                )
            except ReproError as error:
                replies[index] = error
                continue
            self._hold(session)
            groups.setdefault(channel, []).append(index)

        def deliver(index: int, reply: object) -> None:
            replies[index] = reply
            self._release(items[index][4])

        exchanges = [
            channel.exchange(
                [items[index][2] for index in indexes],
                [items[index][3] in _RESENDABLE for index in indexes],
                lambda at, reply, indexes=indexes: deliver(
                    indexes[at], reply
                ),
            )
            for channel, indexes in groups.items()
        ]
        await asyncio.gather(*exchanges)

        for (_, request_id, _, op, session), reply in zip(
            items[:taken], replies
        ):
            if isinstance(reply, Exception):
                chunks.append(self._error_line(request_id, reply))
                continue
            pushes, response = reply
            if op == "close" and response.startswith(b'{"id":') and (
                b'"ok":true' in response
            ):
                self._sessions.pop(session, None)
            elif _NOT_FOUND_MARKER in response:
                # The worker no longer knows the session (evicted
                # without persistence, or a RAM-only worker restarted):
                # drop the stale route so a future open hashes fresh.
                self._sessions.pop(session, None)
            chunks += pushes
            chunks.append(response)
        return taken

    async def _handle_open(
        self, connection: Connection, request: protocol.OpenRequest
    ) -> List[bytes]:
        session = request.session
        if session is None:
            # Anonymous opens get a cluster-unique name here: name
            # allocation must be global, not per-worker, or two workers
            # could hand out the same name.
            while True:
                session = f"session-{next(self._names)}"
                if session not in self._sessions:
                    break
            request = protocol.OpenRequest(
                id=request.id,
                session=session,
                config=request.config,
                interval_instructions=request.interval_instructions,
                snapshot=request.snapshot,
            )
        await self._gate_wait(session)
        worker_id = self.route(session)
        channel = self._client_channel(connection, worker_id)
        raw = protocol.encode(protocol.request_payload(request))
        self._hold(session)
        try:
            pushes, response = await channel.exchange_one(raw, False)
        finally:
            self._release(session)
        if response.startswith(b'{"id":') and b'"ok":true' in response:
            self._sessions[session] = worker_id
        return pushes + [response]

    async def _execute_local(self, request: protocol.Request) -> dict:
        if isinstance(request, protocol.PingRequest):
            return {
                "protocol": protocol.PROTOCOL_VERSION,
                "draining": self._draining,
                "cluster": True,
            }
        if isinstance(request, protocol.StatsRequest):
            return await self.aggregate_stats()
        assert isinstance(request, protocol.ClusterRequest)
        return await self._execute_cluster(request)

    async def _execute_cluster(
        self, request: protocol.ClusterRequest
    ) -> dict:
        action = request.action
        params = request.params
        if action == "status":
            return self.cluster_status()
        if action == "diagnostics":
            return await self.aggregate_diagnostics()
        if action == "migrate":
            session = params.get("session")
            if not isinstance(session, str) or not session:
                raise ClusterError(
                    "migrate requires params.session (a session name)"
                )
            target = params.get("worker")
            if target is not None and not isinstance(target, str):
                raise ClusterError("migrate params.worker must be a string")
            return await self.migrator.migrate(session, target)
        if action == "drain-worker":
            worker = params.get("worker")
            if not isinstance(worker, str) or not worker:
                raise ClusterError(
                    "drain-worker requires params.worker (a worker id)"
                )
            return await self.migrator.drain_worker(worker)
        if action == "rebalance":
            return await self.migrator.rebalance()
        if action == "grow":
            count = params.get("count", 1)
            if not isinstance(count, int) or isinstance(count, bool) or (
                count <= 0
            ):
                raise ClusterError("grow params.count must be a positive int")
            return await self.grow(count)
        raise ClusterError(
            f"unknown cluster action {action!r}; expected one of "
            f"status, diagnostics, migrate, drain-worker, rebalance, grow"
        )

    # -- cluster control plane -------------------------------------------------

    async def grow(self, count: int = 1) -> dict:
        """Add ``count`` fresh workers to the fleet and shard map.

        New shards route to them immediately; existing sessions stay
        put until :meth:`SessionMigrator.rebalance` moves them.
        """
        if len(self.shard_map) + count > self.shard_map.num_shards:
            raise ClusterError(
                f"cannot grow to {len(self.shard_map) + count} workers: "
                f"only {self.shard_map.num_shards} shards exist"
            )
        added = []
        for _ in range(count):
            handle = await self.supervisor.start_worker()
            self._admit_worker(handle)
            added.append(handle.worker_id)
        self.refresh_cluster_metrics()
        self._emit("cluster_grown", added=added,
                   workers=list(self.shard_map.workers))
        return {
            "added": added,
            "workers": list(self.shard_map.workers),
        }

    def cluster_status(self) -> dict:
        """Topology without touching the workers: supervisor states,
        shard ownership, session placement, migration counters."""
        sessions_per_worker: Dict[str, int] = {}
        for owner in self._sessions.values():
            sessions_per_worker[owner] = (
                sessions_per_worker.get(owner, 0) + 1
            )
        workers = {}
        occupancy = (
            self.shard_map.occupancy() if len(self.shard_map) else {}
        )
        for worker_id, handle in sorted(self.supervisor.workers.items()):
            entry = handle.to_dict()
            entry["shards"] = occupancy.get(worker_id, 0)
            entry["sessions"] = sessions_per_worker.get(worker_id, 0)
            entry["in_map"] = worker_id in self.shard_map
            workers[worker_id] = entry
        return {
            "workers": workers,
            "shard_map": self.shard_map.to_dict(),
            "sessions": len(self._sessions),
            "migrations": {
                "completed": self.migrations_completed,
                "failed": self.migrations_failed,
                "in_progress": len(self._gates),
            },
            "draining": self._draining,
            "uptime_seconds": self.touch_uptime(),
        }

    async def _gather_from_workers(
        self, request_factory
    ) -> Dict[str, dict]:
        """Run one control request against every up worker; skips
        workers that are down or unreachable (their absence is visible
        in the status section)."""
        results: Dict[str, dict] = {}
        for worker_id in self.shard_map.workers:
            handle = self.supervisor.workers.get(worker_id)
            if handle is None or handle.state != UP:
                continue
            channel = self.control_channel(worker_id)
            try:
                results[worker_id] = await channel.request(
                    request_factory(channel.next_id()), resendable=True
                )
            except (ClusterError, ReproError):
                continue
        return results

    async def aggregate_stats(self) -> dict:
        """Cluster-wide ``stats``: worker counters summed, same
        top-level keys a single service reports, plus ``cluster`` and
        ``per_worker`` sections."""
        per_worker = await self._gather_from_workers(
            lambda rid: protocol.StatsRequest(id=rid)
        )
        totals: Dict[str, object] = {}
        sum_keys = (
            "live", "opened", "closed", "evicted", "expired",
            "evicted_saved", "evicted_lost", "evicted_recycled",
            "hydrated", "requests", "errors", "connections",
        )
        for key in sum_keys:
            totals[key] = sum(
                stats.get(key, 0) or 0 for stats in per_worker.values()
            )
        totals["predictions"] = _summed_scoreboard(
            stats.get("predictions") for stats in per_worker.values()
        )
        totals["uptime_seconds"] = self.touch_uptime()
        totals["cluster"] = {
            "workers": len(self.shard_map),
            "dispatcher_requests": self.requests_served,
            "dispatcher_errors": self.errors_returned,
            "sessions_routed": len(self._sessions),
            "migrations_completed": self.migrations_completed,
        }
        totals["per_worker"] = per_worker
        return totals

    async def aggregate_diagnostics(self) -> dict:
        """Cluster-wide diagnostics in the same shape a single
        service's ``diagnostics()`` produces (so the dashboard renders
        unchanged), plus a ``cluster`` section for the worker panel."""
        per_worker = await self._gather_from_workers(
            lambda rid: protocol.ClusterRequest(
                id=rid, action="diagnostics"
            )
        )
        occupancy: Dict[str, int] = {}
        registry: Dict[str, object] = {}
        pool_capacity = pool_active = 0
        queue_depth = self.ingest_queue_depth()
        requests = errors = 0
        for diag in per_worker.values():
            for phase, count in (diag.get("phase_occupancy") or {}).items():
                occupancy[phase] = occupancy.get(phase, 0) + count
            for key, value in (diag.get("registry") or {}).items():
                if isinstance(value, (int, float)):
                    registry[key] = (registry.get(key, 0) or 0) + value
            pool = diag.get("pool") or {}
            pool_capacity += pool.get("capacity", 0) or 0
            pool_active += pool.get("active_slots", 0) or 0
            queue_depth += diag.get("ingest_queue_depth", 0) or 0
            requests += diag.get("requests", 0) or 0
            errors += diag.get("errors", 0) or 0
        status = self.cluster_status()
        status["per_worker"] = {
            worker_id: {
                "requests": diag.get("requests"),
                "errors": diag.get("errors"),
                "ingest_queue_depth": diag.get("ingest_queue_depth"),
                "registry_live": (diag.get("registry") or {}).get("live"),
            }
            for worker_id, diag in per_worker.items()
        }
        return {
            "uptime_seconds": self.touch_uptime(),
            "draining": self._draining,
            "requests": requests,
            "errors": errors,
            "connections": len(self._connections),
            "connections_refused": self.connections_refused,
            "ingest_queue_depth": queue_depth,
            "phase_occupancy": occupancy,
            "prediction": _summed_scoreboard(
                diag.get("prediction") for diag in per_worker.values()
            ),
            "registry": registry,
            "pool": {
                "capacity": pool_capacity,
                "active_slots": pool_active,
                "utilization": (
                    pool_active / pool_capacity if pool_capacity else None
                ),
            },
            "persistence": None,
            "cluster": status,
        }

    def _emit(self, event: str, **fields: object) -> None:
        if self._telemetry is not None:
            self._telemetry.emit(event, **fields)


def _summed_scoreboard(boards: Iterable[Optional[dict]]) -> dict:
    """One predictor scoreboard from the workers' (missing ones count
    as zero)."""
    totals = dict.fromkeys(protocol.PREDICTION_COUNTS, 0)
    for board in boards:
        for key in totals:
            totals[key] += (board or {}).get(key, 0) or 0
    return protocol.prediction_scoreboard(**totals)


# -- thread hosting ------------------------------------------------------------


class ClusterHandle(ServiceHandle):
    """A running cluster on a background thread (tests, benchmarks,
    demos): a :class:`~repro.service.frontend.ServiceHandle` whose
    front end is a :class:`ClusterDispatcher`."""

    @property
    def dispatcher(self) -> ClusterDispatcher:
        return self.service


def start_cluster_in_thread(**kwargs: object) -> ClusterHandle:
    """Build a :class:`ClusterDispatcher` and run it on a daemon
    thread; returns a started handle (``handle.port`` is live and all
    workers are ready)."""
    dispatcher = ClusterDispatcher(**kwargs)  # type: ignore[arg-type]
    return ClusterHandle(dispatcher).start()
