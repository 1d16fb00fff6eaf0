"""The NDJSON front end shared by the phase service and the cluster
dispatcher.

:class:`FrontEnd` is the connection shell both public endpoints run:
:class:`~repro.service.server.PhaseService` and
:class:`~repro.cluster.dispatcher.ClusterDispatcher`. Each TCP (or Unix)
connection gets two tasks:

- a **reader** that turns request lines into items on a *bounded*
  ``asyncio.Queue``. When the worker falls behind, ``queue.put`` blocks
  the reader, the socket stops being drained, and the kernel's TCP
  receive window closes — backpressure reaches the client without any
  explicit flow-control messages.
- a **worker** that, each cycle, takes everything already queued (up to
  the end-of-input sentinel), has the subclass answer the batch, and
  writes the answers with one ``writer.write``. All writes happen on the
  worker, so responses leave in request order.

The shell owns admission (the connection cap, refusal while draining),
the line rules (the length limit, blank lines, a newline-less last
line), refusal of everything but ``ping``/``stats``/``cluster`` once a
drain begins, and the connection-draining half of :meth:`shutdown`:
stop reading, answer every request already queued, then close.

A subclass supplies how a line becomes a queue item
(:meth:`_queue_item`), how a batch is answered (:meth:`_answer`), and
its own start and stop steps (:meth:`_start_backend`,
:meth:`_make_gateway`, :meth:`_stop_backend`).
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    ServiceUnavailableError,
)
from repro.service import protocol

if TYPE_CHECKING:  # pragma: no cover - import-time typing only
    from repro.telemetry import Telemetry

#: Requests still answered while draining: they read state, add no work.
_DRAIN_EXEMPT = (
    protocol.PingRequest, protocol.StatsRequest, protocol.ClusterRequest,
)


class Connection:
    """Per-connection state: the socket pair, the bounded ingest queue,
    and the reader/worker task pair."""

    __slots__ = ("reader", "writer", "queue", "tasks")

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        queue_size: int,
    ) -> None:
        self.reader = reader
        self.writer = writer
        # Items are tuples ``(kind, request id, ...)`` or None (end of
        # input). Bounded: this queue is the backpressure.
        self.queue: "asyncio.Queue" = asyncio.Queue(maxsize=queue_size)
        self.tasks: List["asyncio.Task"] = []


class FrontEnd:
    """An NDJSON endpoint: connection shell, drain path and the
    attributes the HTTP gateway reads.

    Queue items are tuples whose first two fields are a kind and the
    request id (``None`` when unknown). The shell produces three kinds:
    ``("local", id, request)`` for ``ping``/``stats``/``cluster``,
    ``("request", id, request)`` for every other parsed request, and
    ``("bad", id, error)`` for a line answered with an error. A subclass
    may produce kinds of its own; every kind but ``local`` and ``bad``
    is refused while draining.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_connections: int,
        queue_size: int,
        drain_timeout: float,
        telemetry: "Optional[Telemetry]",
        http_host: Optional[str],
        http_port: Optional[int],
    ) -> None:
        if max_connections <= 0:
            raise ConfigurationError(
                f"max_connections must be positive, got {max_connections}"
            )
        if queue_size <= 0:
            raise ConfigurationError(
                f"queue_size must be positive, got {queue_size}"
            )
        if http_port is not None and http_port < 0:
            raise ConfigurationError(
                f"http_port must be >= 0, got {http_port}"
            )
        if http_port is not None and telemetry is None:
            # The gateway exists to expose telemetry; an operator who
            # asks for the HTTP surface gets an in-memory hub for free.
            from repro.telemetry import Telemetry as _Telemetry

            telemetry = _Telemetry()
        self.host = host
        self.port = port
        #: Listen on this Unix socket instead of ``host``/``port``.
        self.uds_path: Optional[str] = None
        self.http_host = http_host if http_host is not None else host
        self.http_port = http_port
        self.max_connections = max_connections
        self.queue_size = queue_size
        self.drain_timeout = drain_timeout
        self.requests_served = 0
        self.errors_returned = 0
        self.connections_refused = 0
        self.started_at = time.time()
        self._started_mono = time.monotonic()
        self._telemetry = telemetry
        self._gateway = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Dict[int, Connection] = {}
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._drain_task: Optional["asyncio.Task"] = None
        # Periodic tasks a subclass starts; cancelled when a stop begins.
        self._background: List["asyncio.Task"] = []
        if telemetry is not None:
            self._g_uptime = telemetry.gauge(
                "repro_service_uptime_seconds",
                "Seconds since start (updated on scrape).",
            )
            self._g_connections = telemetry.gauge(
                "repro_service_connections",
                "Open client connections",
            )
            self._m_requests = telemetry.counter(
                "repro_service_requests_total",
                "Requests executed by the front end (including refusals)",
            )
            self._m_errors = telemetry.counter(
                "repro_service_errors_total",
                "Requests answered with an error response",
            )

    # -- subclass hooks --------------------------------------------------------

    async def _start_backend(self) -> None:
        """Bring up what serves requests; runs before the listener
        binds."""

    def _make_gateway(self):
        """The HTTP gateway to run on ``http_port``."""
        raise NotImplementedError

    async def _answer(
        self, connection: Connection, batch: List[tuple]
    ) -> List[bytes]:
        """The encoded lines answering ``batch``, in request order."""
        raise NotImplementedError

    async def _stop_backend(self, drain: bool) -> None:
        """Tear down what :meth:`_start_backend` started; runs after the
        connections are drained and closed."""

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise ServiceUnavailableError(
                f"{type(self).__name__} is already started"
            )
        self._stopped = asyncio.Event()
        await self._start_backend()
        if self.uds_path is not None:
            try:
                os.unlink(self.uds_path)
            except FileNotFoundError:
                pass
            self._server = await asyncio.start_unix_server(
                self._handle_connection,
                path=self.uds_path,
                limit=protocol.MAX_LINE_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                self.host,
                self.port,
                limit=protocol.MAX_LINE_BYTES,
            )
            sockets = self._server.sockets or []
            if sockets:
                self.port = sockets[0].getsockname()[1]
        if self.http_port is not None:
            self._gateway = self._make_gateway()
            await self._gateway.start()
            self.http_port = self._gateway.port

    def begin_drain(self, grace: float = 0.5) -> None:
        """Flip to draining *now* and schedule the real shutdown.

        ``/readyz`` (and ``ping``) report not-ready immediately; the
        full :meth:`shutdown` runs after ``grace`` seconds so probes
        and load balancers get a window to observe the transition
        before sockets disappear. Idempotent while already draining.
        """
        if self._draining:
            return
        self._draining = True

        async def _later() -> None:
            await asyncio.sleep(grace)
            await self.shutdown(drain=True)

        self._drain_task = asyncio.ensure_future(_later())

    async def serve_forever(self) -> None:
        """Run until :meth:`shutdown` completes (from another task or a
        signal handler)."""
        if self._server is None:
            await self.start()
        assert self._stopped is not None
        await self._stopped.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the front end.

        With ``drain=True`` (the default): stop accepting connections,
        stop reading new request lines, answer everything already
        queued and flush it, then close the sockets. With
        ``drain=False``: cancel everything immediately.
        """
        if self._server is None:
            return
        self._draining = True
        drain_task = self._drain_task
        if drain_task is not None and drain_task is not asyncio.current_task():
            # A direct shutdown supersedes a scheduled begin_drain one.
            self._drain_task = None
            drain_task.cancel()
        server, self._server = self._server, None
        server.close()
        await server.wait_closed()
        if self.uds_path is not None:
            try:
                os.unlink(self.uds_path)
            except OSError:
                pass
        for task in self._background:
            task.cancel()
        self._background.clear()

        connections = list(self._connections.values())
        if drain:
            # Stop the readers (no new requests), then let each worker
            # finish its queue. The sentinel wakes idle workers; both
            # waits are bounded so a stalled client cannot wedge the
            # shutdown.
            for connection in connections:
                connection.tasks[0].cancel()  # the reader
            for connection in connections:
                try:
                    await asyncio.wait_for(
                        connection.queue.put(None), self.drain_timeout
                    )
                except asyncio.TimeoutError:
                    pass
            for connection in connections:
                try:
                    await asyncio.wait_for(
                        asyncio.shield(connection.tasks[1]),  # the worker
                        self.drain_timeout,
                    )
                except (asyncio.CancelledError, Exception):
                    pass
        for connection in connections:
            for task in connection.tasks:
                task.cancel()
            await self._close_connection(connection)
        self._connections.clear()

        await self._stop_backend(drain)
        if self._gateway is not None:
            # The gateway goes down last so /healthz and /readyz stay
            # observable for the whole drain — a load balancer sees the
            # not-ready signal before the port disappears.
            gateway, self._gateway = self._gateway, None
            await gateway.shutdown()
        if self._stopped is not None:
            self._stopped.set()

    # -- what the gateway reads ------------------------------------------------

    @property
    def telemetry(self) -> "Optional[Telemetry]":
        return self._telemetry

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def gateway(self):
        """The running HTTP gateway, or ``None``."""
        return self._gateway

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started_mono

    def touch_uptime(self) -> float:
        """Refresh the uptime gauge (called on scrape) and return it."""
        uptime = self.uptime_seconds
        if self._telemetry is not None:
            self._g_uptime.set(uptime)
        return uptime

    def ingest_queue_depth(self) -> int:
        """Requests currently buffered across all connection queues —
        the live backpressure signal."""
        return sum(
            connection.queue.qsize()
            for connection in self._connections.values()
        )

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        if self._draining or len(self._connections) >= self.max_connections:
            # Admission control at the socket level: no request to
            # answer yet, so refuse by closing.
            self.connections_refused += 1
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass
            return
        connection = Connection(reader, writer, self.queue_size)
        self._connections[id(connection)] = connection
        if self._telemetry is not None:
            self._g_connections.set(len(self._connections))
        reader_task = asyncio.ensure_future(self._read_loop(connection))
        worker_task = asyncio.ensure_future(self._work_loop(connection))
        connection.tasks = [reader_task, worker_task]
        try:
            await worker_task
        except asyncio.CancelledError:
            pass
        finally:
            reader_task.cancel()
            if self._connections.pop(id(connection), None) is not None:
                await self._close_connection(connection)
            if self._telemetry is not None:
                self._g_connections.set(len(self._connections))

    async def _close_connection(self, connection: Connection) -> None:
        try:
            connection.writer.close()
            await connection.writer.wait_closed()
        except Exception:
            pass

    async def _read_loop(self, connection: Connection) -> None:
        """Turn request lines into items on the bounded queue (the await
        on ``put`` is what backpressures the socket)."""
        queue = connection.queue
        try:
            while True:
                try:
                    line = await connection.reader.readline()
                except (
                    asyncio.LimitOverrunError, ValueError
                ) as error:  # line longer than MAX_LINE_BYTES
                    await queue.put(("bad", None, ProtocolError(
                        f"request line exceeds the "
                        f"{protocol.MAX_LINE_BYTES}-byte limit: {error}"
                    )))
                    break
                if not line:
                    break  # EOF
                if not line.strip():
                    continue
                item = self._queue_item(line)
                if self._draining and item[0] not in ("local", "bad"):
                    # Lines read after drain began: typed refusal, so
                    # the client knows the work was NOT ingested.
                    item = ("bad", item[1], ServiceUnavailableError(
                        "service is draining; no new work is accepted"
                    ))
                await queue.put(item)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            # Unblock the worker even when cancelled mid-drain.
            try:
                queue.put_nowait(None)
            except asyncio.QueueFull:
                pass

    def _queue_item(self, line: bytes) -> tuple:
        """Parse one non-blank request line into a queue item."""
        try:
            request = protocol.parse_request(line)
        except ProtocolError as error:
            return ("bad", _best_effort_id(line), error)
        if isinstance(request, _DRAIN_EXEMPT):
            return ("local", request.id, request)
        return ("request", request.id, request)

    async def _work_loop(self, connection: Connection) -> None:
        """Answer queued requests; the only writer on this socket.

        Each cycle takes everything immediately available from the
        queue, and writes the cycle's answers with a single
        ``writer.write`` — one syscall per cycle instead of one per
        line.
        """
        queue = connection.queue
        while True:
            item = await queue.get()
            if item is None:
                break
            batch = [item]
            while batch[-1] is not None:
                try:
                    batch.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            stop = batch[-1] is None
            if stop:
                batch.pop()
            chunks = await self._answer(connection, batch)
            try:
                connection.writer.write(b"".join(chunks))
                await connection.writer.drain()
            except (ConnectionError, RuntimeError):
                break
            if stop:
                break

    def _error_payload(
        self, request_id: Optional[int], error: Exception
    ) -> dict:
        """Count and build one refusal (typed) or failure (internal)."""
        self.errors_returned += 1
        if self._telemetry is not None:
            self._m_errors.inc()
        if isinstance(error, ReproError):
            code, message = protocol.error_code_for(error), str(error)
        else:
            code, message = "internal", f"{type(error).__name__}: {error}"
        return protocol.error_response(
            request_id if request_id is not None else -1, code, message
        )


def _best_effort_id(line: bytes) -> Optional[int]:
    """Recover the request id from a line that failed validation, so
    the error response can still be matched to its request."""
    try:
        payload = json.loads(line)
    except Exception:
        return None
    if isinstance(payload, dict):
        request_id = payload.get("id")
        if isinstance(request_id, int) and not isinstance(request_id, bool):
            return request_id
    return None


# -- thread hosting ------------------------------------------------------------


class ServiceHandle:
    """A running front end on a background thread (tests, demos,
    benchmarks). Use as a context manager or call :meth:`stop`."""

    def __init__(self, service: FrontEnd, drain: bool = True) -> None:
        self.service = service
        self.drain = drain
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.service.port

    @property
    def host(self) -> str:
        return self.service.host

    def start(self, timeout: float = 120.0) -> "ServiceHandle":
        name = type(self.service).__name__
        self._thread = threading.Thread(
            target=self._run, name=f"repro-{name}", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise ServiceUnavailableError(
                f"{name} failed to start within the timeout"
            )
        if self._error is not None:
            raise ServiceUnavailableError(
                f"{name} failed to start: {self._error}"
            )
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.service.start())
        except BaseException as error:
            self._error = error
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_until_complete(self.service.serve_forever())
        finally:
            loop.close()

    def run_control(self, coroutine, timeout: float = 60.0):
        """Run a coroutine (a migration, a drain, a control request) on
        the front end's loop from the calling thread."""
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(timeout)

    def stop(self, drain: Optional[bool] = None, timeout: float = 60.0) -> None:
        """Shut the front end down (draining by default) and join the
        thread. Idempotent."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None or not thread.is_alive():
            return
        should_drain = self.drain if drain is None else drain
        future = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(drain=should_drain), loop
        )
        try:
            future.result(timeout)
        except Exception:
            pass
        thread.join(timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
