"""Worker process lifecycle: spawn, readiness, restart, stop.

:class:`ClusterSupervisor` owns the worker *processes*; the dispatcher
owns the *routing*. The split keeps the failure story simple: the
supervisor only knows how to (re)launch ``python -m repro.cluster.worker``
with the right flags and how to tell when one is ready or dead; the
dispatcher decides what a death means for in-flight sessions.

Readiness is end-to-end, not a banner grep: a worker is ready when its
Unix socket accepts a connection *and answers a ping*. Because a
worker's :class:`~repro.service.server.PhaseService` recovers its
per-worker data dir during construction — before binding — readiness
also implies persistence recovery is complete, which is exactly the
property the kill-9 failover test leans on.

Each worker gets:

- a stable id (``w0``, ``w1``, …) that survives restarts,
- a socket at ``<runtime_dir>/<id>.sock``,
- a data dir at ``<data_root>/<id>`` (when the cluster is durable) —
  the same directory across restarts, so recovery finds the journal,
- stdout/stderr captured to ``<runtime_dir>/<id>.log``.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import ClusterError
from repro.service import protocol

#: Worker process states.
STARTING = "starting"
UP = "up"
DOWN = "down"      # exited unexpectedly; restart pending or exhausted
STOPPED = "stopped"  # deliberately stopped (drained); never restarted


@dataclass
class WorkerSpec:
    """Everything needed to (re)launch one worker identically."""

    worker_id: str
    uds_path: str
    data_dir: Optional[str] = None
    sync: str = "batch"
    checkpoint_interval: float = 30.0
    max_sessions: int = 1024
    queue_size: int = 32
    max_connections: int = 1024
    idle_ttl: Optional[float] = None
    drain_timeout: float = 30.0

    def argv(self, parent_pid: int) -> List[str]:
        argv = [
            sys.executable, "-m", "repro.cluster.worker",
            "--uds", self.uds_path,
            "--worker-id", self.worker_id,
            "--sync", self.sync,
            "--checkpoint-interval", str(self.checkpoint_interval),
            "--max-sessions", str(self.max_sessions),
            "--queue-size", str(self.queue_size),
            "--max-connections", str(self.max_connections),
            "--drain-timeout", str(self.drain_timeout),
            "--parent-pid", str(parent_pid),
        ]
        if self.data_dir is not None:
            argv += ["--data-dir", self.data_dir]
        if self.idle_ttl is not None:
            argv += ["--idle-ttl", str(self.idle_ttl)]
        return argv


@dataclass
class WorkerHandle:
    """One supervised worker process (identity survives restarts)."""

    spec: WorkerSpec
    log_path: str
    process: Optional[subprocess.Popen] = None
    state: str = STARTING
    restarts: int = 0
    started_at: float = field(default_factory=time.monotonic)

    @property
    def worker_id(self) -> str:
        return self.spec.worker_id

    @property
    def uds_path(self) -> str:
        return self.spec.uds_path

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def exited(self) -> Optional[int]:
        """The exit code when the process has exited, else ``None``."""
        if self.process is None:
            return None
        return self.process.poll()

    def to_dict(self) -> Dict[str, object]:
        return {
            "worker_id": self.worker_id,
            "state": self.state,
            "pid": self.pid,
            "restarts": self.restarts,
            "uds_path": self.uds_path,
            "data_dir": self.spec.data_dir,
        }


def worker_data_dir(data_root: str, worker_id: str) -> str:
    """The per-worker durable directory under the cluster data root.

    Deterministic so a restarted worker — or a whole restarted cluster —
    recovers the same journal and checkpoints it wrote before.
    """
    return os.path.join(data_root, worker_id)


class ClusterSupervisor:
    """Launches and supervises the worker fleet.

    Parameters
    ----------
    runtime_dir:
        Directory for sockets and captured worker logs; created if
        missing. Keep it on a filesystem that allows Unix sockets
        (i.e. not some network mounts).
    data_root:
        When given, workers are durable: worker ``wN`` persists to
        ``<data_root>/wN`` and recovers it on every (re)start.
    max_restarts:
        Crash-restart budget *per worker*. Exhausting it leaves the
        worker ``down`` — routing to it fails loudly rather than
        thrashing on a crash loop.
    ready_timeout:
        Seconds to wait for a spawned worker to answer a ping.
    """

    def __init__(
        self,
        runtime_dir: str,
        *,
        data_root: Optional[str] = None,
        sync: str = "batch",
        checkpoint_interval: float = 30.0,
        max_sessions: int = 1024,
        queue_size: int = 32,
        max_connections: int = 1024,
        idle_ttl: Optional[float] = None,
        drain_timeout: float = 30.0,
        max_restarts: int = 5,
        ready_timeout: float = 30.0,
        restart_backoff: float = 0.2,
        telemetry=None,
    ) -> None:
        self.runtime_dir = Path(runtime_dir)
        self.runtime_dir.mkdir(parents=True, exist_ok=True)
        self.data_root = data_root
        self.sync = sync
        self.checkpoint_interval = checkpoint_interval
        self.max_sessions = max_sessions
        self.queue_size = queue_size
        self.max_connections = max_connections
        self.idle_ttl = idle_ttl
        self.drain_timeout = drain_timeout
        self.max_restarts = max_restarts
        self.ready_timeout = ready_timeout
        self.restart_backoff = restart_backoff
        self._telemetry = telemetry
        self._next_index = 0
        self.workers: Dict[str, WorkerHandle] = {}

    # -- spawn / readiness -----------------------------------------------------

    def _make_spec(self, worker_id: str) -> WorkerSpec:
        data_dir = (
            worker_data_dir(self.data_root, worker_id)
            if self.data_root is not None else None
        )
        return WorkerSpec(
            worker_id=worker_id,
            uds_path=str(self.runtime_dir / f"{worker_id}.sock"),
            data_dir=data_dir,
            sync=self.sync,
            checkpoint_interval=self.checkpoint_interval,
            max_sessions=self.max_sessions,
            queue_size=self.queue_size,
            max_connections=self.max_connections,
            idle_ttl=self.idle_ttl,
            drain_timeout=self.drain_timeout,
        )

    def allocate_worker_id(self) -> str:
        """The next never-used worker id (``w0``, ``w1``, …)."""
        while True:
            worker_id = f"w{self._next_index}"
            self._next_index += 1
            if worker_id not in self.workers:
                return worker_id

    def _launch(self, handle: WorkerHandle) -> None:
        env = dict(os.environ)
        # The worker must import this very build of repro even when the
        # supervisor was started from a source checkout.
        repro_root = str(Path(__file__).resolve().parents[2])
        parts = [repro_root] + [
            p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
        ]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        log = open(handle.log_path, "ab")
        try:
            handle.process = subprocess.Popen(
                handle.spec.argv(parent_pid=os.getpid()),
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
            )
        finally:
            log.close()
        handle.state = STARTING
        handle.started_at = time.monotonic()
        self._emit("cluster_worker_started", worker=handle.worker_id,
                   pid=handle.pid, restarts=handle.restarts)

    async def _wait_ready(self, handle: WorkerHandle) -> None:
        deadline = time.monotonic() + self.ready_timeout
        ping = protocol.encode(
            protocol.request_payload(protocol.PingRequest(id=1))
        )
        while time.monotonic() < deadline:
            code = handle.exited()
            if code is not None:
                handle.state = DOWN
                raise ClusterError(
                    f"worker {handle.worker_id} exited with code {code} "
                    f"before becoming ready (log: {handle.log_path})"
                )
            try:
                reader, writer = await asyncio.open_unix_connection(
                    handle.uds_path
                )
            except OSError:
                await asyncio.sleep(0.05)
                continue
            try:
                writer.write(ping)
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), 5.0)
            except (OSError, asyncio.TimeoutError):
                line = b""
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except Exception:
                    pass
            if line:
                handle.state = UP
                self._emit("cluster_worker_ready",
                           worker=handle.worker_id, pid=handle.pid)
                return
            await asyncio.sleep(0.05)
        raise ClusterError(
            f"worker {handle.worker_id} did not become ready within "
            f"{self.ready_timeout:.0f}s (log: {handle.log_path})"
        )

    async def start_worker(self, worker_id: Optional[str] = None) -> WorkerHandle:
        """Spawn a new worker and wait until it answers a ping."""
        worker_id = worker_id or self.allocate_worker_id()
        if worker_id in self.workers:
            raise ClusterError(f"worker {worker_id!r} already exists")
        spec = self._make_spec(worker_id)
        handle = WorkerHandle(
            spec=spec,
            log_path=str(self.runtime_dir / f"{worker_id}.log"),
        )
        self.workers[worker_id] = handle
        self._launch(handle)
        await self._wait_ready(handle)
        return handle

    async def restart_worker(self, worker_id: str) -> WorkerHandle:
        """Relaunch a crashed worker on its original socket and data
        dir; readiness implies its persisted sessions are recovered."""
        handle = self._get(worker_id)
        if handle.state == STOPPED:
            raise ClusterError(
                f"worker {worker_id} was deliberately stopped; "
                f"it is not restartable"
            )
        if handle.restarts >= self.max_restarts:
            raise ClusterError(
                f"worker {worker_id} exhausted its restart budget "
                f"({self.max_restarts})"
            )
        handle.restarts += 1
        await asyncio.sleep(
            min(self.restart_backoff * handle.restarts, 2.0)
        )
        self._launch(handle)
        await self._wait_ready(handle)
        self._emit("cluster_worker_restarted", worker=worker_id,
                   pid=handle.pid, restarts=handle.restarts)
        return handle

    # -- stop ------------------------------------------------------------------

    async def stop_worker(
        self, worker_id: str, timeout: float = 30.0
    ) -> None:
        """SIGTERM the worker (graceful drain + final checkpoint) and
        wait for exit; escalate to SIGKILL only past ``timeout``. The
        worker moves to ``stopped`` and is never restarted."""
        handle = self._get(worker_id)
        handle.state = STOPPED
        process = handle.process
        if process is None or process.poll() is not None:
            return
        try:
            process.send_signal(signal.SIGTERM)
        except OSError:
            return
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if process.poll() is not None:
                return
            await asyncio.sleep(0.05)
        process.kill()
        process.wait()

    async def stop_all(self, timeout: float = 30.0) -> None:
        await asyncio.gather(*(
            self.stop_worker(worker_id, timeout)
            for worker_id in list(self.workers)
        ))

    # -- health ----------------------------------------------------------------

    def crashed_workers(self) -> List[WorkerHandle]:
        """Workers whose process exited without being stopped. Marks
        them ``down`` (and emits the exit event) exactly once."""
        crashed = []
        for handle in self.workers.values():
            if handle.state in (STOPPED, DOWN):
                continue
            code = handle.exited()
            if code is not None:
                handle.state = DOWN
                self._emit("cluster_worker_exited",
                           worker=handle.worker_id, code=code,
                           restarts=handle.restarts)
                crashed.append(handle)
        return crashed

    def to_dict(self) -> Dict[str, object]:
        return {
            worker_id: handle.to_dict()
            for worker_id, handle in sorted(self.workers.items())
        }

    # -- helpers ---------------------------------------------------------------

    def _get(self, worker_id: str) -> WorkerHandle:
        handle = self.workers.get(worker_id)
        if handle is None:
            raise ClusterError(f"no such worker: {worker_id!r}")
        return handle

    def _emit(self, event: str, **fields: object) -> None:
        if self._telemetry is not None:
            self._telemetry.emit(event, **fields)
