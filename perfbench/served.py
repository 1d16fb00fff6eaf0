"""Launch ``repro-phases serve`` as its own process, as an operator runs
it, and account for every served process from ``/proc``.

A cluster (``--workers N``) is ready when its dispatcher answers
``ping`` *and* ``cluster status`` reports every worker ``up``; the
worker pids come from that status, so CPU and peak RSS are summed over
the dispatcher and all workers.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_LISTEN = re.compile(r"listening on ([^\s:]+):(\d+)")
_HTTP = re.compile(r"http gateway on http://([^\s:/]+):(\d+)/")


class ServeError(RuntimeError):
    """The served program failed to start or answer."""


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds ``pid`` has used (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def request(host: str, port: int, payload: dict,
            timeout: float = 30.0, uds: Optional[str] = None) -> dict:
    """One blocking NDJSON request on a fresh control connection."""
    if uds is not None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(uds)
    else:
        sock = socket.create_connection((host, port), timeout=timeout)
    try:
        sock.sendall(json.dumps(payload).encode() + b"\n")
        reader = sock.makefile("rb")
        try:
            while True:
                line = reader.readline()
                if not line:
                    raise ServeError(f"no answer to {payload['op']}")
                message = json.loads(line)
                if "push" not in message:
                    return message
        finally:
            reader.close()
    finally:
        sock.close()


class Served:
    """One running ``serve`` process (and its workers, for a cluster)."""

    def __init__(self, root: str, flags: List[str], log_path: str,
                 extra_path: Sequence[str] = (),
                 env: Optional[Dict[str, str]] = None,
                 timeout: float = 120.0) -> None:
        self.cluster = "--workers" in flags
        self.host = "127.0.0.1"
        self.port = 0
        self.http_port: Optional[int] = None
        self.worker_pids: List[int] = []
        self.worker_uds: List[str] = []
        run_env = dict(os.environ)
        run_env.update(env or {})
        run_env["PYTHONPATH"] = os.pathsep.join(
            [*extra_path, os.path.join(root, "src")]
        )
        argv = [sys.executable, "-m", "repro.harness.cli", "serve",
                "--host", self.host, "--port", "0", *flags]
        self.log = open(log_path, "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=root, env=run_env, stdout=subprocess.PIPE,
            stderr=self.log, stdin=subprocess.DEVNULL,
        )
        try:
            self._await_banner(started + timeout)
            self._await_ready(started + timeout)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def pids(self) -> List[int]:
        return [self.pid] + self.worker_pids

    def _await_banner(self, deadline: float) -> None:
        """Read stdout lines until the listening (and gateway) banners."""
        want_http = "--http-port" in self.process.args
        fd = self.process.stdout.fileno()
        selector = selectors.DefaultSelector()
        selector.register(fd, selectors.EVENT_READ)
        text = ""
        try:
            while True:
                listen, http = _LISTEN.search(text), _HTTP.search(text)
                if listen and (http or not want_http):
                    self.port = int(listen.group(2))
                    self.http_port = int(http.group(2)) if http else None
                    return
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise ServeError("serve printed no banner in time")
                if selector.select(remaining):
                    data = os.read(fd, 65536)
                    if not data:
                        raise ServeError("serve exited before listening")
                    text += data.decode()
        finally:
            selector.close()

    def _await_ready(self, deadline: float) -> None:
        while True:
            try:
                pong = request(self.host, self.port,
                               {"op": "ping", "id": 1}, timeout=5)
                if pong.get("ok") and not self.cluster:
                    return
                if pong.get("ok"):
                    status = request(self.host, self.port, {
                        "op": "cluster", "id": 2, "action": "status",
                    }, timeout=5)["result"]
                    workers = status["workers"].values()
                    if workers and all(
                        w["state"] == "up" and w["pid"] for w in workers
                    ):
                        self.worker_pids = [w["pid"] for w in workers]
                        self.worker_uds = [w["uds_path"] for w in workers]
                        return
            except (OSError, ServeError, KeyError, ValueError):
                pass
            if time.perf_counter() > deadline:
                raise ServeError("serve did not become ready in time")
            time.sleep(0.01)

    def cpu(self) -> Dict[str, float]:
        """CPU seconds so far of the dispatcher/service and the workers."""
        return {
            "main": cpu_seconds(self.pid),
            "workers": sum(cpu_seconds(pid) for pid in self.worker_pids),
        }

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids)

    def endpoints(self) -> List[dict]:
        """Where each phase service answers control requests: the
        workers' sockets for a cluster, else the service port."""
        if self.cluster:
            return [{"uds": path} for path in self.worker_uds]
        return [{"port": self.port}]

    def query(self, payload: dict, endpoint: dict) -> dict:
        return request(self.host, endpoint.get("port", 0), payload,
                       uds=endpoint.get("uds"))

    def stop(self, timeout: float = 30.0) -> None:
        """SIGINT (drain) and wait; SIGKILL whatever outlives ``timeout``,
        workers included. Idempotent."""
        if self.log.closed:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        deadline = time.perf_counter() + timeout
        for pid in self.worker_pids:
            while _alive(pid) and time.perf_counter() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
                while _alive(pid):
                    time.sleep(0.02)
        self.log.close()


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            state = handle.read().rsplit(b")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != b"Z"
