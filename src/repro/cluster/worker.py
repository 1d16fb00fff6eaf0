"""Cluster worker entry point: ``python -m repro.cluster.worker``.

A worker is a complete :class:`~repro.service.server.PhaseService`
(pool-backed, persistence-capable) listening on a Unix domain socket
instead of TCP. The dispatcher is its only client, so the socket lives
in the cluster's private runtime directory and ``max_connections`` is
sized for the dispatcher's per-client channels, not the public
internet.

The process contract with :class:`~repro.cluster.supervisor.ClusterSupervisor`:

- construction recovers any persisted sessions from ``--data-dir``
  *before* binding, so the READY line implies recovery is complete;
- ``CLUSTER-WORKER READY <path>`` is printed to stdout (and flushed)
  once the socket is accepting;
- SIGTERM/SIGINT trigger a graceful drain (queued frames execute,
  final checkpoint, sockets close) — the supervisor's stop path;
- when ``--parent-pid`` is given, a watchdog exits the worker once the
  parent dies, so a killed dispatcher never leaks worker processes.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys
from typing import List, Optional

from repro.service.server import PhaseService

#: Stdout banner the supervisor waits for; the socket path follows.
READY_BANNER = "CLUSTER-WORKER READY"

#: How often the orphan watchdog checks that the parent is alive.
_PARENT_POLL_SECONDS = 1.0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.worker",
        description=(
            "Run one cluster worker: a full PhaseService on a Unix "
            "domain socket, supervised by a cluster dispatcher."
        ),
    )
    parser.add_argument("--uds", required=True, metavar="PATH",
                        help="Unix socket path to listen on")
    parser.add_argument("--worker-id", default="w0",
                        help="stable worker id for logs and telemetry")
    parser.add_argument("--data-dir", default=None, metavar="DIR",
                        help="per-worker durable session directory")
    parser.add_argument("--sync", default="batch",
                        choices=("none", "batch", "always"),
                        help="journal sync mode (with --data-dir)")
    parser.add_argument("--checkpoint-interval", type=float, default=30.0,
                        help="seconds between checkpoint sweeps")
    parser.add_argument("--max-sessions", type=int, default=1024,
                        help="session table capacity (also sizes the "
                             "tracker pool)")
    parser.add_argument("--queue-size", type=int, default=32,
                        help="per-connection ingest queue depth")
    parser.add_argument("--max-connections", type=int, default=1024,
                        help="connection cap (dispatcher channels)")
    parser.add_argument("--idle-ttl", type=float, default=None,
                        help="seconds of idleness before eviction")
    parser.add_argument("--parent-pid", type=int, default=None,
                        help="exit when this pid is gone (orphan guard)")
    parser.add_argument("--drain-timeout", type=float, default=30.0,
                        help="per-connection drain bound at shutdown")
    return parser


def build_service(args: argparse.Namespace) -> PhaseService:
    return PhaseService(
        uds_path=args.uds,
        max_sessions=args.max_sessions,
        idle_ttl=args.idle_ttl,
        max_connections=args.max_connections,
        queue_size=args.queue_size,
        drain_timeout=args.drain_timeout,
        data_dir=args.data_dir,
        checkpoint_interval=args.checkpoint_interval,
        sync=args.sync,
    )


async def _watch_parent(parent_pid: int, service: PhaseService) -> None:
    """Drain and exit once the parent process disappears."""
    while True:
        await asyncio.sleep(_PARENT_POLL_SECONDS)
        if os.getppid() != parent_pid:
            # Reparented to init: the dispatcher/supervisor died
            # without stopping us. Drain so persisted sessions get a
            # final checkpoint, then exit.
            await service.shutdown(drain=True)
            return


async def run_worker(args: argparse.Namespace) -> int:
    service = build_service(args)
    await service.start()
    print(f"{READY_BANNER} {args.uds}", flush=True)
    if service.sessions_recovered:
        print(
            f"worker {args.worker_id}: recovered "
            f"{service.sessions_recovered} session(s) from "
            f"{args.data_dir}",
            flush=True,
        )

    loop = asyncio.get_event_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(
            signum,
            lambda: asyncio.ensure_future(service.shutdown(drain=True)),
        )
    watchdog: Optional[asyncio.Task] = None
    if args.parent_pid is not None:
        watchdog = asyncio.ensure_future(
            _watch_parent(args.parent_pid, service)
        )
    try:
        await service.serve_forever()
    finally:
        if watchdog is not None:
            watchdog.cancel()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return asyncio.run(run_worker(args))
    except KeyboardInterrupt:  # pragma: no cover - signal path
        return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
