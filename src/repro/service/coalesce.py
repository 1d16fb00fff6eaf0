"""Cross-session ingest coalescing: the micro-batching scheduler.

Every observe the service executes goes through here. With a
structure-of-arrays :class:`~repro.core.pool.TrackerPool` behind the
registry, an observe executed alone would pay a full single-slot numpy
pass; rounds let the pool batch many sessions per pass.

The per-connection workers in :mod:`repro.service.server` *submit*
observe requests to the :class:`IngestCoalescer` and await a
per-request future. A single scheduler task collects everything
submitted across all connections (plus the HTTP gateway's
observe-batch endpoint) into one *round*, hands the round to the
service's round executor — which groups the pool-backed sessions'
record slices into one
:meth:`~repro.core.pool.TrackerPool.observe_fanin` pass and journals
the round before acknowledging any of it — and resolves each future
with that request's wire payloads (interval pushes first, ack last).

Scheduling is self-clocking: the scheduler yields one event-loop tick
after the first submission so every currently-runnable worker can join
the round, then runs it synchronously. While a round executes no worker
runs (one thread), so their next requests pile up into the next round —
batch size adapts to load with no configured delay.

Ordering and durability invariants live with the round executor
(:meth:`~repro.service.server.PhaseService._coalesce_round`); this
module only guarantees that submissions join rounds in submission
order and that every submitted future is eventually resolved (or
cancelled with the service).
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, List, Optional

from repro.service import protocol

__all__ = ["IngestCoalescer", "Submission"]


class Submission:
    """One queued observe awaiting its round."""

    __slots__ = ("request", "future")

    def __init__(
        self, request: "protocol.ObserveRequest", future: "asyncio.Future"
    ) -> None:
        self.request = request
        self.future = future

    def resolve(self, payloads: List[dict]) -> None:
        """Hand the request's wire payloads back to its submitter."""
        if not self.future.done():
            self.future.set_result(payloads)


class IngestCoalescer:
    """Collects observe submissions into batched scheduling rounds.

    Parameters
    ----------
    run_round:
        Callback executing one round: takes the list of
        :class:`Submission` objects in submission order and must
        resolve every one of them (the service's
        ``_coalesce_round``).
    """

    def __init__(self, run_round: Callable[[List[Submission]], None]) -> None:
        self._run_round = run_round
        self._pending: List[Submission] = []
        self._event: Optional[asyncio.Event] = None
        self._task: Optional["asyncio.Task"] = None
        self.rounds = 0
        self.requests = 0
        self.max_round_size = 0

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    @property
    def pending(self) -> int:
        """Submissions waiting for the next round (the live signal)."""
        return len(self._pending)

    def start(self) -> None:
        """Start the scheduler task on the running event loop."""
        if self.running:
            return
        self._event = asyncio.Event()
        self._task = asyncio.ensure_future(self._loop())

    async def stop(self) -> None:
        """Stop the scheduler, flushing any not-yet-rounded work.

        Called after the connection workers drain, so normally nothing
        is pending; a final round covers the cancel-mid-submit race so
        no submitter is left awaiting forever.
        """
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        if self._pending:
            pending, self._pending = self._pending, []
            self._account(pending)
            self._dispatch(pending)

    def submit(
        self, request: "protocol.ObserveRequest"
    ) -> "Awaitable[List[dict]]":
        """Queue an observe for the next round; returns a future
        resolving to the request's wire payloads (pushes then ack)."""
        future = asyncio.get_event_loop().create_future()
        self._pending.append(Submission(request, future))
        if self._event is not None:
            self._event.set()
        return future

    def _dispatch(self, pending: List[Submission]) -> None:
        """Run one round; a fault escaping the executor fails the
        still-unresolved submissions instead of stranding their
        workers (and would otherwise kill the scheduler task)."""
        try:
            self._run_round(pending)
        except Exception as error:  # pragma: no cover - defensive
            for submission in pending:
                if not submission.future.done():
                    submission.future.set_exception(error)

    def _account(self, round_submissions: List[Submission]) -> None:
        self.rounds += 1
        self.requests += len(round_submissions)
        self.max_round_size = max(
            self.max_round_size, len(round_submissions)
        )

    async def _loop(self) -> None:
        assert self._event is not None
        while True:
            await self._event.wait()
            # One tick: every worker that is already runnable gets to
            # submit before the round closes.
            await asyncio.sleep(0)
            self._event.clear()
            pending, self._pending = self._pending, []
            if not pending:
                continue
            self._account(pending)
            # Runs synchronously on the loop — the whole point: nothing
            # else interleaves with the fused pool pass.
            self._dispatch(pending)

    def stats(self) -> dict:
        """Scheduler-side counters for diagnostics()."""
        return {
            "rounds": self.rounds,
            "requests": self.requests,
            "max_round_size": self.max_round_size,
            "mean_round_size": (
                self.requests / self.rounds if self.rounds else None
            ),
            "pending": self.pending,
        }
