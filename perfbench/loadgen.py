"""Single-threaded load generator over at most two client connections.

Both connections are driven from one thread with a selector, so the
loader takes at most one core from the served program. During a timed
phase the loader only sends pre-encoded bytes and counts complete
responses; every received chunk's arrival time is kept and the bytes
are parsed after timing ends (:meth:`Channel.answers`).

A *closed loop* keeps a fixed number of requests in flight per
connection. An *open loop* sends each request at its due time whatever
the responses do; its latency is timed from the due time, so a stall
also delays every request due during it.
"""

from __future__ import annotations

import bisect
import json
import selectors
import socket
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from workloads import Req

_ACK = b'\n{"id":'  # starts a response line; pushes start with {"push":


@dataclass
class Answer:
    """One parsed response: its body, the pushes that preceded it (NDJSON),
    when its last byte arrived, and its size on the wire with pushes."""

    ok: bool
    body: object
    pushes: list
    at: float
    wire_bytes: int
    id: Optional[int] = None


class Channel:
    """One client connection and everything sent and received on it."""

    def __init__(self, kind: str, host: str, port: int) -> None:
        self.kind = kind
        self.reqs: List[Req] = []
        self.due_at: List[Optional[float]] = []
        self.sent_at: List[float] = []
        self.buf = bytearray()
        self.chunk_ends: List[int] = []
        self.chunk_times: List[float] = []
        self.answered = 0
        self.dead = False
        self.refused = False
        self._out = b""
        self._tail = b"\n"
        self._http_pos = 0
        self._http_end: Optional[int] = None
        self.http_ends: List[int] = []
        try:
            self.sock = socket.create_connection((host, port), timeout=10)
        except OSError:
            self.sock = None
            self.dead = self.refused = True
            return
        self.sock.setblocking(False)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    @property
    def inflight(self) -> int:
        return len(self.reqs) - self.answered

    def queue(self, req: Req, due: Optional[float] = None) -> None:
        """Append ``req`` to the outgoing bytes; sent by :meth:`flush`."""
        self.reqs.append(req)
        self.due_at.append(due)
        self.sent_at.append(time.perf_counter())
        if self.dead:
            return  # due but unsendable: stays unanswered, counts failed
        self._out += req.wire

    def flush(self) -> None:
        while self._out and not self.dead:
            try:
                sent = self.sock.send(self._out)
            except BlockingIOError:
                return
            except OSError:
                self.dead = True
                return
            self._out = self._out[sent:]

    def receive(self) -> None:
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return
        except OSError:
            self.dead = True
            return
        if not data:
            self.dead = True
            return
        self.buf += data
        self.chunk_ends.append(len(self.buf))
        self.chunk_times.append(time.perf_counter())
        if self.kind == "ndjson":
            self.answered += (self._tail + data).count(_ACK)
            self._tail = data[-(len(_ACK) - 1):]
        else:
            self._frame_http()

    def _frame_http(self) -> None:
        """Count complete HTTP responses (Content-Length framed)."""
        buf = self.buf
        while True:
            if self._http_end is None:
                head_end = buf.find(b"\r\n\r\n", self._http_pos)
                if head_end < 0:
                    return
                head = bytes(buf[self._http_pos:head_end]).lower()
                at = head.index(b"content-length:") + 15
                length = int(head[at:].split(b"\r\n", 1)[0])
                self._http_end = head_end + 4 + length
            if len(buf) < self._http_end:
                return
            self.http_ends.append(self._http_end)
            self.answered += 1
            self._http_pos = self._http_end
            self._http_end = None

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()

    # -- after timing ------------------------------------------------------------

    def _arrival(self, end_offset: int) -> float:
        index = bisect.bisect_left(self.chunk_ends, end_offset)
        return self.chunk_times[index]

    def answers(self) -> List[Answer]:
        """One :class:`Answer` per response received, in arrival order."""
        data = bytes(self.buf)
        out: List[Answer] = []
        if self.kind == "http":
            start = 0
            for end in self.http_ends:
                head_end = data.index(b"\r\n\r\n", start)
                head = data[start:head_end]
                status = int(head.split(b" ", 2)[1])
                body = data[head_end + 4:end]
                if b"application/json" in head.lower():
                    body = json.loads(body)
                out.append(Answer(status < 400, body, [],
                                  self._arrival(end), end - start))
                start = end
            return out
        pushes: List[dict] = []
        start = offset = 0
        for line in data.split(b"\n"):
            offset += len(line) + 1
            if not line:
                continue
            message = json.loads(line)
            if "push" in message:
                pushes.append(message)
                continue
            ok = bool(message.get("ok"))
            out.append(Answer(
                ok, message.get("result" if ok else "error"), pushes,
                self._arrival(offset - 1), offset - start,
                message.get("id"),
            ))
            pushes = []
            start = offset
        return out


class Loader:
    """Drives a set of channels from one thread."""

    def __init__(self, channels: Sequence[Channel]) -> None:
        self.channels = list(channels)
        # select() takes microsecond timeouts; epoll rounds them up to
        # whole milliseconds, which would make paced requests leave late.
        self.selector = selectors.SelectSelector()
        for channel in self.channels:
            if channel.sock is not None:
                self.selector.register(channel.sock, selectors.EVENT_READ,
                                       channel)

    def close(self) -> None:
        self.selector.close()
        for channel in self.channels:
            channel.close()

    def _pump(self, timeout: float) -> None:
        for channel in self.channels:
            if channel.sock is None or channel.dead:
                continue
            channel.flush()
            events = selectors.EVENT_READ
            if channel._out and not channel.dead:
                events |= selectors.EVENT_WRITE
            self.selector.modify(channel.sock, events, channel)
        for key, mask in self.selector.select(max(timeout, 0.0)):
            channel = key.data
            if mask & selectors.EVENT_READ:
                channel.receive()
            if mask & selectors.EVENT_WRITE:
                channel.flush()
        for channel in self.channels:
            if channel.dead and channel.sock is not None:
                self.selector.unregister(channel.sock)
                channel.close()
                channel.sock = None

    def closed_loop(self, sources: Sequence[Iterator[Req]],
                    windows: Sequence[int], seconds: float) -> dict:
        """Keep ``windows[i]`` requests in flight on channel ``i`` until
        ``seconds`` pass or the sources run dry. Returns the phase's
        span and the index of its first request per channel."""
        start = time.perf_counter()
        deadline = start + seconds
        first = [len(c.reqs) for c in self.channels]
        dry = [False] * len(self.channels)
        now = start
        while now < deadline:
            for i, channel in enumerate(self.channels):
                while (not channel.dead and not dry[i]
                       and channel.inflight < windows[i]):
                    req = next(sources[i], None)
                    if req is None:
                        dry[i] = True
                    else:
                        channel.queue(req)
            if all((dry[i] and c.inflight == 0) or c.dead
                   for i, c in enumerate(self.channels)):
                break
            self._pump(min(0.05, deadline - now))
            now = time.perf_counter()
        end = min(time.perf_counter(), deadline)
        return {"start": start, "end": end, "first": first}

    def open_loop(self, sources: Sequence[Iterator[Req]],
                  rates: Sequence[float], seconds: float) -> dict:
        """Offer ``rates[i]`` req/s on channel ``i`` for ``seconds``.
        Returns the first request index per channel and how late the
        generator sent each request (its lag)."""
        start = time.perf_counter() + 0.01
        counts = [int(rate * seconds) for rate in rates]
        first = [len(c.reqs) for c in self.channels]
        sent = [0] * len(self.channels)
        lags: List[float] = []
        while True:
            now = time.perf_counter()
            next_due = None
            for i, channel in enumerate(self.channels):
                while sent[i] < counts[i]:
                    due = start + sent[i] / rates[i]
                    if due > now:
                        next_due = due if next_due is None else min(
                            next_due, due)
                        break
                    req = next(sources[i], None)
                    if req is None:
                        counts[i] = sent[i]
                        break
                    channel.queue(req, due=due)
                    lags.append(now - due)
                    sent[i] += 1
            if next_due is None:
                break
            self._pump(max(0.0, next_due - time.perf_counter()))
        return {"first": first, "lags": lags}

    def drain(self, timeout: float) -> None:
        """Receive until every sent request is answered or ``timeout``;
        what is still unanswered then counts as failed."""
        deadline = time.perf_counter() + timeout
        while any(c.inflight > 0 and not c.dead for c in self.channels):
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return
            self._pump(min(0.1, remaining))
