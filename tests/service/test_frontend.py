"""The NDJSON front-end contract, held by both front ends.

A single :class:`~repro.service.server.PhaseService` and a 1-worker
:class:`~repro.cluster.dispatcher.ClusterDispatcher` must behave the
same at the connection level: line limits, blank and newline-less
lines, the connection cap, refusal of new work while draining, and a
shutdown that answers every request already queued.

Each front end is started once per module. The last test drains and
stops it, so it stays last in this file.
"""

import asyncio
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.cluster import start_cluster_in_thread
from repro.service import protocol, start_in_thread
from tests.service.wire_oracle import expected_stream

MAX_CONNECTIONS = 3
INTERVAL = 2_000


@pytest.fixture(scope="module", params=["service", "cluster"])
def hosted(request, tmp_path_factory):
    """``(handle, front end)`` for one running front end."""
    if request.param == "service":
        handle = start_in_thread(max_connections=MAX_CONNECTIONS)
        front = handle.service
    else:
        handle = start_cluster_in_thread(
            workers=1, max_connections=MAX_CONNECTIONS,
            runtime_dir=str(tmp_path_factory.mktemp("rt")),
        )
        front = handle.dispatcher
    yield handle, front
    handle.stop()


@pytest.fixture()
def front(hosted):
    """The module's front end, once every earlier test's connections
    are gone (closing is asynchronous on the server side)."""
    handle, front = hosted
    deadline = time.monotonic() + 10
    while front._connections and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not front._connections
    return handle, front


def on_loop(handle, coroutine):
    """Run ``coroutine`` on the front end's event loop."""
    return asyncio.run_coroutine_threadsafe(
        coroutine, handle._loop
    ).result(30)


class Raw:
    """A bare client socket that reads the server's lines."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.reader = self.sock.makefile("rb")

    def send(self, data):
        self.sock.sendall(data)

    def request(self, **payload):
        self.send(json.dumps(payload).encode() + b"\n")
        return json.loads(self.reader.readline())

    def readline(self):
        return self.reader.readline()

    def lines_until_eof(self):
        return list(iter(self.reader.readline, b""))

    def close(self):
        self.reader.close()
        self.sock.close()


def observe_plan(session, count, seed):
    rng = np.random.default_rng(seed)
    plan = [{"op": "open", "id": 1, "session": session,
             "interval_instructions": INTERVAL}]
    for index in range(count):
        base = 0x40000 + (0x9000 if (index // 3) % 2 else 0)
        plan.append({
            "op": "observe", "id": index + 2, "session": session,
            "pcs": (base + rng.integers(0, 24, size=60) * 4).tolist(),
            "counts": rng.integers(10, 60, size=60).tolist(),
            "cpi": 1.0,
        })
    return plan


def encode(plan):
    return b"".join(json.dumps(request).encode() + b"\n" for request in plan)


def test_oversize_line_gets_one_protocol_error_then_close(front):
    handle, _ = front
    raw = Raw(handle.port)
    # One byte past the limit and no newline: the front end has read
    # every byte when it refuses, so nothing is left unread at close.
    sender = threading.Thread(
        target=raw.send, args=(b"x" * (protocol.MAX_LINE_BYTES + 1),)
    )
    sender.start()
    lines = raw.lines_until_eof()
    sender.join(timeout=30)
    raw.close()
    assert len(lines) == 1
    message = json.loads(lines[0])
    assert message["id"] == -1 and message["ok"] is False
    assert message["error"]["code"] == "protocol"


def test_blank_lines_are_ignored(front):
    handle, _ = front
    raw = Raw(handle.port)
    raw.send(b"\n\n" + encode([{"op": "ping", "id": 1}])
             + b"   \n\r\n" + encode([{"op": "ping", "id": 2}]) + b"\n")
    raw.sock.shutdown(socket.SHUT_WR)
    messages = [json.loads(line) for line in raw.lines_until_eof()]
    raw.close()
    assert [message["id"] for message in messages] == [1, 2]
    assert all(message["ok"] for message in messages)


def test_newline_less_last_line_is_answered(front):
    handle, _ = front
    raw = Raw(handle.port)
    raw.send(encode([{"op": "open", "id": 1, "session": "tail"}])
             + b'{"op":"close","id":2,"session":"tail"}')
    raw.sock.shutdown(socket.SHUT_WR)
    messages = [json.loads(line) for line in raw.lines_until_eof()]
    raw.close()
    assert [message["id"] for message in messages] == [1, 2]
    assert all(message["ok"] for message in messages)
    assert messages[1]["result"]["session"] == "tail"


def test_connection_beyond_the_cap_is_closed(front):
    handle, front_end = front
    refused = front_end.connections_refused
    keepers = [Raw(handle.port) for _ in range(MAX_CONNECTIONS)]
    try:
        for index, keeper in enumerate(keepers):
            assert keeper.request(op="ping", id=index)["ok"] is True
        surplus = Raw(handle.port)
        assert surplus.readline() == b""  # closed without a response
        surplus.close()
        assert front_end.connections_refused == refused + 1
        # The admitted connections keep working.
        assert keepers[0].request(op="ping", id=99)["ok"] is True
    finally:
        for keeper in keepers:
            keeper.close()


def test_drain_refuses_new_work_and_answers_every_queued_request(front):
    """Must stay the last test: it drains and stops the front end."""
    handle, front_end = front
    plan = observe_plan("drainee", count=20, seed=5)
    worker = Raw(handle.port)
    assert worker.request(**plan[0])["ok"] is True
    prober = Raw(handle.port)
    assert prober.request(op="ping", id=1)["result"]["draining"] is False

    # Queue observes without reading, then start draining with a grace
    # long enough that only the direct shutdown below stops the front
    # end.
    worker.send(encode(plan[1:]))

    async def begin_drain():
        front_end.begin_drain(grace=60.0)

    on_loop(handle, begin_drain())
    assert front_end.draining
    ping = prober.request(op="ping", id=2)
    assert ping["ok"] is True and ping["result"]["draining"] is True
    assert prober.request(op="stats", id=3)["ok"] is True
    for request in (
        {"op": "observe", "id": 4, "session": "drainee",
         "pcs": [4096], "counts": [10]},
        {"op": "open", "id": 5, "session": "late"},
    ):
        answer = prober.request(**request)
        assert answer["id"] == request["id"]
        assert answer["error"]["code"] == "shutting_down"

    stopper = threading.Thread(target=handle.stop)
    stopper.start()
    lines = worker.lines_until_eof()
    assert prober.lines_until_eof() == []
    stopper.join(timeout=60)
    assert not stopper.is_alive()
    worker.close()
    prober.close()

    # Every queued observe is answered exactly once, in order: those
    # read before the drain began are executed (their stream is the
    # oracle's), the rest are refused as shutting down.
    answers = [json.loads(line) for line in lines if b'"id"' in line[:6]]
    assert [answer["id"] for answer in answers] == [
        request["id"] for request in plan[1:]
    ]
    acked = 0
    while acked < len(answers) and answers[acked]["ok"]:
        acked += 1
    assert all(
        answer["error"]["code"] == "shutting_down"
        for answer in answers[acked:]
    )
    served = b"".join(lines[:len(lines) - (len(answers) - acked)])
    assert served == expected_stream(plan[:acked + 1])[
        len(expected_stream(plan[:1])):
    ]
