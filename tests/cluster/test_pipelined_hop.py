"""The dispatcher hop is pipelined: a client's queued requests reach
each worker in one write, so the worker coalesces them into multi-
request rounds. The client must not be able to tell: streams stay byte-
identical to the scalar oracle (and to a single-process service), also
when a migration lands in the middle of a pipelined batch and when
lines miss the dispatcher's fast-path router."""

import asyncio
import json
import socket
import threading
import time

import numpy as np

from repro.cluster import start_cluster_in_thread
from repro.cluster.dispatcher import _WorkerChannel
from repro.errors import ClusterError, ReproError
from repro.service import PhaseServiceClient, protocol, start_in_thread
from tests.service.wire_oracle import expected_stream

INTERVAL = 2_000


def observe_body(rng, index):
    base = 0x40000 + (0x9000 if (index // 3) % 2 else 0)
    return {
        "pcs": (base + rng.integers(0, 24, size=60) * 4).tolist(),
        "counts": rng.integers(10, 60, size=60).tolist(),
        "cpi": 1.0 + 0.25 * (index % 3),
    }


def fleet_plan(sessions, observes_per_session, seed, extras=()):
    """Open every session, round-robin its observes (``extras`` maps a
    position in the observe sequence to extra requests inserted
    there), then close every session."""
    rng = np.random.default_rng(seed)
    plan = []

    def add(op, session, **fields):
        plan.append({"op": op, "id": len(plan) + 1, "session": session,
                     **fields})

    for name in sessions:
        add("open", name, interval_instructions=INTERVAL)
    extras = dict(extras)
    for index in range(observes_per_session * len(sessions)):
        for op, name in extras.get(index, ()):
            add(op, name)
        add("observe", sessions[index % len(sessions)],
            **observe_body(rng, index))
    for name in sessions:
        add("close", name)
    return plan


def pipeline(port, payload, answers=None, progress=None):
    """Send ``payload`` from a thread while reading the responses here,
    so neither side's socket buffer can stall the other. Reads until
    ``answers`` responses arrived, or to EOF after a half-close when
    ``answers`` is None. ``progress[0]`` counts responses read."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=60)

    def send():
        sock.sendall(payload)
        if answers is None:
            sock.shutdown(socket.SHUT_WR)

    sender = threading.Thread(target=send)
    sender.start()
    reader = sock.makefile("rb")
    lines, answered = [], 0
    while answers is None or answered < answers:
        line = reader.readline()
        if not line:
            assert answers is None, "connection closed before all answers"
            break
        lines.append(line)
        if "id" in json.loads(line):
            answered += 1
            if progress is not None:
                progress[0] = answered
    sender.join(timeout=60)
    assert not sender.is_alive()
    reader.close()
    sock.close()
    return b"".join(lines)


def encode_plan(plan):
    return b"".join(json.dumps(request).encode() + b"\n" for request in plan)


def worker_coalesce(cluster, worker_id):
    channel = cluster.dispatcher.control_channel(worker_id)
    diagnostics = cluster.run_control(channel.request(
        protocol.ClusterRequest(id=channel.next_id(), action="diagnostics"),
        resendable=True,
    ))
    return diagnostics["coalesce"]


def test_pipelined_batch_reaches_the_worker_as_rounds(tmp_path):
    """64 observes over 8 sessions (plus a predict and a snapshot), all
    pipelined on one connection into a 1-worker cluster: the stream is
    the oracle's, and the worker ran them in fewer rounds than
    requests — which a one-request-at-a-time hop cannot produce."""
    sessions = [f"p{index}" for index in range(8)]
    plan = fleet_plan(
        sessions, observes_per_session=8, seed=3,
        extras={20: [("predict", "p4")], 41: [("snapshot", "p1")]},
    )
    observes = sum(request["op"] == "observe" for request in plan)
    assert observes == 64
    with start_cluster_in_thread(
        workers=1, runtime_dir=str(tmp_path / "rt")
    ) as cluster:
        stream = pipeline(cluster.port, encode_plan(plan), len(plan))
        (worker_id,) = cluster.dispatcher.shard_map.workers
        coalesce = worker_coalesce(cluster, worker_id)
    assert stream == expected_stream(plan)
    assert coalesce["requests"] == observes
    assert coalesce["rounds"] < coalesce["requests"]


def test_pipelined_batch_spanning_a_migration_is_byte_identical(tmp_path):
    """A second connection live-migrates one session back and forth
    between two workers while its observes sit in a pipelined batch:
    requests behind the gate wait, the rest flow, and the stream still
    equals the oracle's."""
    sessions = [f"m{index}" for index in range(6)]
    victim = sessions[2]
    plan = fleet_plan(sessions, observes_per_session=30, seed=4)
    # A close reports the branches seen since the session's last open,
    # and a migration re-opens it on the target: leave the victim open.
    plan = [
        request for request in plan
        if (request["op"], request["session"]) != ("close", victim)
    ]
    observed = sum(request["op"] != "close" for request in plan)
    progress = [0]
    mid_stream, failures = [], []

    # A migration that cannot quiesce fails after migration_timeout;
    # every one here must succeed.
    with start_cluster_in_thread(
        workers=2, runtime_dir=str(tmp_path / "rt"), num_shards=16,
        migration_timeout=5.0,
    ) as cluster:
        dispatcher = cluster.dispatcher
        workers = list(dispatcher.shard_map.workers)

        def migrate_back_and_forth():
            with PhaseServiceClient(
                port=cluster.port, timeout=60.0
            ) as control:
                while progress[0] < len(sessions):  # opens first
                    time.sleep(0.001)
                while progress[0] < observed:
                    source = dispatcher._sessions.get(victim)
                    target = next(w for w in workers if w != source)
                    try:
                        control.cluster(
                            "migrate", session=victim, worker=target
                        )
                    except ReproError as error:
                        failures.append(error)
                        break
                    mid_stream.append(progress[0])

        mover = threading.Thread(target=migrate_back_and_forth)
        mover.start()
        stream = pipeline(
            cluster.port, encode_plan(plan), len(plan), progress
        )
        mover.join(timeout=120)
        assert not mover.is_alive()
    assert failures == []
    assert stream == expected_stream(plan)
    assert any(
        len(sessions) < done < observed for done in mid_stream
    ), f"no migration landed mid-batch: {mid_stream}"


def test_lines_the_fast_router_misses_are_forwarded_as_sent(tmp_path):
    """Keys in another order and escaped session names miss the
    dispatcher's regex router; the last line, which the router does
    take, has no newline before EOF. The cluster must answer all of
    them byte for byte like a single process does."""
    rng = np.random.default_rng(9)
    body = [json.dumps(observe_body(rng, index))[1:-1]
            for index in range(4)]
    lines = [
        '{"id":1,"op":"open","session":"caf\\u00e9","interval_'
        'instructions":2000}',
        '{"op":"open","id":2,"session":"a\\/b","interval_instructions":'
        '2000}',
        '{"session":"caf\\u00e9","op":"observe","id":3,' + body[0] + '}',
        '{"op":"observe","id":4,"session":"a\\/b",' + body[1] + '}',
        '{"op":"observe","id":5,"session":"caf\\u00e9",' + body[2] + '}',
        '{"id":6,"op":"predict","session":"a\\/b"}',
        '{"session":"caf\\u00e9","id":7,"op":"snapshot"}',
        '{"op":"observe","session":"a\\/b","id":8,' + body[3] + '}',
        '{"op":"close","session":"caf\\u00e9","id":9}',
        '{"op":"predict","session":"nobody","id":10}',
        '{"op":"close","id":11,"session":"a\\/b"}',
        '{"op":"open","id":12,"session":"plain"}',
        '{"op":"close","id":13,"session":"plain"}',
    ]
    payload = "\n".join(lines).encode()  # no newline after the last
    with start_in_thread(max_sessions=8) as handle:
        single = pipeline(handle.port, payload)
    with start_cluster_in_thread(
        workers=2, runtime_dir=str(tmp_path / "rt"), num_shards=16
    ) as cluster:
        clustered = pipeline(cluster.port, payload)
    assert clustered == single
    answers = [json.loads(line) for line in single.splitlines()]
    responses = [answer for answer in answers if "id" in answer]
    assert [answer["id"] for answer in responses] == list(range(1, 14))
    assert [answer["ok"] for answer in responses] == [True] * 9 + [
        False, True, True, True,
    ]
    assert any("push" in answer for answer in answers)


def test_channel_retries_only_lines_whose_response_was_not_read(tmp_path):
    """A worker connection drops after answering the first of four
    pipelined lines: that answer is kept, the mutating second line
    fails with ``cluster`` (it may have run), and only the read-only
    third and fourth are sent again, on a fresh connection."""
    path = str(tmp_path / "worker.sock")
    lines = [
        json.dumps({"op": op, "id": index + 1, "session": "s"}).encode()
        + b"\n"
        for index, op in enumerate(
            ["observe", "close", "predict", "snapshot"]
        )
    ]
    received = []

    def answer(line):
        return b'{"id":%d,"ok":true,"result":{}}\n' % json.loads(line)["id"]

    async def handle(reader, writer):
        received.append([])
        first = len(received) == 1
        while len(received[-1]) < (4 if first else 2):
            received[-1].append(await reader.readline())
        if first:  # answer line 1, then die with the rest unanswered
            writer.write(b'{"push":"interval","session":"s","report":{}}\n'
                         + answer(received[-1][0]))
        else:
            writer.write(b"".join(answer(line) for line in received[-1]))
        await writer.drain()
        writer.close()

    async def scenario():
        server = await asyncio.start_unix_server(handle, path)
        channel = _WorkerChannel("w0", path, retry_window=10.0)
        delivered = []
        try:
            await asyncio.wait_for(channel.exchange(
                lines, [False, False, True, True],
                lambda index, reply: delivered.append((index, reply)),
            ), timeout=30)
        finally:
            await channel.close()
            server.close()
            await server.wait_closed()
        return delivered

    delivered = asyncio.run(scenario())
    assert sorted(index for index, _ in delivered) == [0, 1, 2, 3]
    replies = dict(delivered)
    assert replies[0] == (
        [b'{"push":"interval","session":"s","report":{}}\n'],
        answer(lines[0]),
    )
    assert isinstance(replies[1], ClusterError)
    assert "fate on the worker is unknown" in str(replies[1])
    assert replies[2] == ([], answer(lines[2]))
    assert replies[3] == ([], answer(lines[3]))
    assert received == [lines, lines[2:]]
