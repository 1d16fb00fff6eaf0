"""The asyncio server: protocol behaviour over real sockets, admission
control, backpressure, and the graceful-drain zero-loss guarantee."""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.core import PhaseTracker
from repro.errors import ProtocolError
from repro.service import PhaseServiceClient, start_in_thread
from repro.service.server import PhaseService

BASE_A, BASE_B = 0x400000, 0x900000


def branch_batches(seed, batches, batch_size=300, interval=3_000):
    rng = np.random.default_rng(seed)
    out = []
    for index in range(batches):
        base = BASE_A if (index // 4) % 2 == 0 else BASE_B
        pcs = (base + rng.integers(0, 48, size=batch_size) * 4).tolist()
        counts = rng.integers(10, 60, size=batch_size).tolist()
        out.append((pcs, counts))
    return out


class RawConnection:
    """A bare socket speaking the protocol, for tests that need to
    pipeline requests without waiting for responses."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=15)
        self.reader = self.sock.makefile("rb")

    def send(self, payload):
        self.sock.sendall(json.dumps(payload).encode() + b"\n")

    def read_message(self):
        line = self.reader.readline()
        return json.loads(line) if line else None

    def read_until_eof(self):
        messages = []
        while True:
            message = self.read_message()
            if message is None:
                return messages
            messages.append(message)

    def close(self):
        self.reader.close()
        self.sock.close()


@pytest.fixture()
def service():
    handle = start_in_thread(max_sessions=8)
    yield handle
    handle.stop()


class TestRequestHandling:
    def test_ping_stats_and_session_cycle(self, service):
        with PhaseServiceClient(port=service.port) as client:
            assert client.ping()["protocol"] == 1
            name = client.open_session(interval_instructions=3_000)
            batches = branch_batches(seed=1, batches=6)
            total = 0
            for pcs, counts in batches:
                total += len(client.observe(name, pcs, counts, cpi=1.1))
            assert total > 0
            stats = client.stats()
            assert stats["live"] == 1 and stats["errors"] == 0
            summary = client.close_session(name)
            assert summary["intervals"] == total
            assert summary["branches"] == 6 * 300

    def test_service_stream_matches_local_tracker(self, service):
        batches = branch_batches(seed=2, batches=8)
        local = PhaseTracker(interval_instructions=3_000)
        with PhaseServiceClient(port=service.port) as client:
            name = client.open_session(interval_instructions=3_000)
            remote_reports, local_reports = [], []
            for pcs, counts in batches:
                remote_reports += client.observe(name, pcs, counts, cpi=1.2)
                local_reports += [
                    r.to_dict()
                    for r in local.observe_batch(pcs, counts, cpi=1.2)
                ]
        assert remote_reports == local_reports
        assert remote_reports

    def test_protocol_error_response_keeps_connection_alive(self, service):
        raw = RawConnection(service.port)
        raw.send({"op": "warp", "id": 5})
        message = raw.read_message()
        assert message["id"] == 5
        assert message["error"]["code"] == "protocol"
        raw.send({"op": "ping", "id": 6})          # still usable
        assert raw.read_message()["ok"] is True
        raw.close()

    def test_unparseable_id_gets_minus_one(self, service):
        raw = RawConnection(service.port)
        raw.send([1, 2, 3])
        message = raw.read_message()
        assert message["id"] == -1
        assert message["error"]["code"] == "protocol"
        raw.close()

    def test_unknown_session_and_duplicate_open(self, service):
        raw = RawConnection(service.port)
        raw.send({"op": "observe", "id": 1, "session": "ghost",
                  "pcs": [], "counts": []})
        assert raw.read_message()["error"]["code"] == "session_not_found"
        raw.send({"op": "open", "id": 2, "session": "dup"})
        assert raw.read_message()["ok"] is True
        raw.send({"op": "open", "id": 3, "session": "dup"})
        assert raw.read_message()["error"]["code"] == "session_exists"
        raw.close()

    def test_bad_open_config_is_a_protocol_error(self, service):
        """A config override the classifier refuses is the request's
        fault: wire code ``protocol``, not ``internal``."""
        with PhaseServiceClient(port=service.port) as client:
            for config in ({"num_counters": 3}, {"bogus": 1}):
                with pytest.raises(ProtocolError):
                    client.open_session("bad", config=config)
            # Nothing was admitted under the name.
            assert client.open_session("bad") == "bad"

    def test_overloaded_when_eviction_disabled(self):
        handle = start_in_thread(max_sessions=1, evict_lru=False)
        try:
            raw = RawConnection(handle.port)
            raw.send({"op": "open", "id": 1})
            assert raw.read_message()["ok"] is True
            raw.send({"op": "open", "id": 2})
            assert raw.read_message()["error"]["code"] == "overloaded"
            raw.close()
        finally:
            handle.stop()

    def test_pushes_precede_the_observe_ack(self, service):
        raw = RawConnection(service.port)
        raw.send({"op": "open", "id": 1, "session": "s",
                  "interval_instructions": 1000})
        raw.read_message()
        raw.send({"op": "observe", "id": 2, "session": "s",
                  "pcs": [4096] * 60, "counts": [40] * 60})
        messages = [raw.read_message() for _ in range(3)]
        assert [m.get("push") for m in messages[:-1]] == ["interval"] * 2
        ack = messages[-1]
        assert ack["id"] == 2 and ack["result"]["intervals"] == 2
        raw.close()


class TestAdmissionControl:
    def test_connection_cap_closes_surplus_sockets(self):
        handle = start_in_thread(max_connections=1)
        try:
            keeper = RawConnection(handle.port)
            keeper.send({"op": "ping", "id": 1})
            assert keeper.read_message()["ok"] is True
            surplus = RawConnection(handle.port)
            # The server closes the surplus socket without a response.
            assert surplus.read_message() is None
            assert handle.service.connections_refused >= 1
            surplus.close()
            keeper.close()
        finally:
            handle.stop()


class TestBackpressure:
    def test_tiny_queue_still_processes_everything(self):
        handle = start_in_thread(queue_size=1)
        try:
            batches = branch_batches(seed=3, batches=20, batch_size=100)
            with PhaseServiceClient(port=handle.port) as client:
                name = client.open_session(interval_instructions=2_000)
                intervals = 0
                for pcs, counts in batches:
                    intervals += len(client.observe(name, pcs, counts))
                summary = client.close_session(name)
            assert summary["branches"] == 20 * 100
            assert summary["intervals"] == intervals > 0
        finally:
            handle.stop()


class TestGracefulDrain:
    def test_queued_requests_classify_and_flush_before_close(self):
        """The zero-loss/zero-duplication guarantee: pipeline many
        observe requests, shut down while they are queued, and verify
        the pushed interval stream equals a local tracker fed exactly
        the acknowledged batches — nothing lost, nothing classified
        twice. A snapshot taken post-drain via a fresh service restore
        must also continue identically."""
        handle = start_in_thread(queue_size=64)
        batches = branch_batches(seed=4, batches=30)
        raw = RawConnection(handle.port)
        raw.send({"op": "open", "id": 0, "session": "drainee",
                  "interval_instructions": 3000})
        assert raw.read_message()["ok"] is True

        # Pipeline every batch without reading responses, then shut
        # down concurrently so the drain races live queue contents.
        for index, (pcs, counts) in enumerate(batches):
            raw.send({"op": "observe", "id": index + 1, "session":
                      "drainee", "pcs": pcs, "counts": counts,
                      "cpi": 1.0})
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        messages = raw.read_until_eof()
        stopper.join()
        raw.close()

        acked, refused, pushes = set(), set(), []
        for message in messages:
            if message.get("push") == "interval":
                pushes.append(message["report"])
            elif message.get("ok"):
                acked.add(message["id"])
            else:
                refused.add(message["id"])

        # Responses are FIFO: every acknowledged batch precedes any
        # refused one, and none is both.
        assert acked and not (acked & refused)
        if refused:
            assert max(acked) < min(refused)

        # Replay exactly the acknowledged batches locally: the pushed
        # interval stream must match it one-for-one.
        local = PhaseTracker(interval_instructions=3000)
        expected = []
        for index in sorted(acked):
            pcs, counts = batches[index - 1]
            expected += [
                r.to_dict()
                for r in local.observe_batch(pcs, counts, cpi=1.0)
            ]
        assert pushes == expected

    def test_new_connections_refused_while_stopped(self):
        handle = start_in_thread()
        port = handle.port
        handle.stop()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=2)

    def test_shutdown_is_idempotent(self):
        handle = start_in_thread()
        handle.stop()
        handle.stop()


class TestIdleSweep:
    def test_idle_sessions_are_swept_in_the_background(self):
        handle = start_in_thread(idle_ttl=0.2, sweep_interval=0.05)
        try:
            with PhaseServiceClient(port=handle.port) as client:
                client.open_session(session="sleepy")
                assert client.stats()["live"] == 1
                deadline = time.time() + 5
                while time.time() < deadline:
                    if client.stats()["expired"] == 1:
                        break
                    time.sleep(0.05)
                stats = client.stats()
                assert stats["live"] == 0 and stats["expired"] == 1
        finally:
            handle.stop()


class TestConstruction:
    def test_invalid_parameters(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            PhaseService(max_connections=0)
        with pytest.raises(ConfigurationError):
            PhaseService(queue_size=0)
