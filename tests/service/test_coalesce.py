"""Coalesced ingest rounds — the service's only observe path — must
answer byte-identically to a scalar-tracker oracle, including pool +
persistence + mid-stream evict/hydrate churn and foreign-config
fallbacks mixed into rounds; protocol ordering (pushes before acks,
responses in request order) must hold under interleaved
multi-connection load; and an observe arriving with no round
scheduler running must be refused, not stranded."""

import asyncio
import json
import socket

import numpy as np

from repro.service import PhaseServiceClient, protocol
from repro.service.coalesce import Submission
from repro.service.server import PhaseService, start_in_thread
from repro.telemetry import Telemetry, parse_prometheus_text
from tests.service.wire_oracle import expected_stream, replay

BASE = 0x40000


def observe_plan(seed, observes, records=60, spread=24):
    """Deterministic per-session observe payloads: (pcs, counts, cpi)."""
    rng = np.random.default_rng(seed)
    out = []
    for index in range(observes):
        base = BASE + (0x9000 if (index // 5) % 2 else 0)
        pcs = (base + rng.integers(0, spread, size=records) * 4).tolist()
        counts = rng.integers(10, 60, size=records).tolist()
        out.append((pcs, counts, 1.0 + 0.2 * (index % 4)))
    return out


def connection_requests(session, seed, observes, config=None):
    """The full pipelined request list for one connection."""
    requests = [{
        "op": "open", "id": 1, "session": session,
        "interval_instructions": 2_000,
    }]
    if config is not None:
        requests[0]["config"] = config
    for index, (pcs, counts, cpi) in enumerate(
        observe_plan(seed, observes)
    ):
        requests.append({
            "op": "observe", "id": 2 + index, "session": session,
            "pcs": pcs, "counts": counts, "cpi": cpi,
        })
    requests.append({
        "op": "close", "id": 2 + observes, "session": session,
    })
    return requests


def drive(port, plans):
    """Pipeline each plan's requests down its own connection — all
    connections' writes land before any reads, so the server sees
    genuinely interleaved multi-connection load — then read each
    stream until every request is answered. Returns the raw response
    bytes per connection (the byte-identity unit)."""
    socks = []
    for requests in plans:
        sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        payload = b"".join(
            json.dumps(request).encode() + b"\n" for request in requests
        )
        sock.sendall(payload)
        socks.append(sock)
    streams = []
    for sock, requests in zip(socks, plans):
        reader = sock.makefile("rb")
        lines = []
        answered = 0
        while answered < len(requests):
            line = reader.readline()
            assert line, "connection closed before all responses"
            lines.append(line)
            if "id" in json.loads(line):
                answered += 1
        reader.close()
        sock.close()
        streams.append(b"".join(lines))
    return streams


def run_workload(plans, **service_kwargs):
    handle = start_in_thread(**service_kwargs)
    try:
        streams = drive(handle.port, plans)
        stats = handle.service._coalescer.stats()
    finally:
        handle.stop()
    return streams, stats


FOREIGN_CONFIG = {"num_counters": 8, "table_entries": 16}


def observe_count(plans):
    return sum(
        1 for plan in plans for request in plan
        if request["op"] == "observe"
    )


class TestByteIdentity:
    def compare(self, plans, **kwargs):
        streams, stats = run_workload(plans, **kwargs)
        for stream, plan in zip(streams, plans):
            assert stream == expected_stream(plan)
        assert stats["requests"] == observe_count(plans)
        assert stats["rounds"] >= 1

    def test_pooled_sessions_match_reference(self):
        plans = [
            connection_requests(f"s{index}", seed=index, observes=12)
            for index in range(6)
        ]
        self.compare(plans, max_sessions=16, pool_slots=16)

    def test_persistence_evict_hydrate_churn(self, tmp_path):
        # 8 sessions through a 3-session table: every round mixes
        # hydrations and evict-to-disk with the fused pass, including
        # sessions whose pool slot disappears mid-round.
        plans = [
            connection_requests(f"d{index}", seed=10 + index, observes=10)
            for index in range(8)
        ]
        self.compare(
            plans, max_sessions=3, pool_slots=3,
            data_dir=str(tmp_path / "data"),
        )

    def test_foreign_config_fallback_mixed_into_rounds(self):
        # Odd sessions carry a non-default config, so they get scalar
        # trackers (no pool slot) and must take the per-session path
        # inside coalesced rounds — byte-identically.
        plans = [
            connection_requests(
                f"m{index}", seed=20 + index, observes=10,
                config=FOREIGN_CONFIG if index % 2 else None,
            )
            for index in range(6)
        ]
        self.compare(plans, max_sessions=8, pool_slots=8)

    def test_no_pool_still_matches(self):
        # Without --pool-slots every session falls back to its own
        # tracker: the scheduler is pure overhead but must stay correct.
        plans = [
            connection_requests(f"n{index}", seed=30 + index, observes=6)
            for index in range(3)
        ]
        self.compare(plans, max_sessions=4)


def run_round(service, plan):
    """Feed ``plan`` (observe request dicts) to the service's round
    executor as one hand-built round; returns each submission's
    resolved payloads."""
    loop = asyncio.new_event_loop()
    try:
        submissions = [
            Submission(
                protocol.parse_request(json.dumps(request)),
                loop.create_future(),
            )
            for request in plan
        ]
        service._coalesce_round(submissions)
        return [submission.future.result() for submission in submissions]
    finally:
        loop.close()


class TestRoundExecutor:
    def test_hand_built_multi_session_rounds_match_oracle(self, tmp_path):
        """Rounds mixing pooled sessions, a foreign-config scalar
        session and sessions hydrated and evicted mid-round, fed
        straight to the round executor: every submission must resolve
        to the oracle's answer. A 4-session table serves 5 sessions.

        Round 1 hydrates on-disk ``p0`` (evicting the untouched
        ``idle``) and takes both paths: ``f`` per-session, the pooled
        sessions fused. Round 2 hydrates ``idle`` after ``f`` was
        looked up, evicting ``f`` mid-round; re-hydrating it evicts a
        pooled session, so the stale-handle demotion moves the rest of
        the round to the per-session path.
        """
        telemetry = Telemetry()
        service = PhaseService(
            max_sessions=4, pool_slots=4,
            data_dir=str(tmp_path / "data"), telemetry=telemetry,
        )
        configs = {
            "p0": None, "idle": None, "p1": None, "f": FOREIGN_CONFIG,
            "p2": None,
        }
        opens = []
        for index, (name, config) in enumerate(configs.items()):
            opens.append({
                "op": "open", "id": index, "session": name,
                "interval_instructions": 2_000,
            })
            if config is not None:
                opens[-1]["config"] = config
        streams = {
            name: iter(observe_plan(seed=70 + index, observes=4))
            for index, name in enumerate(configs)
        }
        next_id = iter(range(100, 1_000))

        def observes(names):
            plan = []
            for name in names:
                pcs, counts, cpi = next(streams[name])
                plan.append({
                    "op": "observe", "id": next(next_id), "session": name,
                    "pcs": pcs, "counts": counts, "cpi": cpi,
                })
            return plan

        round_one = observes(["p1", "f", "p2", "p0"] * 2)
        round_two = observes(["f", "p0", "p1", "p2", "idle"])
        expected = replay(opens + round_one + round_two)

        def fallbacks():
            metrics = parse_prometheus_text(telemetry.render_metrics())
            return metrics["repro_service_coalesce_fallbacks_total"]

        try:
            for request, answer in zip(opens, expected):
                assert service._execute(protocol.OpenRequest(
                    id=request["id"], session=request["session"],
                    config=request.get("config"),
                    interval_instructions=2_000, snapshot=None,
                )) == answer
            assert service.registry.stats()["evicted_saved"] == 1  # p0

            answers = run_round(service, round_one)
            assert answers == expected[len(opens):][:len(round_one)]
            assert fallbacks() == 2  # f's two observes; the rest fused
            assert service.registry.stats()["evicted_saved"] == 2  # idle

            answers = run_round(service, round_two)
            assert answers == expected[len(opens) + len(round_one):]
            assert fallbacks() == 2 + len(round_two)
            assert service.registry.stats()["evicted_saved"] > 3
        finally:
            service.persistence.close()


async def observe_now(service, request):
    return await asyncio.wait_for(
        service.execute_observe(request), timeout=5
    )


class TestShutdown:
    def test_execute_observe_without_scheduler_is_refused(self):
        handle = start_in_thread(max_sessions=4, pool_slots=4)
        with PhaseServiceClient(port=handle.port) as client:
            client.open_session(session="late", interval_instructions=2_000)
        handle.stop()
        request = protocol.ObserveRequest(
            id=7, session="late", pcs=[BASE], counts=[10], cpi=1.0,
        )
        # After stop() the scheduler is gone: a typed refusal, no hang.
        (payload,) = asyncio.run(observe_now(handle.service, request))
        assert payload["id"] == 7 and payload["ok"] is False
        assert payload["error"]["code"] == "shutting_down"
        # A never-started service answers the same way.
        (payload,) = asyncio.run(observe_now(PhaseService(), request))
        assert payload["error"]["code"] == "shutting_down"


class TestOrdering:
    def test_pushes_precede_acks_in_request_order(self):
        plans = [
            connection_requests(f"o{index}", seed=40 + index, observes=12)
            for index in range(5)
        ]
        handle = start_in_thread(max_sessions=8, pool_slots=8)
        try:
            streams = drive(handle.port, plans)
        finally:
            handle.stop()
        for stream, plan in zip(streams, plans):
            session = plan[0]["session"]
            op_by_id = {request["id"]: request["op"] for request in plan}
            expected_ids = [request["id"] for request in plan]
            seen_ids = []
            pushes_since_ack = 0
            for line in stream.splitlines():
                message = json.loads(line)
                if "push" in message:
                    assert message["push"] == "interval"
                    assert message["session"] == session
                    pushes_since_ack += 1
                    continue
                seen_ids.append(message["id"])
                assert message["ok"] is True
                if op_by_id[message["id"]] == "observe":
                    # An observe's pushes all precede its ack, and the
                    # ack counts exactly those pushes.
                    assert (
                        message["result"]["intervals"] == pushes_since_ack
                    )
                else:
                    # open/close acks never have stray pushes pending.
                    assert pushes_since_ack == 0
                pushes_since_ack = 0
            assert seen_ids == expected_ids

    def test_non_observe_requests_are_barriers(self):
        # A snapshot pipelined mid-stream must observe all earlier
        # ingest and none of the later: its tracker state (and the
        # whole stream) equals the oracle's.
        session = "barrier"
        plan = connection_requests(session, seed=50, observes=8)
        snapshot_request = {
            "op": "snapshot", "id": 100, "session": session,
        }
        plan = plan[:5] + [snapshot_request] + plan[5:]
        handle = start_in_thread(max_sessions=4, pool_slots=4)
        try:
            (stream,) = drive(handle.port, [plan])
        finally:
            handle.stop()
        assert stream == expected_stream(plan)
        assert b'"id":100,"ok":true' in stream


class TestDiagnostics:
    def test_coalesce_section_reports_scheduler_stats(self):
        plans = [connection_requests("diag", seed=60, observes=5)]
        handle = start_in_thread(max_sessions=4, pool_slots=4)
        try:
            drive(handle.port, plans)
            diagnostics = handle.service.diagnostics()
        finally:
            handle.stop()
        section = diagnostics["coalesce"]
        assert set(section) == {
            "rounds", "requests", "max_round_size", "mean_round_size",
            "pending",
        }
        assert section["requests"] == 5
        assert section["rounds"] >= 1
        assert section["pending"] == 0

    def test_section_present_without_pool(self):
        # Every service coalesces, pool or not: the section is always
        # there, zeroed before any observe.
        handle = start_in_thread(max_sessions=4)
        try:
            section = handle.service.diagnostics()["coalesce"]
        finally:
            handle.stop()
        assert section["rounds"] == section["requests"] == 0
        assert section["pending"] == 0
