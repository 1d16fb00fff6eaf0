"""The NDJSON wire protocol: encoding, parsing, validation, errors."""

import json

import pytest

from repro.errors import (
    ProtocolError,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
    SessionExistsError,
    SessionNotFoundError,
    SnapshotError,
)
from repro.service import protocol


def encode_line(payload):
    return json.dumps(payload).encode() + b"\n"


class TestParseRequest:
    def test_ping_and_stats(self):
        request = protocol.parse_request(b'{"op":"ping","id":7}')
        assert isinstance(request, protocol.PingRequest)
        assert request.id == 7
        request = protocol.parse_request('{"op":"stats","id":8}')
        assert isinstance(request, protocol.StatsRequest)

    def test_open_full(self):
        request = protocol.parse_request(encode_line({
            "op": "open", "id": 1, "session": "s1",
            "config": {"num_counters": 32},
            "interval_instructions": 5000,
        }))
        assert isinstance(request, protocol.OpenRequest)
        assert request.session == "s1"
        assert request.config == {"num_counters": 32}
        assert request.interval_instructions == 5000
        assert request.snapshot is None

    def test_open_minimal_lets_server_choose_name(self):
        request = protocol.parse_request('{"op":"open","id":2}')
        assert request.session is None
        assert request.config is None

    def test_open_snapshot_excludes_config(self):
        with pytest.raises(ProtocolError):
            protocol.parse_request(encode_line({
                "op": "open", "id": 3, "snapshot": {"version": 1},
                "config": {"num_counters": 16},
            }))

    def test_observe_round_trip(self):
        request = protocol.parse_request(encode_line({
            "op": "observe", "id": 4, "session": "s1",
            "pcs": [4096, 4100], "counts": [10, 20], "cpi": 1.5,
        }))
        assert isinstance(request, protocol.ObserveRequest)
        assert request.pcs == [4096, 4100]
        assert request.counts == [10, 20]
        assert request.cpi == 1.5

    def test_observe_defaults_cpi_to_one(self):
        request = protocol.parse_request(encode_line({
            "op": "observe", "id": 5, "session": "s1",
            "pcs": [], "counts": [],
        }))
        assert request.cpi == 1.0

    @pytest.mark.parametrize("mutation", [
        {"pcs": [1, 2], "counts": [3]},          # length mismatch
        {"pcs": [1.5], "counts": [3]},           # float pc
        {"pcs": [True], "counts": [3]},          # bool is not an int
        {"pcs": [-4], "counts": [3]},            # negative pc
        {"pcs": [4], "counts": [-1]},            # negative count
        {"pcs": "xs", "counts": [3]},            # not a list
        {"pcs": [4], "counts": [3], "cpi": 0},   # non-positive cpi
        {"pcs": [4], "counts": [3], "cpi": True},
        {"pcs": [2**64], "counts": [3]},         # beyond int64
        {"pcs": [2**63], "counts": [3]},
        {"pcs": [4], "counts": [2**63]},
        {"pcs": [4, None], "counts": [3, 3]},    # null entry
        {"pcs": [4], "counts": [3], "cpi": float("nan")},
        {"pcs": [4], "counts": [3], "cpi": float("inf")},
        {"pcs": [4], "counts": [3], "cpi": 10**400},  # overflows float
    ])
    def test_observe_validation(self, mutation):
        payload = {"op": "observe", "id": 6, "session": "s1",
                   "pcs": [4], "counts": [4]}
        payload.update(mutation)
        with pytest.raises(ProtocolError):
            protocol.parse_request(encode_line(payload))

    @pytest.mark.parametrize("cpi", [b"NaN", b"Infinity", b"-Infinity",
                                     b"1e999"])
    def test_observe_refuses_non_finite_cpi_literals(self, cpi):
        line = (b'{"op":"observe","id":6,"session":"s1","pcs":[4],'
                b'"counts":[4],"cpi":' + cpi + b'}')
        with pytest.raises(ProtocolError):
            protocol.parse_request(line)

    def test_observe_accepts_the_int64_edges(self):
        request = protocol.parse_request(encode_line({
            "op": "observe", "id": 7, "session": "s1",
            "pcs": [0, 2**63 - 1], "counts": [2**63 - 1, 0], "cpi": 3,
        }))
        assert request.pcs == [0, 2**63 - 1]
        assert request.counts == [2**63 - 1, 0]
        assert request.cpi == 3.0 and type(request.cpi) is float

    @pytest.mark.parametrize("line", [
        b"not json\n",
        b"[1,2,3]\n",
        b'{"op":"warp","id":1}',
        b'{"op":"ping"}',                      # missing id
        b'{"op":"ping","id":true}',            # bool id
        b'{"op":"close","id":1}',              # missing session
        b'{"op":"close","id":1,"session":""}',
        b'\xff\xfe{"op":"ping","id":1}',       # not UTF-8
    ])
    def test_malformed_lines(self, line):
        with pytest.raises(ProtocolError):
            protocol.parse_request(line)

    def test_session_ops(self):
        for op, cls in [("close", protocol.CloseRequest),
                        ("predict", protocol.PredictRequest),
                        ("snapshot", protocol.SnapshotRequest)]:
            request = protocol.parse_request(
                encode_line({"op": op, "id": 9, "session": "x"})
            )
            assert isinstance(request, cls)
            assert request.session == "x"


class TestRequestPayload:
    def test_round_trips_through_parse(self):
        requests = [
            protocol.PingRequest(id=1),
            protocol.StatsRequest(id=2),
            protocol.OpenRequest(id=3, session="a",
                                 interval_instructions=100),
            protocol.CloseRequest(id=4, session="a"),
            protocol.ObserveRequest(id=5, session="a", pcs=[8],
                                    counts=[9], cpi=2.0),
            protocol.PredictRequest(id=6, session="a"),
            protocol.SnapshotRequest(id=7, session="a"),
        ]
        for request in requests:
            line = protocol.encode(protocol.request_payload(request))
            assert protocol.parse_request(line) == request


class TestEncode:
    def test_single_compact_line(self):
        data = protocol.encode({"op": "ping", "id": 1})
        assert data.endswith(b"\n")
        assert data.count(b"\n") == 1
        assert b" " not in data

    def test_line_limit_enforced(self):
        with pytest.raises(ProtocolError):
            protocol.encode({"blob": "x" * protocol.MAX_LINE_BYTES})


class TestServerMessages:
    def test_ok_response(self):
        line = protocol.encode(protocol.ok_response(3, {"a": 1}))
        message = protocol.parse_server_message(line)
        assert message == protocol.Response(id=3, ok=True, result={"a": 1})
        assert message.raise_for_error() is message

    def test_error_response_raises_typed(self):
        line = protocol.encode(
            protocol.error_response(4, "session_not_found", "nope")
        )
        message = protocol.parse_server_message(line)
        assert not message.ok
        with pytest.raises(SessionNotFoundError, match="nope"):
            message.raise_for_error()

    def test_interval_push(self):
        line = protocol.encode(
            protocol.interval_push("s1", {"interval_index": 0})
        )
        message = protocol.parse_server_message(line)
        assert message == protocol.IntervalPush(
            session="s1", report={"interval_index": 0}
        )

    @pytest.mark.parametrize("line", [
        b'{"push":"wat","session":"s","report":{}}',
        b'{"push":"interval","session":"s"}',
        b'{"id":1}',
        b'{"id":1,"ok":false}',
    ])
    def test_malformed_server_lines(self, line):
        with pytest.raises(ProtocolError):
            protocol.parse_server_message(line)


class TestErrorCodeMapping:
    def test_bijection_for_specific_errors(self):
        for code, exc_class in protocol.ERROR_CODE_EXCEPTIONS.items():
            error = protocol.exception_for(code, "m")
            assert isinstance(error, exc_class)
            if exc_class is not ServiceError:
                assert protocol.error_code_for(error) == code

    def test_every_code_is_a_service_error(self):
        for exc_class in protocol.ERROR_CODE_EXCEPTIONS.values():
            assert issubclass(exc_class, ServiceError)

    def test_unknown_maps_to_internal(self):
        assert protocol.error_code_for(RuntimeError("x")) == "internal"
        assert type(protocol.exception_for("??", "m")) is ServiceError

    def test_distinct_codes_for_the_refusal_taxonomy(self):
        assert protocol.error_code_for(
            ServiceOverloadedError("x")) == "overloaded"
        assert protocol.error_code_for(
            ServiceUnavailableError("x")) == "shutting_down"
        assert protocol.error_code_for(
            SessionExistsError("x")) == "session_exists"
        assert protocol.error_code_for(SnapshotError("x")) == "snapshot"
