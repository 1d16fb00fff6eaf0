"""The benchmark's named workloads and their seeded input generators.

A workload fixes the ``serve`` flags, the two client connections, the
closed-loop window and the paced (open-loop) rate. Its inputs come only
from ``--seed``: the same seed gives the same request bytes, and the
served program receives nothing but those bytes.

Each connection's plan holds its ``setup`` requests (the opens, run
before any timing) and an endless ``stream`` of requests that the
warm-up, capacity and paced phases consume in order. Observe bodies
are drawn once per connection and cycled, so a stream costs the loader
almost nothing to produce while it is timed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

PC_BASE = 0x400000


@dataclass(frozen=True)
class Req:
    """One request as sent: op, session, wire bytes and id; for an
    observe its record count and body, for an open its config overrides
    and interval length."""

    op: str
    session: str
    wire: bytes
    id: int = 0
    records: int = 0
    config: Optional[dict] = None
    interval: Optional[int] = None
    body: Optional["Body"] = None


@dataclass
class ConnPlan:
    """One connection's requests: ``setup`` (the opens) and ``stream``,
    a factory for the endless seeded request stream that the warm-up,
    capacity and paced phases consume in order."""

    kind: str  # "ndjson" or "http"
    setup: List[Req]
    stream: Callable[[], Iterator[Req]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    serve_flags: Tuple[str, ...]  # "{data_dir}" / "{runtime_dir}" filled in
    kinds: Tuple[str, str]
    window: Tuple[int, int]  # closed-loop requests in flight per connection
    paced_rate: Tuple[float, float]  # open-loop offered req/s per connection

    @property
    def cluster(self) -> bool:
        return "--workers" in self.serve_flags


# -- wire encoding -------------------------------------------------------------


def _line(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def _http_head(method: str, path: str, length: Optional[int]) -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
    if length is not None:
        head += "Content-Type: application/json\r\n"
    head += f"Content-Length: {length or 0}\r\n\r\n"
    return head.encode()


def _http(method: str, path: str, body: Optional[dict] = None) -> bytes:
    data = b"" if body is None else json.dumps(
        body, separators=(",", ":")
    ).encode()
    return _http_head(method, path,
                      None if body is None else len(data)) + data


class _Encoder:
    """Builds one connection's requests in its wire format."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.next_id = 1

    def _id(self) -> int:
        if self.kind == "http":
            return 0
        self.next_id += 1
        return self.next_id - 1

    def open(self, session: str, interval: int,
             config: Optional[dict] = None) -> Req:
        rid = self._id()
        if self.kind == "ndjson":
            payload = {"op": "open", "id": rid, "session": session,
                       "interval_instructions": interval}
            if config:
                payload["config"] = config
            wire = _line(payload)
        else:
            body = {"session": session, "interval_instructions": interval}
            if config:
                body["config"] = config
            wire = _http("POST", "/v1/sessions", body)
        return Req("open", session, wire, rid, config=config,
                   interval=interval)

    def observe(self, session: str, body: "Body") -> Req:
        rid = self._id()
        if self.kind == "ndjson":
            wire = b'{"op":"observe","id":%d,"session":"%s",%s}\n' % (
                rid, session.encode(), body.fields)
        else:
            wire = _http_head(
                "POST", f"/v1/sessions/{session}/observe-batch",
                len(body.fields) + 2,
            ) + b"{" + body.fields + b"}"
        return Req("observe", session, wire, rid, records=body.records,
                   body=body)

    def simple(self, op: str, session: str) -> Req:
        rid = self._id()
        if self.kind == "ndjson":
            wire = _line({"op": op, "id": rid, "session": session})
        elif op == "predict":
            wire = _http("GET", f"/v1/sessions/{session}")
        elif op == "snapshot":
            wire = _http("GET", f"/v1/sessions/{session}/snapshot")
        else:
            assert op == "close"
            wire = _http("DELETE", f"/v1/sessions/{session}")
        return Req(op, session, wire, rid)

    def scrape(self) -> Req:
        assert self.kind == "http"
        return Req("metrics", "", _http("GET", "/metrics"))


@dataclass(frozen=True)
class Body:
    """An observe's ``"pcs":[...],"counts":[...],"cpi":x`` JSON fields."""

    fields: bytes
    records: int


def _bodies(rng, count: int, records: int, footprint: int,
            cpi: float) -> List[Body]:
    """``count`` distinct observe bodies; streams cycle through them."""
    pcs = PC_BASE + rng.integers(0, footprint, size=(count, records)) * 4
    counts = rng.integers(50, 150, size=(count, records))
    return [
        Body(b'"pcs":%s,"counts":%s,"cpi":%s' % (
            json.dumps(p).replace(" ", "").encode(),
            json.dumps(c).replace(" ", "").encode(),
            repr(cpi).encode(),
        ), records)
        for p, c in zip(pcs.tolist(), counts.tolist())
    ]


# -- generators ----------------------------------------------------------------

#: Distinct bodies per connection. Primes, so a session's successive
#: observes walk through different bodies.
FLEET_BODIES = 4_099
STREAM_BODIES = 257
OPS_MIX_BODIES = 1_031


def _round_robin(workload: Workload, seed: int, sessions: int,
                 records: int, footprint: int, interval: int, cpi: float,
                 bodies: int) -> List[ConnPlan]:
    """``sessions`` per connection, each observed in turn, forever."""
    plans = []
    for conn, kind in enumerate(workload.kinds):
        rng = np.random.default_rng([seed, conn])
        names = [f"c{conn}-s{i}" for i in range(sessions)]
        pool = _bodies(rng, bodies, records, footprint, cpi)
        encoder = _Encoder(kind)
        setup = [encoder.open(name, interval) for name in names]

        def stream(names=names, pool=pool, kind=kind,
                   first_id=encoder.next_id):
            encoder = _Encoder(kind)
            encoder.next_id = first_id
            index = 0
            while True:
                yield encoder.observe(names[index % len(names)],
                                      pool[index % len(pool)])
                index += 1

        plans.append(ConnPlan(kind, setup, stream))
    return plans


def _fleet(workload: Workload, seed: int) -> List[ConnPlan]:
    return _round_robin(workload, seed, sessions=512, records=40,
                        footprint=64, interval=4_000, cpi=1.2,
                        bodies=FLEET_BODIES)


def _stream(workload: Workload, seed: int) -> List[ConnPlan]:
    return _round_robin(workload, seed, sessions=4, records=2_000,
                        footprint=4_096, interval=100_000, cpi=1.1,
                        bodies=STREAM_BODIES)


OPS_MIX_SESSIONS = 256
OPS_MIX_RECORDS = 200
OPS_MIX_INTERVAL = 20_000
OPS_MIX_SCALAR_CONFIG = {"min_count_threshold": 4}
OPS_MIX_SCRAPE_EVERY = 50
_DRAW_BLOCK = 4_096


def _ops_mix(workload: Workload, seed: int) -> List[ConnPlan]:
    """Zipf(1.1) session popularity; 70% observe, 15% predict, 10%
    snapshot, 5% close-then-reopen; every 8th session scalar-config;
    a /metrics scrape every 50 requests on the HTTP connection."""
    plans = []
    ranks = np.arange(1, OPS_MIX_SESSIONS + 1, dtype=float)
    weights = ranks ** -1.1
    weights /= weights.sum()
    for conn, kind in enumerate(workload.kinds):
        rng = np.random.default_rng([seed, conn])
        prefix = "n" if kind == "ndjson" else "h"
        names = [f"{prefix}{i}" for i in range(OPS_MIX_SESSIONS)]
        configs = [
            OPS_MIX_SCALAR_CONFIG if i % 8 == 7 else None
            for i in range(OPS_MIX_SESSIONS)
        ]
        pool = _bodies(rng, OPS_MIX_BODIES, OPS_MIX_RECORDS, 512, 1.3)
        encoder = _Encoder(kind)
        setup = [
            encoder.open(name, OPS_MIX_INTERVAL, config)
            for name, config in zip(names, configs)
        ]

        def stream(names=names, configs=configs, pool=pool, kind=kind,
                   conn=conn,
                   first_id=encoder.next_id):
            draws = np.random.default_rng([seed, conn, 1])
            encoder = _Encoder(kind)
            encoder.next_id = first_id
            index = 0
            while True:
                # Session i has popularity rank i + 1, so the scalar-config
                # share of the traffic does not depend on the seed.
                picks = draws.choice(OPS_MIX_SESSIONS, size=_DRAW_BLOCK,
                                     p=weights)
                ops = draws.choice(4, size=_DRAW_BLOCK,
                                   p=[0.70, 0.15, 0.10, 0.05])
                for session, op in zip(picks.tolist(), ops.tolist()):
                    index += 1
                    if kind == "http" and index % OPS_MIX_SCRAPE_EVERY == 0:
                        yield encoder.scrape()
                    name = names[session]
                    if op == 0:
                        yield encoder.observe(name, pool[index % len(pool)])
                    elif op == 1:
                        yield encoder.simple("predict", name)
                    elif op == 2:
                        yield encoder.simple("snapshot", name)
                    else:
                        yield encoder.simple("close", name)
                        yield encoder.open(name, OPS_MIX_INTERVAL,
                                           configs[session])

        plans.append(ConnPlan(kind, setup, stream))
    return plans


_POOL = ("--pool-slots", "1100", "--max-sessions", "1100", "--coalesce")

# Paced rates sit well below the closed-loop capacity. Paced requests
# arrive one at a time, so a coalescing server runs many one-request
# rounds and saturates far below what a 64-deep window shows; near that
# point the latency of a shared 2-core machine varied between runs by
# more than the metrics' bounds.

WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="fleet",
            why=("1,024 small-batch pool sessions: coalesced rounds, "
                 "observe_fanin classification and per-report "
                 "to_dict/encode dominate"),
            serve_flags=_POOL,
            kinds=("ndjson", "ndjson"),
            window=(64, 64),
            paced_rate=(250.0, 250.0),
        ),
        Workload(
            name="stream",
            why=("8 sessions of 2,000-record observes with a journal "
                 "(--sync batch): parsing, accumulator ingest and journal "
                 "writes dominate; bypasses coalescing"),
            serve_flags=_POOL + ("--data-dir", "{data_dir}",
                                 "--sync", "batch"),
            kinds=("ndjson", "ndjson"),
            window=(4, 4),
            paced_rate=(50.0, 50.0),
        ),
        Workload(
            name="ops_mix",
            why=("Zipf sessions over a 128-session cap with evict/hydrate, "
                 "scalar fallbacks, predict/snapshot/close barriers, HTTP "
                 "gateway and live telemetry"),
            serve_flags=("--pool-slots", "160", "--max-sessions", "128",
                         "--coalesce", "--data-dir", "{data_dir}",
                         "--http-port", "0"),
            kinds=("ndjson", "http"),
            window=(16, 1),
            paced_rate=(150.0, 60.0),
        ),
        Workload(
            name="cluster_fleet",
            why=("the fleet inputs through serve --workers 1: measures the "
                 "dispatcher hop"),
            serve_flags=_POOL + ("--workers", "1",
                                 "--runtime-dir", "{runtime_dir}"),
            kinds=("ndjson", "ndjson"),
            window=(64, 64),
            paced_rate=(100.0, 100.0),
        ),
    )
}

GENERATORS = {
    "fleet": _fleet,
    "stream": _stream,
    "ops_mix": _ops_mix,
    "cluster_fleet": _fleet,
}


def generate(workload: Workload, seed: int) -> List[ConnPlan]:
    """The workload's per-connection request plans for ``seed``."""
    return GENERATORS[workload.name](workload, seed)
