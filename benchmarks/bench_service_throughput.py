"""Benchmark: service ingest throughput, batched vs per-branch RPC.

The protocol's ``observe`` op carries a *batch* of (pc, instructions)
pairs per request precisely so the per-request costs — JSON framing,
syscalls, event-loop turns — amortize over many branches. This
benchmark drives the same branch stream through a live service twice,
once as one request per branch and once in large batches, and asserts
the batched path sustains at least 5x the per-branch RPC branch rate
(the acceptance floor; in practice it is orders of magnitude higher).

A second test checks the absolute batched rate is fast enough to be a
deployable monitor feed, and a third that the bounded ingest queue
(the backpressure mechanism) does not deadlock a stream much larger
than the queue.

The file doubles as the *cluster* load generator: ``_cluster_rate``
drives concurrent sessions through a ``repro.cluster`` dispatcher with
N worker processes, ``test_cluster_scaling_on_multicore`` asserts a
4-worker cluster sustains >= 2.5x the 1-worker rate on a >= 4-core box
(skipped on smaller machines — classification is CPU-bound, so extra
worker processes on one core only add dispatch overhead), and
``python benchmarks/bench_service_throughput.py --workers N`` runs the
generator standalone for TRAJECTORY.md numbers.
"""

import json
import os
import socket
import tempfile
import threading
import time

import numpy as np

from repro.api import ClassifierConfig, TrackerPool
from repro.cluster import start_cluster_in_thread
from repro.service import PhaseServiceClient, start_in_thread

BRANCHES = 12_000
BATCH = 2_000
INTERVAL_INSTRUCTIONS = 100_000
PER_BRANCH_SAMPLE = 600       # per-branch RPC is slow; sample and scale
SPEEDUP_FLOOR = 5.0


def _branch_stream(seed=0, n=BRANCHES):
    rng = np.random.default_rng(seed)
    pcs = [int(pc) for pc in 0x400000 + rng.integers(0, 64, size=n) * 4]
    counts = [int(c) for c in rng.integers(50, 150, size=n)]
    return pcs, counts


def _batched_rate(client, pcs, counts):
    session = client.open_session(
        interval_instructions=INTERVAL_INSTRUCTIONS
    )
    start = time.perf_counter()
    for begin in range(0, len(pcs), BATCH):
        client.observe(
            session, pcs[begin:begin + BATCH], counts[begin:begin + BATCH]
        )
    elapsed = time.perf_counter() - start
    client.close_session(session)
    return len(pcs) / elapsed


def _per_branch_rate(client, pcs, counts):
    session = client.open_session(
        interval_instructions=INTERVAL_INSTRUCTIONS
    )
    start = time.perf_counter()
    for pc, count in zip(pcs, counts):
        client.observe(session, [pc], [count])
    elapsed = time.perf_counter() - start
    client.close_session(session)
    return len(pcs) / elapsed


def test_batched_observe_is_5x_per_branch_rpc():
    pcs, counts = _branch_stream()
    with start_in_thread() as handle:
        with PhaseServiceClient(port=handle.port) as client:
            _batched_rate(client, pcs[:BATCH], counts[:BATCH])  # warm-up
            batched = _batched_rate(client, pcs, counts)
            per_branch = _per_branch_rate(
                client, pcs[:PER_BRANCH_SAMPLE], counts[:PER_BRANCH_SAMPLE]
            )
    speedup = batched / per_branch
    print(
        f"\nbatched {batched / 1e3:.0f} kbranches/s, per-branch RPC "
        f"{per_branch / 1e3:.1f} kbranches/s, speedup {speedup:.1f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched observe only {speedup:.1f}x the per-branch RPC rate; "
        f"the protocol requires >= {SPEEDUP_FLOOR}x"
    )


def test_batched_rate_is_deployable():
    """The batched path should comfortably outrun a real branch feed
    sampled at monitoring granularity (>= 50k records/s end to end,
    classification included)."""
    pcs, counts = _branch_stream(seed=1)
    with start_in_thread() as handle:
        with PhaseServiceClient(port=handle.port) as client:
            _batched_rate(client, pcs[:BATCH], counts[:BATCH])  # warm-up
            rate = _batched_rate(client, pcs, counts)
    assert rate >= 50_000, f"batched ingest only {rate:.0f} branches/s"


CLUSTER_SESSIONS = 8          # concurrent sessions spread over the fleet
CLUSTER_BRANCHES = 24_000     # per session
CLUSTER_SCALING_FLOOR = 2.5   # 4 workers vs 1 on a >= 4-core box


def _drive_session(port, name, pcs, counts, errors):
    try:
        with PhaseServiceClient(port=port, timeout=120.0) as client:
            client.open_session(
                session=name, interval_instructions=INTERVAL_INSTRUCTIONS
            )
            for begin in range(0, len(pcs), BATCH):
                client.observe(
                    name,
                    pcs[begin:begin + BATCH],
                    counts[begin:begin + BATCH],
                )
            client.close_session(name)
    except Exception as error:  # surfaced by the caller
        errors.append((name, error))


def _cluster_rate(workers, sessions=CLUSTER_SESSIONS,
                  branches=CLUSTER_BRANCHES):
    """Aggregate branches/s through a dispatcher with ``workers``
    worker processes, ``sessions`` concurrent loader threads (one
    client + one session each, batched observes)."""
    streams = [
        _branch_stream(seed=10 + index, n=branches)
        for index in range(sessions)
    ]
    with tempfile.TemporaryDirectory(prefix="bench-cluster-") as tmp:
        with start_cluster_in_thread(
            port=0, workers=workers, runtime_dir=tmp,
            max_connections=sessions + 8,
        ) as cluster:
            errors = []
            loaders = [
                threading.Thread(
                    target=_drive_session,
                    args=(cluster.port, f"load-{index}", pcs, counts,
                          errors),
                )
                for index, (pcs, counts) in enumerate(streams)
            ]
            start = time.perf_counter()
            for loader in loaders:
                loader.start()
            for loader in loaders:
                loader.join()
            elapsed = time.perf_counter() - start
            assert not errors, f"load generator failed: {errors[:3]}"
    return sessions * branches / elapsed


def test_cluster_dispatcher_overhead_is_bounded():
    """Routing through the dispatcher + a worker process must keep a
    usable fraction of the single-process batched rate — the proxy adds
    one hop, not an order of magnitude."""
    pcs, counts = _branch_stream(seed=9)
    with start_in_thread() as handle:
        with PhaseServiceClient(port=handle.port) as client:
            _batched_rate(client, pcs[:BATCH], counts[:BATCH])
            direct = _batched_rate(client, pcs, counts)
    with tempfile.TemporaryDirectory(prefix="bench-cluster-") as tmp:
        with start_cluster_in_thread(
            port=0, workers=1, runtime_dir=tmp
        ) as cluster:
            with PhaseServiceClient(
                port=cluster.port, timeout=120.0
            ) as client:
                _batched_rate(client, pcs[:BATCH], counts[:BATCH])
                proxied = _batched_rate(client, pcs, counts)
    retained = proxied / direct
    print(
        f"\ndirect {direct / 1e3:.0f} kbranches/s, via dispatcher "
        f"{proxied / 1e3:.0f} kbranches/s ({retained:.0%} retained)"
    )
    assert retained >= 0.25, (
        f"dispatcher hop keeps only {retained:.0%} of the direct rate"
    )


def test_cluster_scaling_on_multicore():
    """4 workers >= 2.5x 1 worker — only meaningful when the box has
    cores for the workers to spread over."""
    cores = os.cpu_count() or 1
    one = _cluster_rate(workers=1)
    two = _cluster_rate(workers=2)
    four = _cluster_rate(workers=4)
    print(
        f"\ncluster scaling ({cores} cores): "
        f"1w {one / 1e3:.0f} kbranches/s, "
        f"2w {two / 1e3:.0f} kbranches/s, "
        f"4w {four / 1e3:.0f} kbranches/s "
        f"({four / one:.2f}x)"
    )
    if cores < 4:
        import pytest

        pytest.skip(
            f"scaling floor needs >= 4 cores, box has {cores}; "
            f"rates recorded above"
        )
    assert four / one >= CLUSTER_SCALING_FLOOR, (
        f"4-worker cluster only {four / one:.2f}x a single worker; "
        f"the floor on a {cores}-core box is {CLUSTER_SCALING_FLOOR}x"
    )


def test_backpressure_queue_does_not_deadlock():
    """A stream of many more requests than the ingest queue holds must
    complete: the bounded queue throttles the reader, it never drops or
    wedges."""
    pcs, counts = _branch_stream(seed=2, n=4_000)
    with start_in_thread(queue_size=2) as handle:
        with PhaseServiceClient(port=handle.port) as client:
            session = client.open_session(
                interval_instructions=INTERVAL_INSTRUCTIONS
            )
            intervals = 0
            for begin in range(0, len(pcs), 100):   # 40 requests, queue of 2
                intervals += len(client.observe(
                    session, pcs[begin:begin + 100],
                    counts[begin:begin + 100],
                ))
            summary = client.close_session(session)
    assert summary["branches"] == len(pcs)
    assert intervals == summary["intervals"] > 0


COALESCE_SESSIONS = 1_024     # >= 1k concurrent sessions (the target)
COALESCE_CONNECTIONS = 8      # pipelined NDJSON loader connections
COALESCE_OBSERVES = 6         # observes per session
COALESCE_RECORDS = 40         # records per observe
COALESCE_INTERVAL = 4_000     # ~1 boundary per observe: classify-bound
COALESCE_FLOOR = 2.0          # acceptance: wire rounds >= 2x in-process


def _coalesce_requests(connection_index, names):
    """One loader connection's request list: open every session, then
    observes round-robin across them (so consecutive requests hit
    different sessions — the interleave a real fleet produces), then
    close."""
    rng = np.random.default_rng(100 + connection_index)
    requests = []
    next_id = 1
    for name in names:
        requests.append({
            "op": "open", "id": next_id, "session": name,
            "interval_instructions": COALESCE_INTERVAL,
        })
        next_id += 1
    for _ in range(COALESCE_OBSERVES):
        for name in names:
            pcs = (
                0x400000
                + rng.integers(0, 64, size=COALESCE_RECORDS) * 4
            ).tolist()
            counts = rng.integers(50, 150, size=COALESCE_RECORDS).tolist()
            requests.append({
                "op": "observe", "id": next_id, "session": name,
                "pcs": pcs, "counts": counts, "cpi": 1.2,
            })
            next_id += 1
    for name in names:
        requests.append({
            "op": "close", "id": next_id, "session": name,
        })
        next_id += 1
    return requests


def _fleet_plans(sessions=COALESCE_SESSIONS,
                 connections=COALESCE_CONNECTIONS):
    """Per-connection request lists for ``sessions`` concurrent
    sessions split over ``connections``; returns ``(plans, records)``."""
    per_connection = sessions // connections
    plans = [
        _coalesce_requests(index, [
            f"c{index}-s{slot}" for slot in range(per_connection)
        ])
        for index in range(connections)
    ]
    records = (
        connections * per_connection
        * COALESCE_OBSERVES * COALESCE_RECORDS
    )
    return plans, records


def _ndjson_rate(sessions=COALESCE_SESSIONS,
                 connections=COALESCE_CONNECTIONS):
    """Single-process NDJSON ingest records/s at ``sessions``
    concurrent pool-backed sessions, through the service's coalesced
    rounds. Writer threads keep every connection's pipeline full while
    the main thread drains responses."""
    plans, records = _fleet_plans(sessions, connections)
    payloads = [
        "".join(json.dumps(request) + "\n" for request in plan).encode()
        for plan in plans
    ]
    with start_in_thread(
        max_sessions=sessions + 8, max_connections=connections + 8,
    ) as handle:
        socks = [
            socket.create_connection(
                ("127.0.0.1", handle.port), timeout=600
            )
            for _ in plans
        ]
        start = time.perf_counter()
        writers = [
            threading.Thread(target=sock.sendall, args=(payload,))
            for sock, payload in zip(socks, payloads)
        ]
        for writer in writers:
            writer.start()
        for sock, plan in zip(socks, plans):
            reader = sock.makefile("rb")
            answered = 0
            while answered < len(plan):
                line = reader.readline()
                assert line, "connection closed mid-benchmark"
                # Acks serialize as {"id":...}; pushes as {"push":...}.
                if line.startswith(b'{"id"'):
                    answered += 1
            reader.close()
        elapsed = time.perf_counter() - start
        for writer in writers:
            writer.join()
        for sock in socks:
            sock.close()
    return records / elapsed


def _per_request_rate(sessions=COALESCE_SESSIONS,
                      connections=COALESCE_CONNECTIONS):
    """The reference: the same plan's observes in process, one
    ``PooledTracker.observe_batch`` call per request, in plan order.
    No wire, parsing or scheduling cost is paid, so this rate is an
    upper bound on any per-request service path."""
    plans, records = _fleet_plans(sessions, connections)
    pool = TrackerPool(
        capacity=sessions + 8, config=ClassifierConfig.paper_default()
    )
    trackers = {}
    observes = []
    for plan in plans:
        for request in plan:
            if request["op"] == "open":
                trackers[request["session"]] = pool.acquire(
                    interval_instructions=request["interval_instructions"]
                )
            elif request["op"] == "observe":
                observes.append(request)
    start = time.perf_counter()
    for request in observes:
        trackers[request["session"]].observe_batch(
            request["pcs"], request["counts"], cpi=request["cpi"]
        )
    return records / (time.perf_counter() - start)


def test_coalesced_ingest_is_2x_per_session_path():
    """The coalescing acceptance bench: at >= 1k concurrent pool-backed
    sessions, fused cross-session rounds over the wire must at least
    double an in-process per-request ``observe_batch`` loop."""
    per_request = _per_request_rate()
    coalesced = _ndjson_rate()
    speedup = coalesced / per_request
    print(
        f"\n{COALESCE_SESSIONS} sessions: in-process per-request "
        f"{per_request / 1e3:.0f} krec/s, coalesced wire "
        f"{coalesced / 1e3:.0f} krec/s, speedup {speedup:.1f}x"
    )
    assert speedup >= COALESCE_FLOOR, (
        f"coalesced ingest only {speedup:.1f}x the in-process "
        f"per-request path; the acceptance floor is {COALESCE_FLOOR}x"
    )


def _coalesce_main():
    """``--coalesce``: measure coalesced wire ingest vs the in-process
    per-request loop and append the row to benchmarks/TRAJECTORY.md."""
    best = {"per-request": 0.0, "coalesced": 0.0}
    for _ in range(3):
        best["per-request"] = max(
            best["per-request"], _per_request_rate()
        )
        best["coalesced"] = max(best["coalesced"], _ndjson_rate())
    speedup = best["coalesced"] / best["per-request"]
    line = (
        f"| {COALESCE_SESSIONS:,} | {COALESCE_CONNECTIONS} "
        f"| {best['coalesced']:,.0f} | {best['per-request']:,.0f} "
        f"| {speedup:.1f}x |"
    )
    print(
        f"{COALESCE_SESSIONS} sessions over {COALESCE_CONNECTIONS} "
        f"connections: coalesced {best['coalesced'] / 1e3:.0f} krec/s, "
        f"in-process per-request {best['per-request'] / 1e3:.0f} krec/s "
        f"({speedup:.1f}x)"
    )
    trajectory = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "TRAJECTORY.md"
    )
    header = (
        "\n## bench_service_throughput: coalesced ingest vs in-process "
        "per-request observe_batch (rec/s, best of 3, pool-backed, "
        f"{COALESCE_OBSERVES} observes x {COALESCE_RECORDS} records "
        "per session)\n\n"
        "| sessions | connections | coalesced wire rec/s | "
        "in-process per-request rec/s | speedup |\n"
        "|---|---|---|---|---|\n"
    )
    with open(trajectory, "r+", encoding="utf-8") as handle:
        content = handle.read()
        if header.strip().splitlines()[0] not in content:
            handle.write(header)
        handle.write(line + "\n")
    print(f"appended to {trajectory}")
    return 0


def main(argv=None):
    """Standalone cluster load generator:
    ``python benchmarks/bench_service_throughput.py --workers 4``."""
    import argparse

    parser = argparse.ArgumentParser(
        description=(
            "Drive concurrent batched sessions through a repro.cluster "
            "dispatcher and report aggregate branches/s."
        )
    )
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes (default 1)")
    parser.add_argument("--sessions", type=int, default=CLUSTER_SESSIONS,
                        help="concurrent loader sessions (default "
                        f"{CLUSTER_SESSIONS})")
    parser.add_argument("--branches", type=int, default=CLUSTER_BRANCHES,
                        help="branches per session (default "
                        f"{CLUSTER_BRANCHES})")
    parser.add_argument("--coalesce", action="store_true",
                        help="run the coalesced-vs-per-request ingest "
                        "comparison instead and append it to "
                        "benchmarks/TRAJECTORY.md")
    args = parser.parse_args(argv)
    if args.coalesce:
        return _coalesce_main()
    rate = _cluster_rate(
        workers=args.workers, sessions=args.sessions,
        branches=args.branches,
    )
    print(
        f"{args.workers} worker(s), {args.sessions} sessions x "
        f"{args.branches} branches: {rate / 1e3:.0f} kbranches/s "
        f"aggregate ({os.cpu_count()} cores)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
