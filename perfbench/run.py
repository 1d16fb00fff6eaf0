"""The repository benchmark: ``repro-phases serve`` under named workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 12 --trace 0

Each run launches ``serve`` as its own process (five times, to time
set-up), drives it from this one process over two connections, and
then checks every output against a scalar ``PhaseTracker`` replay.
After a warm-up, the measured time alternates between *capacity*
phases (closed loop, a fixed window of requests in flight per
connection) and *paced* phases (open loop at the workload's fixed
offered rate, latency timed from each request's due time).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` measures the
untraced capacity once more, then re-runs with every public function of
the layer modules wrapped in spans inside the served processes
(``tracehook/``) and prints the per-layer metrics. The last line of
standard output is always one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_LAUNCHES = 5
WARMUP_S = 1.0
CAPACITY_SHARE = 0.5
SLICES = 6
DRAIN_S = 10.0
OPEN_S = 60.0  # cap on opening the sessions; normally well under 1 s


def cpu_steal() -> List[int]:
    """``[steal, total]`` jiffies of the machine so far (``/proc/stat``)."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:9]]
    return [fields[7], sum(fields)]


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_quantile(count: int) -> float:
    """p99, or the highest percentile with at least 10 samples beyond it."""
    return max(0.5, min(0.99, 1.0 - 10.0 / count)) if count else 0.5


class Run:
    """One served program under one workload's load."""

    def __init__(self, workload, plans, root: str, rundir: str, tag: str,
                 trace_dir: Optional[str] = None) -> None:
        from loadgen import Channel, Loader
        from served import Served

        self.workload = workload
        self.rundir = rundir
        self.trace_dir = trace_dir
        flags = _flags(workload, rundir, tag)
        extra, env = (), {}
        if trace_dir is not None:
            extra = (os.path.join(HERE, "tracehook"),)
            env = {"PERFBENCH_TRACE_DIR": trace_dir}
        self.served = Served(root, flags,
                             os.path.join(rundir, f"{tag}.log"),
                             extra_path=extra, env=env)
        self.channels = [
            Channel(kind, self.served.host,
                    self.served.http_port if kind == "http"
                    else self.served.port)
            for kind in workload.kinds
        ]
        self.loader = Loader(self.channels)
        self.sources = [plan.stream() for plan in plans]
        self.dumps = 0
        self.loader.closed_loop([iter(p.setup) for p in plans],
                                workload.window, OPEN_S)
        self.loader.drain(DRAIN_S)

    def closed(self, seconds: float) -> dict:
        """A capacity phase; its requests are ``[first, last)`` per channel."""
        phase = self.loader.closed_loop(self.sources, self.workload.window,
                                        seconds)
        self.loader.drain(DRAIN_S)
        phase["last"] = [len(c.reqs) for c in self.channels]
        return phase

    def paced(self, seconds: float) -> dict:
        """A paced phase; its requests are ``[first, last)`` per channel."""
        phase = self.loader.open_loop(self.sources,
                                      self.workload.paced_rate, seconds)
        self.loader.drain(DRAIN_S)
        phase["last"] = [len(c.reqs) for c in self.channels]
        return phase

    def diagnostics(self) -> Dict[str, int]:
        """Registry and coalescer counters summed over the services."""
        totals = {"evicted": 0, "hydrated": 0, "rounds": 0, "requests": 0}
        for endpoint in self.served.endpoints():
            diag = self.served.query({"op": "cluster", "id": 1,
                                      "action": "diagnostics"},
                                     endpoint)["result"]
            registry = diag.get("registry") or {}
            coalesce = diag.get("coalesce") or {}
            totals["evicted"] += registry.get("evicted", 0)
            totals["hydrated"] += registry.get("hydrated", 0)
            totals["rounds"] += coalesce.get("rounds", 0)
            totals["requests"] += coalesce.get("requests", 0)
        return totals

    def dump_spans(self) -> List[dict]:
        """Ask every served process for its span aggregates."""
        self.dumps += 1
        for pid in self.served.pids:
            os.kill(pid, signal.SIGUSR1)
        documents = []
        deadline = time.perf_counter() + 30
        for pid in self.served.pids:
            path = os.path.join(self.trace_dir,
                                f"trace-{pid}-{self.dumps}.json")
            while not os.path.exists(path):
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"no span dump from pid {pid}")
                time.sleep(0.01)
            with open(path) as handle:
                documents.append(json.load(handle))
        return documents

    def finish(self):
        """Stop the server; parse and check everything it answered."""
        from oracle import check_parallel, pair

        rss = self.served.peak_rss_mb()
        self.close()
        started = time.perf_counter()
        self.paired = [
            pair(channel.kind, channel.reqs, channel.answers())
            for channel in self.channels
        ]
        self.check = check_parallel([
            (channel.kind, channel.reqs, paired)
            for channel, paired in zip(self.channels, self.paired)
        ], self.rundir)
        self.check_s = time.perf_counter() - started
        return rss

    def close(self) -> None:
        """Close the connections and stop the server. Idempotent."""
        self.loader.close()
        self.served.stop()

    # -- accounting --------------------------------------------------------------

    def failures(self) -> Dict[str, int]:
        errors = missing = refused = 0
        for channel, paired in zip(self.channels, self.paired):
            refused += int(channel.refused)
            for answer in paired:
                if answer is None:
                    missing += 1
                elif not answer.ok:
                    errors += 1
        due = sum(len(c.reqs) for c in self.channels) + refused
        return {"errors": errors, "missing": missing, "refused": refused,
                "due": due, "failed": errors + missing + refused}

    def answered(self, first: List[int], last: List[int]):
        """``(channel, index, answer)`` for the requests in ``[first,
        last)`` that were answered without error."""
        for c, channel in enumerate(self.channels):
            for i in range(first[c], last[c]):
                answer = self.paired[c][i]
                if answer is not None and answer.ok:
                    yield channel, i, answer

    def capacity(self, phase: dict) -> Dict[str, float]:
        """Requests and records answered before the phase's deadline."""
        seconds = phase["end"] - phase["start"]
        requests = records = 0
        for channel, i, answer in self.answered(phase["first"],
                                                phase["last"]):
            if answer.at <= phase["end"]:
                requests += 1
                records += channel.reqs[i].records
        return {"records_per_s": records / seconds,
                "requests_per_s": requests / seconds}

    def latencies(self, phase: dict) -> List[float]:
        """Due time to response, in ms, for a paced phase."""
        return [
            (answer.at - channel.due_at[i]) * 1e3
            for channel, i, answer in self.answered(phase["first"],
                                                    phase["last"])
        ]


def _flags(workload, rundir: str, tag: str) -> List[str]:
    """The workload's serve flags with fresh per-launch directories.
    Names stay short: cluster sockets live in the runtime directory and
    a Unix socket path may not exceed 107 bytes."""
    return [
        flag.format(data_dir=os.path.join(rundir, f"{tag}d"),
                    runtime_dir=os.path.join(rundir, f"{tag}r"))
        for flag in workload.serve_flags
    ]


def _launch_times(workload, root: str, rundir: str) -> List[float]:
    from served import Served

    times = []
    for launch in range(SETUP_LAUNCHES - 1):
        tag = f"s{launch}"
        served = Served(root, _flags(workload, rundir, tag),
                        os.path.join(rundir, f"{tag}.log"))
        times.append(served.setup_s)
        served.stop()
    return times


def measure(workload, plans, root: str, rundir: str, seconds: float):
    """The untraced run: end-to-end metrics.

    The measured time is cut into interleaved slices (capacity, then
    paced), and each metric is the median over slices, so a burst of
    CPU taken by other tenants of the machine moves one slice, not the
    result. ``ack_p99_ms`` is, per slice, the 99th percentile or the
    highest one with at least ten samples beyond it.
    """
    setup = _launch_times(workload, root, rundir)
    run = Run(workload, plans, root, rundir, "m")
    try:
        setup.append(run.served.setup_s)
        run.closed(WARMUP_S)
        steal0 = cpu_steal()
        slices = []
        for _ in range(SLICES):
            cpu0 = run.served.cpu()
            capacity = run.closed(seconds * CAPACITY_SHARE / SLICES)
            capacity["cpu_s"] = sum(run.served.cpu().values()) - sum(
                cpu0.values())
            paced = run.paced(seconds * (1 - CAPACITY_SHARE) / SLICES)
            slices.append((capacity, paced))
        steal = [b - a for a, b in zip(steal0, cpu_steal())]
        rss = run.finish()
    finally:
        run.close()
    rows = []
    for capacity, paced in slices:
        latencies = run.latencies(paced)
        tail = tail_quantile(len(latencies))
        capacity_requests = sum(1 for _ in run.answered(capacity["first"],
                                                        capacity["last"]))
        rows.append(dict(
            run.capacity(capacity),
            ack_p50_ms=percentile(latencies, 0.5),
            ack_p99_ms=percentile(latencies, tail),
            server_cpu_s=capacity["cpu_s"] / capacity_requests * 1e3,
            samples=len(latencies), tail=tail,
            lag_p99_ms=percentile(paced["lags"], 0.99) * 1e3,
        ))

    def median(key):
        return statistics.median(row[key] for row in rows)

    failures = run.failures()
    # Bounded metrics are the ones CPU steal from other tenants of a
    # shared machine moves least; the rates and latencies are printed.
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "server_cpu_s": (median("server_cpu_s"), "s/kreq"),
        "server_rss_mb": (rss, "MiB"),
    }
    info = {
        "records_per_s": round(median("records_per_s"), 1),
        "requests_per_s": round(median("requests_per_s"), 1),
        "ack_p50_ms": round(median("ack_p50_ms"), 4),
        "ack_p99_ms": round(median("ack_p99_ms"), 4),
        "slices (rec/s, p50 ms, p99 ms)": [
            f"{row['records_per_s']:.0f} {row['ack_p50_ms']:.2f} "
            f"{row['ack_p99_ms']:.2f}" for row in rows
        ],
        "latency samples per slice": rows[0]["samples"],
        "tail percentile": round(rows[0]["tail"] * 100, 2),
        "loadgen lag p99 ms": round(median("lag_p99_ms"), 3),
        "host CPU steal share": round(steal[0] / max(steal[1], 1), 3),
        "failed_share": failures["failed"] / failures["due"],
        "report_mismatches": run.check.mismatches,
        "mismatch examples": run.check.examples,
        "failures": failures,
        "oracle check s": round(run.check_s, 2),
        "checked": {"reports": run.check.reports,
                    "predicts": run.check.predicts,
                    "snapshots": run.check.snapshots},
    }
    return metrics, info


def measure_traced(workload, plans, root: str, rundir: str, seconds: float):
    """The traced run: untraced capacity, then per-layer metrics."""
    share = seconds / 4
    plain = Run(workload, plans, root, rundir, "u")
    try:
        plain.closed(WARMUP_S)
        capacity = plain.closed(share)
        plain.finish()
    finally:
        plain.close()
    untraced = plain.capacity(capacity)

    trace_dir = os.path.join(rundir, "spans")
    os.makedirs(trace_dir)
    # Fresh inputs cursor: the traced server replays the same plans.
    run = Run(workload, plans, root, rundir, "t", trace_dir=trace_dir)
    try:
        run.closed(WARMUP_S)
        diag0 = run.diagnostics()
        cpu0 = run.served.cpu()
        spans0 = run.dump_spans()
        traced_capacity = run.closed(share)
        paced = run.paced(share)
        spans1 = run.dump_spans()
        cpu1 = run.served.cpu()
        diag1 = run.diagnostics()
        run.finish()
    finally:
        run.close()

    from layers import diff_spans, layer_metrics, top_spans

    spans = diff_spans(spans0, spans1)
    records = requests = reports = bytes_out = 0
    snapshot_sizes, http_observe, scrapes = [], [], []
    for channel, i, answer in run.answered(traced_capacity["first"],
                                           paced["last"]):
        req = channel.reqs[i]
        requests += 1
        records += req.records
        bytes_out += answer.wire_bytes
        reports += len(answer.pushes)
        if channel.kind == "http" and isinstance(answer.body, dict):
            reports += len(answer.body.get("reports", []))
        if req.op == "snapshot":
            snapshot_sizes.append(answer.wire_bytes)
        if channel.kind == "http":
            sent = channel.due_at[i] or channel.sent_at[i]
            latency = (answer.at - sent) * 1e3
            if req.op == "observe":
                http_observe.append(latency)
            elif req.op == "metrics":
                scrapes.append(latency)
    traced = run.capacity(traced_capacity)
    kreq = requests / 1e3
    lags = [lag * 1e3 for lag in paced["lags"]]
    facts = {
        "records": records,
        "requests": requests,
        "reports": reports,
        "bytes_out": bytes_out,
        "snapshot_bytes": (statistics.mean(snapshot_sizes)
                           if snapshot_sizes else 0.0),
        "http_observe_p50_ms": (percentile(http_observe, 0.5)
                                if http_observe else 0.0),
        "scrape_p50_ms": percentile(scrapes, 0.5) if scrapes else 0.0,
        "cpu_ns": (sum(cpu1.values()) - sum(cpu0.values())) * 1e9,
        "dispatcher_cpu_s": ((cpu1["main"] - cpu0["main"]) / kreq
                             if workload.cluster else 0.0),
        "worker_cpu_s": (cpu1["workers"] - cpu0["workers"]) / kreq,
        "evictions": diag1["evicted"] - diag0["evicted"],
        "hydrations": diag1["hydrated"] - diag0["hydrated"],
        "coalesce_rounds": diag1["rounds"] - diag0["rounds"],
        "coalesce_requests": diag1["requests"] - diag0["requests"],
        "journal_fsyncs": (sum(d["journal_fsyncs"] for d in spans1)
                           - sum(d["journal_fsyncs"] for d in spans0)),
        "lag_p99_ms": percentile(lags, 0.99) if lags else 0.0,
        "overhead_ratio": (traced["records_per_s"]
                           / untraced["records_per_s"]),
    }
    metrics = layer_metrics(spans, facts)
    failures = plain.failures()
    for key, value in run.failures().items():
        failures[key] += value
    info = {
        "untraced records_per_s": round(untraced["records_per_s"], 1),
        "traced records_per_s": round(traced["records_per_s"], 1),
        "window records": records,
        "window requests": requests,
        "failed_share": failures["failed"] / failures["due"],
        "report_mismatches": plain.check.mismatches + run.check.mismatches,
        "mismatch examples": plain.check.examples + run.check.examples,
        "failures": failures,
        "top spans (self ns/record)": [
            f"{name[len('repro.'):]} calls={calls} {ns:.0f}"
            for name, calls, ns in top_spans(spans, records)
        ],
    }
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The loader keeps every request and response; a cyclic collection
    # over that heap stalls the paced sender for tens of milliseconds,
    # and nothing here creates reference cycles.
    gc.disable()
    # A terminated run still stops the servers it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (no src/repro "
              "here)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    from workloads import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}: {workload.why}")
    print(f"  serve {' '.join(workload.serve_flags)}")
    print(f"  seed {args.seed}; connections {list(workload.kinds)}; "
          f"closed-loop window {list(workload.window)}; paced "
          f"{list(workload.paced_rate)} req/s; {args.seconds:g} s measured")
    plans = generate(workload, args.seed)

    rundir = os.path.join(root, ".perfbench", str(os.getpid()))
    os.makedirs(rundir)
    try:
        runner = measure_traced if args.trace else measure
        metrics, info = runner(workload, plans, root, rundir, args.seconds)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(rundir))
        except OSError:
            pass

    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.4f} {unit}")
    for key, value in info.items():
        if isinstance(value, list):
            print(f"  {key}:")
            for item in value:
                print(f"    {item}")
        else:
            print(f"  {key}: {value}")
    correct = info["report_mismatches"] == 0
    failures = info["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": failures["due"],
        "failed": failures["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
