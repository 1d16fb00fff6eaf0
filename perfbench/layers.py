"""Per-layer metrics from the traced run.

Inputs are two span dumps per served process (taken at the start and
the end of the measuring window), the services' own ``diagnostics``
before and after, ``/proc`` CPU over the window, and what the client
saw in the window. Per-call figures use a span's inclusive time (what
one call costs); the reconciliation uses self time, so that summed over
every layer it never counts a nanosecond twice:

    server CPU ns/record = sum of layer self ns/record + unaccounted
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from tracehook.spantrace import LAYER_MODULES

#: Module groups whose self time is reported, in pipeline order.
GROUPS = tuple(module[len("repro."):] for module in LAYER_MODULES)


def diff_spans(before: List[dict], after: List[dict]) -> Dict[str, list]:
    """Sum ``after - before`` span aggregates over processes."""
    total: Dict[str, list] = defaultdict(lambda: [0, 0, 0, 0, 0])
    for sign, dumps in ((-1, before), (1, after)):
        for dump in dumps:
            for name, rec in dump["spans"].items():
                acc = total[name]
                for i, value in enumerate(rec):
                    acc[i] += sign * value
    return dict(total)


def _group(span_name: str) -> str:
    name = span_name[len("repro."):]
    return next(group for group in GROUPS if name.startswith(group + "."))


def _div(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: Dict[str, list], window: dict) -> Dict[str, tuple]:
    """``{metric: (value, unit)}`` for the per-layer table.

    ``window`` carries the client- and service-side counts: records,
    requests, reports, bytes_out, snapshot_bytes, http observe and
    scrape latencies, cpu_ns, dispatcher/worker CPU, registry and
    coalesce counter deltas, journal fsyncs, lag and overhead ratio.
    """

    def calls(name):
        return spans.get("repro." + name, [0] * 5)[0]

    def total(name):
        return spans.get("repro." + name, [0] * 5)[1]

    def self_time(name):
        return spans.get("repro." + name, [0] * 5)[2]

    def units(name, which=0):
        return spans.get("repro." + name, [0] * 5)[3 + which]

    def per_call(name):
        return _div(total(name), calls(name))

    records = window["records"]
    requests = window["requests"]
    fanin = "core.pool.TrackerPool.observe_fanin"
    pool_batch = "core.pool.TrackerPool.observe_batch"
    scalar_batch = "core.online.PhaseTracker.observe_batch"
    log_observe = "persistence.manager.PersistenceManager.log_observe"
    coalesced = window["coalesce_requests"]
    metrics = {
        "service.protocol.parse_ns_per_record": (
            _div(total("service.protocol.parse_request"), records), "ns"),
        "service.protocol.parse_ns_per_request": (
            per_call("service.protocol.parse_request"), "ns"),
        "service.protocol.encode_ns_per_payload": (
            per_call("service.protocol.encode"), "ns"),
        "service.protocol.payloads_per_request": (
            _div(calls("service.protocol.encode"), requests), "ratio"),
        "service.protocol.bytes_out_per_record": (
            _div(window["bytes_out"], records), "B/rec"),
        # Self time: the lookup itself, without a cold session's hydration.
        "service.session.get_ns": (
            _div(self_time("service.session.SessionRegistry.get"),
                 calls("service.session.SessionRegistry.get")), "ns"),
        "service.session.evictions": (window["evictions"], "count"),
        "service.session.hydrations": (window["hydrations"], "count"),
        "service.coalesce.requests_per_round": (
            _div(coalesced, window["coalesce_rounds"]), "ratio"),
        "service.coalesce.fallback_share": (
            _div(coalesced - units(fanin, 1), coalesced), "ratio"),
        "service.snapshot.export_ns": (
            per_call("service.snapshot.snapshot_tracker"), "ns"),
        "service.snapshot.bytes_per_snapshot": (
            window["snapshot_bytes"], "B"),
        "core.pool.fanin_ns_per_record": (
            _div(total(fanin), units(fanin)), "ns"),
        "core.pool.records_per_fanin": (
            _div(units(fanin), calls(fanin)), "ratio"),
        "core.pool.observe_batch_ns_per_record": (
            _div(total(pool_batch), units(pool_batch)), "ns"),
        "core.online.observe_batch_ns_per_record": (
            _div(total(scalar_batch), units(scalar_batch)), "ns"),
        "core.online.to_dict_ns_per_report": (
            per_call("core.online.TrackerReport.to_dict"), "ns"),
        "core.online.to_dict_calls_per_report": (
            _div(calls("core.online.TrackerReport.to_dict"),
                 window["reports"]), "ratio"),
        "persistence.log_observe_ns_per_record": (
            _div(total(log_observe), units(log_observe)), "ns"),
        "persistence.journal_syncs": (window["journal_fsyncs"], "count"),
        "persistence.save_ns": (
            per_call("persistence.manager.PersistenceManager.save_session"),
            "ns"),
        "persistence.resolve_ns": (
            per_call("persistence.manager.PersistenceManager.resolve"),
            "ns"),
        "telemetry.emit_ns_per_event": (
            per_call("telemetry.hub.Telemetry.emit"), "ns"),
        "obs.gateway.observe_batch_p50_ms": (
            window["http_observe_p50_ms"], "ms"),
        "obs.gateway.metrics_scrape_ms": (window["scrape_p50_ms"], "ms"),
        "cluster.dispatcher.route_ns": (
            per_call("cluster.dispatcher.ClusterDispatcher.route"), "ns"),
        "cluster.dispatcher.cpu_s": (window["dispatcher_cpu_s"], "s/kreq"),
        "cluster.worker.cpu_s": (window["worker_cpu_s"], "s/kreq"),
    }
    self_ns = defaultdict(int)
    for name, rec in spans.items():
        self_ns[_group(name)] += rec[2]
    for group in GROUPS:
        metrics[f"{group}.self_ns_per_record"] = (
            _div(self_ns[group], records), "ns")
    cpu_per_record = _div(window["cpu_ns"], records)
    metrics["service.server.cpu_ns_per_record"] = (cpu_per_record, "ns")
    metrics["service.server.unaccounted_ns_per_record"] = (
        cpu_per_record - _div(sum(self_ns.values()), records), "ns")
    metrics["loadgen.lag_p99_ms"] = (window["lag_p99_ms"], "ms")
    metrics["trace.overhead_ratio"] = (window["overhead_ratio"], "ratio")
    return metrics


def top_spans(spans: Dict[str, list], records: int, count: int = 12):
    """The spans with the most self time: ``(name, calls, self ns/rec)``."""
    ranked = sorted(spans.items(), key=lambda item: -item[1][2])
    return [
        (name, rec[0], _div(rec[2], records))
        for name, rec in ranked[:count] if rec[2] > 0
    ]
