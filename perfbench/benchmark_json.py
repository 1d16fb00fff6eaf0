"""Build ``BENCHMARK.json`` from the workload table and the metric lists.

Run from the repository root after changing a workload, a metric or a
bound::

    python3 perfbench/benchmark_json.py > BENCHMARK.json
"""

from __future__ import annotations

import json
from collections import defaultdict

from layers import layer_metrics
from workloads import WORKLOADS

RUN_SECONDS = 12

#: (name, unit, better, bound). Only metrics that CPU steal on a shared
#: machine moves least are bounded; perfbench/README.md gives the spreads
#: that kept the wall-clock rates and latencies out.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("server_cpu_s", "s/kreq", "lower", 0.25),
    ("server_rss_mb", "MiB", "lower", 0.1),
)

#: Per-layer metrics where a larger value is the better one.
HIGHER_IS_BETTER = {
    "service.coalesce.requests_per_round",
    "core.pool.records_per_fanin",
    "trace.overhead_ratio",
}


def document() -> dict:
    per_layer = layer_metrics({}, defaultdict(int))
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit,
             "better": "higher" if name in HIGHER_IS_BETTER else "lower"}
            for name, (_, unit) in per_layer.items()
        ],
    }


if __name__ == "__main__":
    print(json.dumps(document(), indent=2))
