"""Cluster workers serve observes through coalesced rounds: an
end-to-end check that a pool-backed cluster answers exactly like a
single service and like the scalar-tracker oracle."""

import json

import numpy as np

from repro.cluster import start_cluster_in_thread
from repro.service import PhaseServiceClient, start_in_thread
from tests.service.wire_oracle import expected_reports

INTERVAL = 5_000


def test_cluster_coalesced_reports_match_single_service(tmp_path):
    rng = np.random.default_rng(5)
    pcs = (0x400000 + rng.integers(0, 48, size=4_000) * 4).tolist()
    counts = rng.integers(1, 120, size=4_000).tolist()
    plan = [{
        "op": "open", "id": 0, "session": "s-ref",
        "interval_instructions": INTERVAL,
    }]
    for start in range(0, len(pcs), 400):
        plan.append({
            "op": "observe", "id": len(plan), "session": "s-ref",
            "pcs": pcs[start:start + 400],
            "counts": counts[start:start + 400], "cpi": 1.25,
        })

    def collect(client, name):
        client.open_session(
            session=name, interval_instructions=INTERVAL
        )
        reports = []
        for request in plan[1:]:
            reports += client.observe(
                name, request["pcs"], request["counts"], cpi=1.25,
            )
        client.close_session(name)
        return [json.dumps(report, sort_keys=True) for report in reports]

    with start_in_thread(max_sessions=8) as handle:
        with PhaseServiceClient(port=handle.port) as client:
            single = collect(client, "s-ref")

    handle = start_cluster_in_thread(
        workers=2, runtime_dir=str(tmp_path / "run"), pool_slots=8,
    )
    try:
        with PhaseServiceClient(port=handle.port) as client:
            actual = collect(client, "s-ref")
    finally:
        handle.stop()
    expected = [
        json.dumps(report, sort_keys=True)
        for report in expected_reports(plan)
    ]
    assert actual == single == expected
    assert len(actual) > 0
