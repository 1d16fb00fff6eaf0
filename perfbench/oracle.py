"""Check every served output against a scalar ``PhaseTracker`` replay.

Runs after timing ends. Each session's requests are replayed, in the
order its connection sent them, through a fresh scalar tracker per
session incarnation (a close ends one, the reopen starts the next):

- every pushed interval report (NDJSON) or returned report (HTTP
  observe-batch) must equal the oracle's ``TrackerReport.to_dict()``;
- every ``predict`` result must equal the oracle tracker's prediction;
- every ``snapshot`` document must equal the oracle tracker's snapshot.

A session whose request went unanswered or was refused is no longer
checked: the oracle cannot know whether the server applied it. Such
requests are counted as failed by the caller, not here.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import ClassifierConfig
from repro.core.online import PhaseTracker
from repro.service.snapshot import snapshot_tracker

from loadgen import Answer
from workloads import Req


@dataclass
class CheckResult:
    mismatches: int = 0
    reports: int = 0
    predicts: int = 0
    snapshots: int = 0
    examples: List[str] = field(default_factory=list)

    def merge(self, other: "CheckResult") -> None:
        self.mismatches += other.mismatches
        self.reports += other.reports
        self.predicts += other.predicts
        self.snapshots += other.snapshots
        self.examples = (self.examples + other.examples)[:5]

    def miss(self, count: int, what: str) -> None:
        if count:
            self.mismatches += count
            if len(self.examples) < 5:
                self.examples.append(what)


def _fields(body, cache: dict) -> dict:
    parsed = cache.get(body)
    if parsed is None:
        parsed = cache[body] = json.loads(b"{" + body.fields + b"}")
    return parsed


def _predict(name: str, tracker: PhaseTracker) -> dict:
    pending = tracker.next_phase.pending_prediction
    return {
        "session": name,
        "intervals": tracker.intervals_observed,
        "current_phase": tracker.current_phase,
        "predicted_next_phase": (
            pending.phase_id if pending is not None else None
        ),
        "prediction_confident": (
            pending.confident if pending is not None else False
        ),
        "prediction_source": (
            pending.source if pending is not None else None
        ),
        "predicted_length_class":
            tracker.length_predictor.outstanding_prediction,
    }


def pair(kind: str, reqs: Sequence[Req],
         answers: Sequence[Answer]) -> List[Optional[Answer]]:
    """The answer to each request, or ``None`` when none arrived.

    NDJSON answers carry the request id; HTTP answers arrive in request
    order on the one keep-alive connection."""
    if kind == "http":
        return list(answers) + [None] * (len(reqs) - len(answers))
    by_id = {answer.id: answer for answer in answers}
    return [by_id.get(req.id) for req in reqs]


def check(channels: Sequence[Tuple[str, Sequence[Req],
                                   Sequence[Optional[Answer]]]]
          ) -> CheckResult:
    """Replay ``(kind, requests, paired answers)`` per connection."""
    result = CheckResult()
    bodies: dict = {}
    for kind, reqs, answers in channels:
        trackers: Dict[str, PhaseTracker] = {}
        lost = set()
        for req, answer in zip(reqs, answers):
            name = req.session
            if req.op == "metrics" or name in lost:
                continue
            if answer is None or not answer.ok:
                lost.add(name)
                continue
            if req.op == "open":
                config = (ClassifierConfig(**req.config) if req.config
                          else ClassifierConfig.paper_default())
                trackers[name] = PhaseTracker(
                    config, interval_instructions=req.interval
                )
                continue
            tracker = trackers[name]
            if req.op == "observe":
                body = _fields(req.body, bodies)
                # A report's fields are its wire form; vars() is the
                # cheap equivalent of the dataclasses.asdict it uses.
                expected = [
                    vars(report) for report in tracker.observe_batch(
                        body["pcs"], body["counts"], cpi=body["cpi"]
                    )
                ]
                if kind == "http":
                    got = answer.body.get("reports", [])
                else:
                    got = [push.get("report") for push in answer.pushes]
                    result.miss(
                        sum(push.get("session") != name
                            for push in answer.pushes),
                        f"{name}: push for another session",
                    )
                result.reports += len(got)
                result.miss(
                    sum(a != b for a, b in zip(expected, got))
                    + abs(len(expected) - len(got)),
                    f"{name}: interval reports differ from the oracle",
                )
                result.miss(
                    int(answer.body.get("intervals") != len(expected)
                        or answer.body.get("branches") != req.records),
                    f"{name}: observe ack counts differ",
                )
            elif req.op == "predict":
                result.predicts += 1
                result.miss(int(answer.body != _predict(name, tracker)),
                            f"{name}: predict differs from the oracle")
            elif req.op == "snapshot":
                result.snapshots += 1
                expected = json.loads(json.dumps(snapshot_tracker(tracker)))
                result.miss(int(answer.body.get("snapshot") != expected),
                            f"{name}: snapshot differs from the oracle")
            elif req.op == "close":
                del trackers[name]
                result.miss(
                    int(answer.body.get("intervals")
                        != tracker.intervals_observed),
                    f"{name}: close counts differ",
                )
    return result


def check_parallel(channels, workdir: str) -> CheckResult:
    """:func:`check` with one child process per connection (each
    connection's sessions are independent), waiting for both. A job
    travels as a pickle in ``workdir``, without the requests' wire
    bytes, which the replay does not read."""
    children = []
    for index, (kind, reqs, answers) in enumerate(channels):
        path = os.path.join(workdir, f"check{index}.pickle")
        with open(path, "wb") as handle:
            pickle.dump((kind, [dataclasses.replace(req, wire=b"")
                                for req in reqs], answers), handle)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        children.append(
            (path, subprocess.Popen([sys.executable, __file__, path],
                                    env=env))
        )
    result = CheckResult()
    for path, child in children:
        if child.wait() != 0:
            raise RuntimeError(f"oracle check of {path} failed")
        with open(path + ".result", "rb") as handle:
            result.merge(CheckResult(**pickle.load(handle)))
    return result


if __name__ == "__main__":
    with open(sys.argv[1], "rb") as handle:
        job = pickle.load(handle)
    with open(sys.argv[1] + ".result", "wb") as handle:
        pickle.dump(vars(check([job])), handle)
