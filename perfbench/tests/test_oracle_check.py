"""The oracle check is not vacuous: it passes a real served transcript
and fails the same transcript with one report or one snapshot changed."""

import copy

import pytest

from conftest import ROOT
from oracle import check
from run import Run
from workloads import WORKLOADS, generate


@pytest.fixture(scope="module")
def transcript(tmp_path_factory):
    workload = WORKLOADS["ops_mix"]
    run = Run(workload, generate(workload, 3), ROOT,
              str(tmp_path_factory.mktemp("run")), "check")
    run.closed(1.0)
    run.finish()
    assert run.failures()["failed"] == 0
    return [
        (channel.kind, channel.reqs, paired)
        for channel, paired in zip(run.channels, run.paired)
    ]


def _first(transcript, predicate):
    for c, (_, reqs, answers) in enumerate(transcript):
        for i, (req, answer) in enumerate(zip(reqs, answers)):
            if predicate(req, answer):
                return c, i
    raise AssertionError("transcript has no such answer")


def _corrupted(transcript, c, i, mutate):
    kind, reqs, answers = transcript[c]
    answers = list(answers)
    answers[i] = copy.deepcopy(answers[i])
    mutate(answers[i])
    changed = list(transcript)
    changed[c] = (kind, reqs, answers)
    return changed


def test_served_transcript_matches_the_oracle(transcript):
    result = check(transcript)
    assert result.mismatches == 0, result.examples
    assert result.reports and result.snapshots and result.predicts


def test_one_corrupted_push_is_caught(transcript):
    c, i = _first(transcript, lambda req, a: req.op == "observe"
                  and a.pushes)

    def mutate(answer):
        answer.pushes[0]["report"]["phase_id"] += 1

    assert check(_corrupted(transcript, c, i, mutate)).mismatches == 1


def test_one_corrupted_snapshot_is_caught(transcript):
    c, i = _first(transcript, lambda req, a: req.op == "snapshot")

    def mutate(answer):
        tracker = answer.body["snapshot"]["tracker"]
        tracker["interval_index"] = tracker.get("interval_index", 0) + 1

    assert check(_corrupted(transcript, c, i, mutate)).mismatches == 1
