"""The workload generators are pure functions of the seed."""

import itertools

import pytest

from workloads import WORKLOADS, generate


def plan_bytes(plans, requests):
    """What each connection sends: its setup, then ``requests`` of its
    stream."""
    return [
        b"".join(req.wire for req in plan.setup)
        + b"".join(req.wire for req in itertools.islice(plan.stream(),
                                                        requests))
        for plan in plans
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    workload = WORKLOADS[name]
    first = plan_bytes(generate(workload, 7), 600)
    again = plan_bytes(generate(workload, 7), 600)
    other = plan_bytes(generate(workload, 8), 600)
    assert len(first) == 2 and all(first)
    assert first == again
    assert all(a != b for a, b in zip(first, other))
