"""Property: hostile snapshots get the same verdict on both restore
paths.

Valid documents are mutated at a random location — a key dropped, a
value replaced by one of another type, an integer pushed out of range —
and handed to the scalar oracle (:func:`restore_tracker`) and to the
session registry, which lands default-configuration documents on its
pool. Both must accept or both reject with the same error class; every
rejection is a typed :class:`~repro.errors.ReproError` that leaves the
registry and its pool exactly as they were, and an accepted document
re-exports byte-identically from both.
"""

import copy

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core import ClassifierConfig, PhaseTracker
from repro.errors import ReproError
from repro.prediction import MarkovChangePredictor
from repro.service.session import SessionRegistry
from repro.service.snapshot import dumps, restore_tracker, snapshot_tracker


def _driven_document(change_predictor, config=None):
    tracker = PhaseTracker(
        config or ClassifierConfig.paper_default(),
        interval_instructions=1_000,
        change_predictor=change_predictor,
    )
    rng = np.random.default_rng(7)
    region = np.where(rng.random(1_500) < 0.5, 0x400000, 0x900000)
    pcs = (region + rng.integers(0, 48, size=1_500) * 4).tolist()
    counts = rng.integers(1, 90, size=1_500).tolist()
    tracker.observe_batch(pcs, counts, cpi=1.2)
    return snapshot_tracker(tracker)


BASES = [
    _driven_document("default"),
    _driven_document(MarkovChangePredictor(1, entry_kind="top4")),
    _driven_document(None),
    _driven_document("default", ClassifierConfig.paper_baseline()),
]

#: Replacement values of every JSON type (and a few awkward numbers).
OTHER_VALUES = [None, True, False, "abc", "7", 1.5, [], [1], {}, {"k": 1}]
OUT_OF_RANGE = [-1, -(2**63) - 1, 2**63, 2**64]


def _locations(node, prefix=()):
    """Every key/index path inside a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, value in children:
        yield prefix + (key,)
        yield from _locations(value, prefix + (key,))


LOCATIONS = [list(_locations(base)) for base in BASES]


@st.composite
def mutated_documents(draw):
    index = draw(st.integers(min_value=0, max_value=len(BASES) - 1))
    document = copy.deepcopy(BASES[index])
    path = draw(st.sampled_from(LOCATIONS[index]))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    kind = draw(st.sampled_from(["drop", "retype", "out_of_range"]))
    if kind == "drop":
        parent.pop(key)
    elif kind == "retype" or type(value) is not int:
        choices = [
            other for other in OTHER_VALUES if type(other) is not type(value)
        ]
        if type(value) is int:
            choices.append(float(value))
        parent[key] = draw(st.sampled_from(choices))
    else:
        parent[key] = draw(st.sampled_from(OUT_OF_RANGE))
    return document


def _outcome(restore):
    try:
        return restore(), None
    except Exception as error:  # noqa: BLE001 - the property inspects it
        return None, error


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(document=mutated_documents())
def test_oracle_and_pool_path_agree_on_hostile_snapshots(document):
    # A full table: a rejected open must not evict the bystander.
    registry = SessionRegistry(max_sessions=1)
    registry.open("bystander")
    slots = registry.pool.active_slots

    oracle, oracle_error = _outcome(
        lambda: restore_tracker(copy.deepcopy(document))
    )
    session, pool_error = _outcome(
        lambda: registry.open("m", snapshot=copy.deepcopy(document))
    )

    if oracle_error is None:
        assert pool_error is None, pool_error
        assert dumps(snapshot_tracker(session.tracker)) == dumps(
            snapshot_tracker(oracle)
        )
        return
    assert isinstance(oracle_error, ReproError), oracle_error
    assert type(pool_error) is type(oracle_error), (oracle_error, pool_error)
    assert registry.pool.active_slots == slots
    assert registry.names() == ["bystander"]
    assert registry.stats()["evicted"] == 0
