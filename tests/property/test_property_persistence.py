"""Property: a checkpoint plus journal-tail replay reconstructs a
tracker byte-identical to one that was never evicted or crashed, for
arbitrary classifier configurations, branch streams, checkpoint
positions, batch boundaries, session schedules and recovery caps
(hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core import ClassifierConfig, PhaseTracker
from repro.errors import SessionNotFoundError
from repro.persistence import CheckpointStore, Journal, PersistenceManager
from repro.service.session import SessionRegistry
from repro.service.snapshot import dumps, snapshot_tracker

INTERVAL_INSTRUCTIONS = 1_500
BRANCHES = 1_200

configs = st.builds(
    ClassifierConfig,
    num_counters=st.sampled_from([8, 16, 32]),
    bits_per_counter=st.sampled_from([4, 6]),
    table_entries=st.sampled_from([None, 4, 32]),
    similarity_threshold=st.sampled_from([0.0625, 0.125, 0.25]),
    min_count_threshold=st.integers(min_value=0, max_value=8),
    match_policy=st.sampled_from(["first", "most_similar"]),
    bit_selector=st.sampled_from(["static", "dynamic"]),
    perf_dev_threshold=st.sampled_from([None, 0.25, 0.5]),
)


def branch_stream(seed):
    rng = np.random.default_rng(seed)
    region = np.where(rng.random(BRANCHES) < 0.5, 0x400000, 0x900000)
    pcs = (region + rng.integers(0, 48, size=BRANCHES) * 4).tolist()
    counts = rng.integers(1, 90, size=BRANCHES).tolist()
    return pcs, counts


def batched(pcs, counts, batch_size):
    for start in range(0, len(pcs), batch_size):
        yield pcs[start:start + batch_size], counts[start:start + batch_size]


def recover(root, max_sessions=64):
    """Crash-recover ``root`` into a fresh registry."""
    manager = PersistenceManager(root)
    registry = SessionRegistry(max_sessions=max_sessions)
    manager.install_into(registry)
    return manager, registry


@given(
    config=configs,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    batch_size=st.sampled_from([37, 100, 256]),
    checkpoint_fraction=st.floats(min_value=0.0, max_value=1.0),
    cpi=st.sampled_from([1.0, 1.3]),
)
@settings(max_examples=20, deadline=None)
def test_checkpoint_plus_tail_replay_is_byte_identical(
    tmp_path_factory, config, seed, batch_size, checkpoint_fraction, cpi
):
    """Drive one tracker while journaling every batch (the server's
    write-ahead discipline), checkpoint at an arbitrary point, then
    recover from disk alone and compare full snapshots."""
    root = tmp_path_factory.mktemp("persist")
    pcs, counts = branch_stream(seed)
    batches = list(batched(pcs, counts, batch_size))
    checkpoint_after = int(len(batches) * checkpoint_fraction)

    checkpoints = CheckpointStore(root / "checkpoints")
    reference = PhaseTracker(
        config, interval_instructions=INTERVAL_INSTRUCTIONS
    )
    config_overrides = {
        "num_counters": config.num_counters,
        "bits_per_counter": config.bits_per_counter,
        "table_entries": config.table_entries,
        "similarity_threshold": config.similarity_threshold,
        "min_count_threshold": config.min_count_threshold,
        "match_policy": config.match_policy,
        "bit_selector": config.bit_selector,
        "perf_dev_threshold": config.perf_dev_threshold,
    }
    with Journal(root / "journal") as journal:
        journal.append({
            "kind": "open", "session": "s",
            "config": config_overrides,
            "interval_instructions": INTERVAL_INSTRUCTIONS,
            "snapshot": None,
        })
        for index, (batch_pcs, batch_counts) in enumerate(batches):
            reference.observe_batch(batch_pcs, batch_counts, cpi=cpi)
            seq = journal.append({
                "kind": "observe", "session": "s",
                "pcs": batch_pcs, "counts": batch_counts, "cpi": cpi,
            })
            if index + 1 == checkpoint_after:
                checkpoints.write("s", {
                    "seq": seq,
                    "snapshot": snapshot_tracker(reference),
                    "meta": {},
                })

    manager, registry = recover(root)
    result = manager.recovery
    assert result.damaged_sessions == 0
    assert result.orphaned_records == 0
    if checkpoint_after == len(batches) and checkpoint_after > 0:
        # Checkpoint covers everything: the session stays cold and its
        # checkpoint alone must reproduce the reference.
        assert list(result.cold) == ["s"]
        from repro.service.snapshot import restore_tracker

        recovered = restore_tracker(checkpoints.load("s")["snapshot"])
    else:
        assert registry.names() == ["s"]
        recovered = registry.get("s").tracker
    manager.close()

    assert dumps(snapshot_tracker(recovered)) == dumps(
        snapshot_tracker(reference)
    )


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    cut_bytes=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=15, deadline=None)
def test_torn_tail_recovers_a_valid_prefix(
    tmp_path_factory, seed, cut_bytes
):
    """Chopping an arbitrary number of bytes off the journal tail —
    any crash point — always yields a tracker identical to one driven
    with some prefix of the batches."""
    root = tmp_path_factory.mktemp("torn")
    pcs, counts = branch_stream(seed)
    batches = list(batched(pcs, counts, 150))

    with Journal(root / "journal") as journal:
        journal.append({
            "kind": "open", "session": "s", "config": None,
            "interval_instructions": INTERVAL_INSTRUCTIONS,
            "snapshot": None,
        })
        for batch_pcs, batch_counts in batches:
            journal.append({
                "kind": "observe", "session": "s",
                "pcs": batch_pcs, "counts": batch_counts, "cpi": 1.0,
            })
    from repro.persistence import list_segments

    segment = list_segments(root / "journal")[-1]
    with open(segment, "rb+") as handle:
        handle.truncate(max(0, segment.stat().st_size - cut_bytes))

    manager, registry = recover(root)
    manager.close()
    result = manager.recovery
    assert result.damaged_sessions == 0
    surviving = result.replayed_records - (1 if len(registry) else 0)

    prefix = PhaseTracker(interval_instructions=INTERVAL_INSTRUCTIONS)
    for batch_pcs, batch_counts in batches[:surviving]:
        prefix.observe_batch(batch_pcs, batch_counts, cpi=1.0)
    if len(registry):
        assert dumps(snapshot_tracker(registry.get("s").tracker)) == dumps(
            snapshot_tracker(prefix)
        )
    else:
        # Even the open record was torn off: nothing to recover is a
        # valid (empty) prefix.
        assert surviving <= 0


NAMES = ["s0", "s1", "s2", "s3", "s4"]
#: A configuration the registry's pool cannot host: a scalar tracker.
FOREIGN = {"num_counters": 16, "table_entries": 16}

#: Opens and observes dominate, so a crash usually leaves more live
#: sessions with a journal tail than a smaller recovery cap holds.
KINDS = ["open"] * 3 + ["observe"] * 5 + ["close", "checkpoint"]


@st.composite
def schedule_ops(draw):
    """One schedule step: ``(kind, name, argument)``."""
    kind = draw(st.sampled_from(KINDS))
    name = draw(st.sampled_from(NAMES))
    if kind == "open":
        # Foreign config (a scalar tracker) one open in four.
        return kind, name, draw(st.sampled_from([False] * 3 + [True]))
    if kind == "observe":
        return kind, name, draw(st.integers(min_value=0, max_value=2**16))
    return kind, name, None


@seed(20261018)
@settings(max_examples=15, deadline=None)
@given(
    cap=st.integers(min_value=1, max_value=4),
    schedule=st.lists(schedule_ops(), min_size=8, max_size=30),
    data=st.data(),
)
def test_recovery_at_any_cap_matches_the_oracle(
    tmp_path_factory, cap, schedule, data
):
    """Drive a random schedule of opens (default and foreign configs),
    observes, closes, checkpoint sweeps and cap-driven evictions the way
    the server does, crash, and recover at a cap no larger than the
    original: every surviving session matches a scalar tracker fed the
    same stream byte for byte, closed names stay closed, and the pool
    never grows past the recovery cap."""
    root = tmp_path_factory.mktemp("schedule")
    manager, registry = recover(root, max_sessions=cap)
    oracles = {}
    closed = set()
    for kind, name, argument in schedule:
        if kind == "open":
            if name in registry or name in manager.cold_names():
                continue
            config = FOREIGN if argument else None
            registry.open(
                name, config=config,
                interval_instructions=INTERVAL_INSTRUCTIONS,
            )
            manager.log_open(
                name, config=config,
                interval_instructions=INTERVAL_INSTRUCTIONS,
            )
            oracles[name] = PhaseTracker(
                ClassifierConfig(**config) if config else None,
                interval_instructions=INTERVAL_INSTRUCTIONS,
            )
            closed.discard(name)
        elif kind == "observe":
            if name not in oracles:
                continue
            pcs, counts = branch_stream(argument)
            pcs, counts = pcs[:150], counts[:150]
            session = registry.get(name)
            reports = session.tracker.observe_batch(pcs, counts, cpi=1.2)
            session.intervals_pushed += len(reports)
            session.branches_ingested += len(pcs)
            manager.log_observe(name, pcs, counts, cpi=1.2)
            oracles[name].observe_batch(pcs, counts, cpi=1.2)
        elif kind == "close":
            if name not in oracles:
                continue
            registry.close(name)
            manager.log_close(name)
            del oracles[name]
            closed.add(name)
        else:
            manager.checkpoint_all(registry.sessions())
    del manager, registry  # kill -9: no final checkpoint, no close

    recovery_cap = data.draw(st.integers(min_value=1, max_value=cap))
    manager, registry = recover(root, max_sessions=recovery_cap)
    assert manager.recovery.damaged_sessions == 0
    assert registry.pool.capacity <= recovery_cap
    for name, oracle in oracles.items():
        tracker = registry.get(name).tracker
        assert dumps(snapshot_tracker(tracker)) == dumps(
            snapshot_tracker(oracle)
        )
        assert registry.pool.capacity <= recovery_cap
    for name in closed:
        with pytest.raises(SessionNotFoundError):
            registry.get(name)
    manager.close()
