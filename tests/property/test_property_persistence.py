"""Property: a checkpoint plus journal-tail replay reconstructs a
tracker byte-identical to one that was never evicted or crashed, for
arbitrary classifier configurations, branch streams, checkpoint
positions, and batch boundaries (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClassifierConfig, PhaseTracker
from repro.persistence import CheckpointStore, Journal, recover_state
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

    result = recover_state(root / "journal", checkpoints, SessionRegistry())
    assert result.damaged_sessions == 0
    assert result.orphaned_records == 0
    if checkpoint_after == len(batches) and checkpoint_after > 0:
        # Checkpoint covers everything: the session stays cold and its
        # checkpoint alone must reproduce the reference.
        assert list(result.cold) == ["s"]
        from repro.service.snapshot import restore_tracker

        recovered = restore_tracker(checkpoints.load("s")["snapshot"])
    else:
        assert list(result.live) == ["s"]
        recovered = result.live["s"].tracker

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

    checkpoints = CheckpointStore(root / "checkpoints")
    result = recover_state(root / "journal", checkpoints, SessionRegistry())
    assert result.damaged_sessions == 0
    surviving = result.replayed_records - (1 if result.live else 0)

    prefix = PhaseTracker(interval_instructions=INTERVAL_INSTRUCTIONS)
    for batch_pcs, batch_counts in batches[:surviving]:
        prefix.observe_batch(batch_pcs, batch_counts, cpi=1.0)
    if result.live:
        assert dumps(snapshot_tracker(result.live["s"].tracker)) == dumps(
            snapshot_tracker(prefix)
        )
    else:
        # Even the open record was torn off: nothing to recover is a
        # valid (empty) prefix.
        assert surviving <= 0
