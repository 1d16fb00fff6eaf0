"""Property: a TrackerPool of N randomly configured trackers is
state-identical — byte-equal exported snapshots and equal report
streams — to N scalar PhaseTrackers fed the same interleaved branch
streams, including a mid-stream evict-to-disk / hydrate round trip
through :mod:`repro.persistence` (hypothesis)."""

import json
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClassifierConfig, PhaseTracker, TrackerPool
from repro.persistence import PersistenceManager
from repro.service.session import SessionRegistry

INTERVAL_INSTRUCTIONS = 1_500
TRACKERS = 3

# Finite tables only: the pool (correctly) refuses table_entries=None.
configs = st.builds(
    ClassifierConfig,
    num_counters=st.sampled_from([8, 16]),
    bits_per_counter=st.sampled_from([4, 6]),
    table_entries=st.sampled_from([2, 4, 16]),
    similarity_threshold=st.sampled_from([0.0625, 0.125, 0.25]),
    min_count_threshold=st.integers(min_value=0, max_value=4),
    match_policy=st.sampled_from(["first", "most_similar"]),
    bit_selector=st.sampled_from(["static", "dynamic"]),
    static_low_bit=st.sampled_from([0, 2]),
    perf_dev_threshold=st.sampled_from([None, 0.25]),
)


def interleaved_stream(seed, records):
    rng = np.random.default_rng(seed)
    slots = rng.integers(0, TRACKERS, size=records)
    region = np.where(rng.random(records) < 0.5, 0x400000, 0x900000)
    pcs = region + (slots * 64 + rng.integers(0, 24, size=records)) * 4
    counts = rng.integers(0, 120, size=records)
    return slots, pcs, counts


def scalar_replay(scalars, slots, pcs, counts, cpi):
    reports = []
    for slot, pc, count in zip(slots, pcs, counts):
        for report in scalars[slot].observe_batch([pc], [count], cpi=cpi):
            reports.append((int(slot), report))
    return reports


@settings(max_examples=25, deadline=None)
@given(
    config=configs,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rounds=st.integers(min_value=2, max_value=6),
)
def test_pool_state_identical_to_scalar_trackers(config, seed, rounds):
    scalars = [
        PhaseTracker(config, interval_instructions=INTERVAL_INSTRUCTIONS)
        for _ in range(TRACKERS)
    ]
    pool = TrackerPool(capacity=TRACKERS, config=config)
    handles = [
        pool.acquire(interval_instructions=INTERVAL_INSTRUCTIONS)
        for _ in range(TRACKERS)
    ]
    for round_index in range(rounds):
        slots, pcs, counts = interleaved_stream(
            seed + round_index, records=250
        )
        cpi = 1.0 + 0.25 * (round_index % 3)
        expected = scalar_replay(scalars, slots, pcs, counts, cpi)
        slot_ids = np.array([handles[index].slot for index in slots])
        slot_of = {handle.slot: i for i, handle in enumerate(handles)}
        got = [
            (slot_of[slot], report)
            for slot, report in pool.observe_batch(
                slot_ids, pcs, counts, cpi=cpi
            )
        ]
        assert got == expected
    for scalar, handle in zip(scalars, handles):
        assert json.dumps(scalar.export_state(), sort_keys=True) == (
            json.dumps(handle.export_state(), sort_keys=True)
        )


@settings(max_examples=10, deadline=None)
@given(
    config=configs,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pool_survives_evict_hydrate_through_persistence(config, seed):
    """Mid-stream, every session is evicted to disk by the registry's
    idle TTL (checkpointed by the persistence tier, its pool slot
    released) and hydrated back on next use: default-config sessions
    onto fresh slots of the registry's pool, the randomly configured
    one onto a scalar tracker. The final states must still be
    byte-equal to uninterrupted scalars."""
    clock = [0.0]
    with tempfile.TemporaryDirectory() as data_dir:
        registry = SessionRegistry(
            max_sessions=TRACKERS + 1,
            idle_ttl=10.0,
            clock=lambda: clock[0],
        )
        pool = registry.pool
        manager = PersistenceManager(data_dir, clock=lambda: clock[0])
        manager.install_into(registry)

        from dataclasses import asdict

        names = [f"s{index}" for index in range(TRACKERS)]
        # The last session is foreign to the pool (the strategy never
        # draws the paper default); the others share the pool's config.
        session_configs = [pool.config] * (TRACKERS - 1) + [config]
        for name, session_config in zip(names, session_configs):
            registry.open(
                name,
                config=asdict(session_config),
                interval_instructions=INTERVAL_INSTRUCTIONS,
            )
        scalars = [
            PhaseTracker(
                session_config, interval_instructions=INTERVAL_INSTRUCTIONS
            )
            for session_config in session_configs
        ]

        def feed(round_seed, cpi):
            slots, pcs, counts = interleaved_stream(round_seed, records=200)
            scalar_replay(scalars, slots, pcs, counts, cpi)
            for index, name in enumerate(names):
                mask = slots == index
                if mask.any():
                    registry.get(name).tracker.observe_batch(
                        pcs[mask], counts[mask], cpi=cpi
                    )

        feed(seed, cpi=1.25)
        # All sessions go idle past the TTL: evicted to disk via the
        # persistence on_evict hook, pool slots released.
        clock[0] += 60.0
        assert registry.expire_idle() == names
        assert pool.active_slots == 0
        assert manager.evict_saves == TRACKERS

        # Touching the sessions hydrates them back (onto pool slots).
        feed(seed + 1, cpi=0.8)
        assert registry.sessions_hydrated == TRACKERS
        # Hydration landed the default-config sessions back on pool
        # slots; the foreign one stays scalar.
        assert pool.active_slots == TRACKERS - 1

        for index, name in enumerate(names):
            assert json.dumps(
                scalars[index].export_state(), sort_keys=True
            ) == json.dumps(
                registry.get(name).tracker.export_state(), sort_keys=True
            )
