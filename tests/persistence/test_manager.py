"""The PersistenceManager end to end through a real SessionRegistry:
evict-to-disk, hydrate-on-demand byte-identity, in-process crash
recovery, checkpoint sweeps, and compaction."""

import numpy as np
import pytest

from repro.core import PhaseTracker
from repro.errors import (
    ServiceOverloadedError,
    SessionExistsError,
    SessionNotFoundError,
)
from repro.persistence import PersistenceManager, list_segments
from repro.service.session import SessionRegistry
from repro.service.snapshot import dumps, snapshot_tracker

INTERVAL_INSTRUCTIONS = 2_000
BASE_A, BASE_B = 0x400000, 0x900000


def branch_batches(seed, batches, batch_size=200):
    rng = np.random.default_rng(seed)
    out = []
    for index in range(batches):
        base = BASE_A if (index // 3) % 2 == 0 else BASE_B
        pcs = (base + rng.integers(0, 48, size=batch_size) * 4).tolist()
        counts = rng.integers(10, 60, size=batch_size).tolist()
        out.append((pcs, counts))
    return out


def durable_registry(tmp_path, max_sessions=4, **kwargs):
    manager = PersistenceManager(tmp_path / "data", **kwargs)
    registry = SessionRegistry(max_sessions=max_sessions)
    installed = manager.install_into(registry)
    return manager, registry, installed


def open_and_drive(manager, registry, name, batches):
    """Mimic the server's apply-then-journal discipline."""
    session = registry.open(
        name=name, interval_instructions=INTERVAL_INSTRUCTIONS
    )
    manager.log_open(
        name, interval_instructions=INTERVAL_INSTRUCTIONS
    )
    drive(manager, session, batches)
    return session


def drive(manager, session, batches):
    for pcs, counts in batches:
        reports = session.tracker.observe_batch(pcs, counts, cpi=1.1)
        session.intervals_pushed += len(reports)
        session.branches_ingested += len(pcs)
        manager.log_observe(session.name, pcs, counts, cpi=1.1)


class TestEvictHydrate:
    def test_evicted_session_hydrates_byte_identical(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path, max_sessions=2)
        batches = branch_batches(seed=1, batches=4)
        open_and_drive(manager, registry, "victim", batches)
        before = dumps(snapshot_tracker(registry.get("victim").tracker))

        # Two more opens push "victim" out through the LRU hook.
        open_and_drive(manager, registry, "b", batches[:1])
        open_and_drive(manager, registry, "c", batches[:1])
        assert "victim" not in registry
        assert manager.cold_names() == ["victim"]
        assert registry.stats()["evicted_saved"] == 1

        session = registry.get("victim")  # hydrates transparently
        assert dumps(snapshot_tracker(session.tracker)) == before
        assert session.branches_ingested == 4 * 200
        assert registry.stats()["hydrated"] == 1
        # Hydrating into a full registry pushed the LRU session ("b")
        # out to disk in its place — nothing was destroyed.
        assert manager.cold_names() == ["b"]

    def test_hydrated_session_continues_identically(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path, max_sessions=2)
        batches = branch_batches(seed=2, batches=6)
        reference = PhaseTracker(
            interval_instructions=INTERVAL_INSTRUCTIONS
        )
        for pcs, counts in batches:
            reference.observe_batch(pcs, counts, cpi=1.1)

        open_and_drive(manager, registry, "victim", batches[:3])
        open_and_drive(manager, registry, "b", batches[:1])
        open_and_drive(manager, registry, "c", batches[:1])  # evicts
        session = registry.get("victim")
        drive(manager, session, batches[3:])
        assert dumps(snapshot_tracker(session.tracker)) == dumps(
            snapshot_tracker(reference)
        )

    def test_open_refuses_cold_names(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path, max_sessions=2)
        batches = branch_batches(seed=3, batches=1)
        open_and_drive(manager, registry, "victim", batches)
        open_and_drive(manager, registry, "b", batches)
        open_and_drive(manager, registry, "c", batches)  # evicts victim
        with pytest.raises(SessionExistsError, match="evicted to disk"):
            registry.open(name="victim")

    def test_generated_names_skip_cold_names(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path, max_sessions=2)
        batches = branch_batches(seed=4, batches=1)
        open_and_drive(manager, registry, "session-1", batches)
        open_and_drive(manager, registry, "b", batches)
        open_and_drive(manager, registry, "c", batches)  # session-1 cold
        session = registry.open()
        assert session.name != "session-1"

    def test_closing_a_cold_session_frees_its_name(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path, max_sessions=2)
        batches = branch_batches(seed=5, batches=1)
        open_and_drive(manager, registry, "victim", batches)
        open_and_drive(manager, registry, "b", batches)
        open_and_drive(manager, registry, "c", batches)  # evicts victim
        registry.close("victim")
        manager.log_close("victim")
        assert manager.cold_sessions == 0
        assert len(manager.checkpoints) == 0
        registry.open(name="victim")  # name is reusable again

    def test_transient_checkpoint_read_error_keeps_cold_entry(
        self, tmp_path, monkeypatch
    ):
        manager, registry, _ = durable_registry(tmp_path, max_sessions=2)
        batches = branch_batches(seed=18, batches=1)
        open_and_drive(manager, registry, "victim", batches)
        open_and_drive(manager, registry, "b", batches)
        open_and_drive(manager, registry, "c", batches)  # evicts victim
        # Checkpoint unreadable but still on disk (EIO-style): the
        # cold registration must survive for a later retry.
        monkeypatch.setattr(manager.checkpoints, "load", lambda name: None)
        with pytest.raises(SessionNotFoundError):
            registry.get("victim")
        assert manager.hydrate_failures == 1
        assert manager.cold_names() == ["victim"]
        monkeypatch.undo()
        assert registry.get("victim").branches_ingested == 200

    def test_hydrate_failure_is_counted_not_raised(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path, max_sessions=2)
        batches = branch_batches(seed=6, batches=1)
        open_and_drive(manager, registry, "victim", batches)
        open_and_drive(manager, registry, "b", batches)
        open_and_drive(manager, registry, "c", batches)
        manager.checkpoints.path_for("victim").write_bytes(b"smashed")
        with pytest.raises(SessionNotFoundError):
            registry.get("victim")
        assert manager.hydrate_failures == 1
        assert manager.cold_sessions == 0


class TestCrashRecovery:
    def test_oversized_open_snapshot_travels_via_checkpoint(
        self, tmp_path, monkeypatch
    ):
        import repro.persistence.journal as journal_module

        # Frame cap small enough that a warmed tracker's snapshot
        # cannot travel inline in the open record.
        monkeypatch.setattr(journal_module, "MAX_RECORD_BYTES", 2_048)
        donor = PhaseTracker(interval_instructions=INTERVAL_INSTRUCTIONS)
        for pcs, counts in branch_batches(seed=19, batches=3):
            donor.observe_batch(pcs, counts, cpi=1.1)
        snapshot = snapshot_tracker(donor)
        assert len(dumps(snapshot)) > 2_048

        manager, registry, _ = durable_registry(tmp_path)
        session = registry.open(name="big", snapshot=snapshot)
        manager.log_open("big", snapshot=snapshot)
        before = dumps(snapshot_tracker(session.tracker))
        del manager, registry  # kill -9

        manager2, registry2, _ = durable_registry(tmp_path)
        assert "big" in manager2.cold_names()
        after = dumps(snapshot_tracker(registry2.get("big").tracker))
        assert after == before

    def test_unclean_restart_recovers_byte_identical(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path)
        batches = branch_batches(seed=7, batches=5)
        session = open_and_drive(manager, registry, "a", batches)
        before = dumps(snapshot_tracker(session.tracker))
        # No manager.close(): simulate kill -9. Batch mode flushed
        # every record to the OS, so nothing is lost.
        del manager, registry

        manager2, registry2, installed = durable_registry(tmp_path)
        assert installed == 1
        after = dumps(snapshot_tracker(registry2.get("a").tracker))
        assert after == before
        assert manager2.stats()["replayed_records"] == 1 + len(batches)

    def test_checkpoint_bounds_the_replay_tail(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path)
        batches = branch_batches(seed=8, batches=6)
        session = open_and_drive(manager, registry, "a", batches[:4])
        assert manager.checkpoint_all(registry.sessions()) == 1
        drive(manager, session, batches[4:])
        before = dumps(snapshot_tracker(session.tracker))
        del manager, registry

        manager2, registry2, _ = durable_registry(tmp_path)
        # Only the two post-checkpoint observes replayed.
        assert manager2.stats()["replayed_records"] == 2
        recovered = registry2.get("a")
        assert dumps(snapshot_tracker(recovered.tracker)) == before

    def test_evicted_sessions_survive_restart_cold(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path, max_sessions=2)
        batches = branch_batches(seed=9, batches=3)
        open_and_drive(manager, registry, "victim", batches)
        before = dumps(snapshot_tracker(registry.get("victim").tracker))
        open_and_drive(manager, registry, "b", batches[:1])
        open_and_drive(manager, registry, "c", batches[:1])  # evicts
        del manager, registry

        manager2, registry2, _ = durable_registry(
            tmp_path, max_sessions=4
        )
        assert "victim" in manager2.cold_names()
        after = dumps(snapshot_tracker(registry2.get("victim").tracker))
        assert after == before

    def test_recovered_overflow_spills_back_to_disk(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path, max_sessions=8)
        batches = branch_batches(seed=10, batches=1)
        for index in range(5):
            open_and_drive(manager, registry, f"s{index}", batches)
        del manager, registry

        # Restart with a smaller cap: the replayed opens take the normal
        # admission path, and the overflow is evicted *to disk* (the
        # hooks are installed before replay), not destroyed.
        manager2, registry2, installed = durable_registry(
            tmp_path, max_sessions=2
        )
        assert installed == 2
        assert len(registry2) == 2
        assert manager2.cold_sessions == 3
        assert registry2.stats()["evicted_saved"] == 3
        # Every one of the five is still reachable.
        for index in range(5):
            assert registry2.get(f"s{index}") is not None

    def test_recovery_never_grows_the_pool_past_the_cap(self, tmp_path):
        """Five journaled default-config sessions (no checkpoints)
        recovered into a cap of two: the pool keeps two slots, two
        sessions come back live and three cold, and every one of them
        matches a scalar tracker fed the same stream."""
        manager, registry, _ = durable_registry(tmp_path, max_sessions=8)
        references = {}
        for index in range(5):
            batches = branch_batches(seed=30 + index, batches=3)
            open_and_drive(manager, registry, f"s{index}", batches)
            reference = PhaseTracker(
                interval_instructions=INTERVAL_INSTRUCTIONS
            )
            for pcs, counts in batches:
                reference.observe_batch(pcs, counts, cpi=1.1)
            references[f"s{index}"] = dumps(snapshot_tracker(reference))
        del manager, registry  # kill -9

        manager2, registry2, installed = durable_registry(
            tmp_path, max_sessions=2
        )
        assert installed == 2
        assert registry2.pool.capacity == 2
        assert manager2.cold_sessions == 3
        assert manager2.stats()["recovered_live"] == 2
        for name, expected in references.items():
            tracker = registry2.get(name).tracker
            assert dumps(snapshot_tracker(tracker)) == expected
        assert registry2.pool.capacity == 2

    def test_recovery_respects_a_no_evict_cap(self, tmp_path):
        """Replayed opens count as opens, and with LRU eviction off a
        tail needing more live sessions than the cap is refused the
        way an open would be."""
        manager, registry, _ = durable_registry(tmp_path)
        batches = branch_batches(seed=31, batches=1)
        open_and_drive(manager, registry, "a", batches)
        open_and_drive(manager, registry, "b", batches)
        del manager, registry

        manager2 = PersistenceManager(tmp_path / "data")
        registry2 = SessionRegistry(max_sessions=2, evict_lru=False)
        assert manager2.install_into(registry2) == 2
        assert registry2.stats()["opened"] == 2
        manager2.close()
        with PersistenceManager(tmp_path / "data") as manager3:
            with pytest.raises(ServiceOverloadedError):
                manager3.install_into(
                    SessionRegistry(max_sessions=1, evict_lru=False)
                )

    def test_closed_sessions_stay_closed_after_restart(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path)
        batches = branch_batches(seed=11, batches=2)
        open_and_drive(manager, registry, "a", batches)
        manager.checkpoint_all(registry.sessions())
        registry.close("a")
        manager.log_close("a")
        del manager, registry

        manager2, registry2, installed = durable_registry(tmp_path)
        assert installed == 0 and manager2.cold_sessions == 0
        assert len(manager2.checkpoints) == 0
        with pytest.raises(SessionNotFoundError):
            registry2.get("a")

    def test_torn_journal_tail_is_survivable(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path)
        batches = branch_batches(seed=12, batches=4)
        reference = PhaseTracker(
            interval_instructions=INTERVAL_INSTRUCTIONS
        )
        session = open_and_drive(manager, registry, "a", batches[:3])
        for pcs, counts in batches[:3]:
            reference.observe_batch(pcs, counts, cpi=1.1)
        drive(manager, session, batches[3:])  # will be torn off
        manager.close()
        segment = list_segments(manager.journal_root)[-1]
        with open(segment, "rb+") as handle:
            handle.truncate(segment.stat().st_size - 7)
        del manager, registry

        manager2, registry2, _ = durable_registry(tmp_path)
        assert manager2.stats()["torn_tails"] == 1
        after = dumps(snapshot_tracker(registry2.get("a").tracker))
        assert after == dumps(snapshot_tracker(reference))


class TestMaintenance:
    def test_checkpoint_all_skips_clean_sessions(self, tmp_path):
        manager, registry, _ = durable_registry(tmp_path)
        batches = branch_batches(seed=13, batches=2)
        open_and_drive(manager, registry, "a", batches)
        open_and_drive(manager, registry, "b", batches)
        assert manager.checkpoint_all(registry.sessions()) == 2
        assert manager.checkpoint_all(registry.sessions()) == 0
        assert manager.checkpoints_skipped_clean == 2
        drive(manager, registry.get("a"), batches[:1])
        assert manager.checkpoint_all(registry.sessions()) == 1

    def test_compaction_drops_superseded_segments(self, tmp_path):
        manager, registry, _ = durable_registry(
            tmp_path, segment_bytes=2_048
        )
        batches = branch_batches(seed=14, batches=20, batch_size=40)
        open_and_drive(manager, registry, "a", batches)
        assert len(list_segments(manager.journal_root)) > 2
        manager.checkpoint_all(registry.sessions())
        removed = manager.compact()
        assert removed > 0
        # Everything still recovers from checkpoint + remaining tail.
        before = dumps(snapshot_tracker(registry.get("a").tracker))
        del registry
        manager.close()
        manager2, registry2, _ = durable_registry(
            tmp_path, segment_bytes=2_048
        )
        assert dumps(
            snapshot_tracker(registry2.get("a").tracker)
        ) == before

    def test_compaction_respects_uncheckpointed_sessions(self, tmp_path):
        manager, registry, _ = durable_registry(
            tmp_path, segment_bytes=2_048
        )
        batches = branch_batches(seed=15, batches=20, batch_size=40)
        open_and_drive(manager, registry, "a", batches)
        segments = list_segments(manager.journal_root)
        assert len(segments) > 2
        # "a" was never checkpointed: its open record (seq 1) is still
        # needed, so nothing may be compacted.
        assert manager.compact() == 0
        assert list_segments(manager.journal_root) == segments

    def test_stats_are_json_safe(self, tmp_path):
        import json

        manager, registry, _ = durable_registry(tmp_path)
        batches = branch_batches(seed=16, batches=1)
        open_and_drive(manager, registry, "a", batches)
        stats = manager.stats()
        assert json.loads(json.dumps(stats)) == stats
        assert stats["journal_records"] == 2
        assert stats["cold"] == 0

    def test_context_manager_closes_journal(self, tmp_path):
        with PersistenceManager(tmp_path / "data") as manager:
            manager.install_into(SessionRegistry())
            manager.log_open("a", interval_instructions=1_000)
        assert manager.journal.closed


class TestTelemetry:
    def test_evict_and_hydrate_events(self, tmp_path):
        import io

        from repro.telemetry import EventLog, Telemetry, read_events

        stream = io.StringIO()
        telemetry = Telemetry(events=EventLog(stream=stream))
        manager = PersistenceManager(tmp_path / "data", telemetry=telemetry)
        registry = SessionRegistry(max_sessions=2, telemetry=telemetry)
        manager.install_into(registry)
        batches = branch_batches(seed=17, batches=1)
        open_and_drive(manager, registry, "victim", batches)
        open_and_drive(manager, registry, "b", batches)
        open_and_drive(manager, registry, "c", batches)
        registry.get("victim")
        kinds = [
            record["event"]
            for record in read_events(io.StringIO(stream.getvalue()))
        ]
        assert "session_evicted_to_disk" in kinds
        assert "session_hydrated" in kinds
        assert telemetry.metrics.get(
            "repro_persistence_hydrates_total"
        ).value == 1
        # "victim" came back; "b" took its place on disk.
        assert telemetry.metrics.get(
            "repro_persistence_cold_sessions"
        ).value == 1
        assert manager.cold_names() == ["b"]


class TestOneRestorePath:
    def test_default_config_restores_never_build_a_scalar_tracker(
        self, tmp_path, monkeypatch
    ):
        """Snapshot open, evict -> hydrate and crash recovery (an open
        record with a restore snapshot, a fresh open record, and a
        checkpoint plus journal tail) all land default-config state
        straight on pool slots: the scalar restore and export hooks are
        never called."""
        from repro.core.pool import PooledTracker

        def refuse(self, *args):
            raise AssertionError("default-config restore went scalar")

        monkeypatch.setattr(PhaseTracker, "restore_state", refuse)
        monkeypatch.setattr(PhaseTracker, "export_state", refuse)
        batches = branch_batches(seed=21, batches=4)

        manager, registry, _ = durable_registry(tmp_path, max_sessions=3)
        source = open_and_drive(manager, registry, "source", batches)
        document = snapshot_tracker(source.tracker)
        open_and_drive(manager, registry, "a", batches[:1])
        open_and_drive(manager, registry, "b", batches[:1])
        copy = registry.open("copy", snapshot=document)  # evicts source
        manager.log_open(
            "copy", interval_instructions=INTERVAL_INSTRUCTIONS,
            snapshot=document,
        )
        assert snapshot_tracker(copy.tracker) == document
        assert manager.cold_names() == ["source"]
        for name in ("a", "b"):
            registry.close(name)
            manager.log_close(name)
        open_and_drive(manager, registry, "fresh", batches[:2])
        hydrated = registry.get("source")
        assert snapshot_tracker(hydrated.tracker) == document
        drive(manager, hydrated, batches[:1])
        drive(manager, copy, batches[1:3])
        before = {
            session.name: dumps(snapshot_tracker(session.tracker))
            for session in registry.sessions()
        }
        del manager, registry  # kill -9

        manager2, registry2, installed = durable_registry(
            tmp_path, max_sessions=3
        )
        assert installed == 3
        # "source" hydrated from its checkpoint for its tail; "copy"
        # replayed its snapshot open, "fresh" a fresh open.
        assert registry2.stats()["hydrated"] == 1
        assert registry2.get("copy").restored
        assert not registry2.get("fresh").restored
        assert registry2.pool.active_slots == 3
        for name, expected in before.items():
            tracker = registry2.get(name).tracker
            assert isinstance(tracker, PooledTracker)
            assert dumps(snapshot_tracker(tracker)) == expected
