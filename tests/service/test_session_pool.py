"""The registry's own tracker pool: default-config sessions land on
its slots however they arrive (open, snapshot open, hydrate), foreign
configs stay scalar, and closing or evicting releases slots."""

from dataclasses import asdict

import pytest

from repro.core import ClassifierConfig, PhaseTracker
from repro.core.pool import PooledTracker
from repro.errors import ConfigurationError, SnapshotError
from repro.service.session import Session, SessionRegistry
from repro.service.snapshot import snapshot_tracker


def driven_scalar(config=None):
    tracker = PhaseTracker(
        config or ClassifierConfig.paper_default(),
        interval_instructions=1_000,
    )
    tracker.observe_batch([0x400 + 4 * i for i in range(40)], [60] * 40)
    return tracker


def test_default_config_session_lands_on_pool_slot():
    registry = SessionRegistry()
    session = registry.open("a")
    assert isinstance(session.tracker, PooledTracker)
    assert registry.pool.active_slots == 1


def test_pool_is_sized_by_max_sessions_and_grows():
    registry = SessionRegistry(max_sessions=2)
    assert registry.pool.capacity == 2
    assert registry.pool.config == ClassifierConfig.paper_default()
    registry.open("a")
    registry.open("b")
    # Exhaustion has no scalar fallback: the pool grows instead.
    registry.pool.acquire()
    assert registry.pool.capacity == 4


def test_foreign_config_falls_back_to_scalar():
    registry = SessionRegistry()
    session = registry.open(
        "a", config=asdict(ClassifierConfig.paper_baseline())
    )
    assert not isinstance(session.tracker, PooledTracker)
    assert registry.pool.active_slots == 0


def test_close_releases_the_slot():
    registry = SessionRegistry(max_sessions=2)
    registry.open("a")
    assert registry.pool.active_slots == 1
    registry.close("a")
    assert registry.pool.active_slots == 0
    # The freed slot is reused by the next open.
    registry.open("b")
    assert registry.pool.active_slots == 1


def test_lru_eviction_releases_the_slot():
    registry = SessionRegistry(max_sessions=1)
    registry.open("a")
    registry.open("b")  # evicts "a"
    assert registry.pool.active_slots == 1


def test_snapshot_restore_adopts_into_pool():
    registry = SessionRegistry()
    source = registry.open("a")
    source.tracker.observe_batch([0x400, 0x404], [40, 60], cpi=1.1)
    document = snapshot_tracker(source.tracker)
    restored = registry.open("b", snapshot=document)
    assert isinstance(restored.tracker, PooledTracker)
    assert snapshot_tracker(restored.tracker) == document


def test_snapshot_restore_foreign_config_falls_back():
    registry = SessionRegistry()
    scalar = PhaseTracker(ClassifierConfig.paper_baseline())
    restored = registry.open("a", snapshot=snapshot_tracker(scalar))
    assert not isinstance(restored.tracker, PooledTracker)
    assert registry.pool.active_slots == 0


def test_rejected_snapshot_open_evicts_nothing():
    """A snapshot is decoded before admission: on a full table a bad
    document — whether its envelope, a field or a predictor table is
    broken — is refused without evicting anyone or claiming a slot."""
    registry = SessionRegistry(max_sessions=2)
    for name in ("a", "b"):
        registry.open(name).tracker.observe_batch([0x400, 0x404], [40, 60])
    good = snapshot_tracker(driven_scalar())
    bad_tables = {**good, "tracker": {**good["tracker"], "next_phase": {}}}
    for bad in (
        {"schema_version": 1, "tracker": "bogus"},
        {**good, "tracker": {**good["tracker"], "instructions": -1}},
        bad_tables,
    ):
        with pytest.raises(SnapshotError):
            registry.open("c", snapshot=bad)
    assert registry.names() == ["a", "b"]
    assert registry.stats()["evicted"] == 0
    assert registry.pool.active_slots == 2


def test_recovery_keeps_foreign_config_scalar(tmp_path):
    """Crash recovery replays a foreign-config open onto a scalar
    tracker, never a pool slot, holding the state the journal drove."""
    from repro.persistence import PersistenceManager
    from repro.service.snapshot import dumps

    manager = PersistenceManager(tmp_path)
    manager.install_into(SessionRegistry())
    expected = {}
    for config in (
        ClassifierConfig.paper_baseline(),
        ClassifierConfig(table_entries=None),
    ):
        name = f"f{config.table_entries}"
        manager.log_open(
            name, config=asdict(config), interval_instructions=1_000
        )
        manager.log_observe(
            name, [0x400 + 4 * i for i in range(40)], [60] * 40
        )
        expected[name] = dumps(snapshot_tracker(driven_scalar(config)))
    del manager  # kill -9

    registry = SessionRegistry()
    PersistenceManager(tmp_path).install_into(registry)
    for name, document in expected.items():
        session = registry.get(name)
        assert registry.pool_slot(session) is None
        assert dumps(snapshot_tracker(session.tracker)) == document
    assert registry.pool.active_slots == 0


def test_rejected_config_open_evicts_nothing():
    """Config overrides are built before admission too; a float where
    an integer belongs is refused (a snapshot of such a session would
    not restore) without evicting anyone."""
    registry = SessionRegistry(max_sessions=1)
    registry.open("a")
    with pytest.raises(ConfigurationError):
        registry.open("b", config={"table_entries": 32.5})
    assert registry.names() == ["a"]
    assert registry.stats()["evicted"] == 0


def test_hydrate_lands_on_a_slot_freed_by_its_own_admission():
    """The resolver hands the registry a snapshot; the registry lands
    it on the pool after admission evicted the LRU session, so a full
    table reuses that slot instead of growing the pool."""
    cold = {"cold": snapshot_tracker(driven_scalar())}
    expected = cold["cold"]

    def resolver(name, land):
        document = cold.get(name)
        if document is None:
            return None
        session = Session(name, land(document), 0.0, restored=True)
        del cold[name]
        return session

    registry = SessionRegistry(max_sessions=2, resolver=resolver)
    registry.open("a")
    registry.open("b")
    hydrated = registry.get("cold")
    assert isinstance(hydrated.tracker, PooledTracker)
    assert snapshot_tracker(hydrated.tracker) == expected
    assert registry.pool.active_slots == 2
    assert registry.pool.capacity == 2


def test_telemetry_emits_survive_pooled_recycle():
    """close/expire/evict emit session events that read tracker stats;
    with pooled trackers the read must happen before the slot is
    released (a stale handle raises)."""
    from repro.telemetry import Telemetry

    clock = [0.0]
    registry = SessionRegistry(
        max_sessions=1, idle_ttl=10.0, clock=lambda: clock[0],
        telemetry=Telemetry(),
    )
    registry.open("a")
    registry.close("a")              # close path
    registry.open("b")
    clock[0] += 60.0
    assert registry.expire_idle() == ["b"]  # expire path
    registry.open("c")
    registry.open("d")               # evict path (max_sessions=1)
    assert registry.pool.active_slots == 1


def test_pooled_service_construction():
    """PhaseService's registry pool is sized by max_sessions."""
    from repro.service.server import PhaseService

    service = PhaseService(max_sessions=8)
    assert service.registry.pool.capacity == 8
    session = service.registry.open("a")
    assert isinstance(session.tracker, PooledTracker)
    assert service.diagnostics()["pool"] == {
        "capacity": 8, "active_slots": 1, "utilization": 1 / 8,
    }
