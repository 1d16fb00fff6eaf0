"""The registry's own tracker pool: default-config sessions land on
its slots however they arrive (open, snapshot open, hydrate, adopt),
foreign configs stay scalar, and closing or evicting releases slots."""

from dataclasses import asdict

from repro.core import ClassifierConfig, PhaseTracker
from repro.core.pool import PooledTracker
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


def test_adopt_rehomes_default_config_scalar_onto_pool():
    registry = SessionRegistry()
    scalar = driven_scalar()
    expected = snapshot_tracker(scalar)
    session = registry.adopt(Session("r", scalar, 0.0, restored=True))
    assert isinstance(session.tracker, PooledTracker)
    assert registry.pool_slot(session) is not None
    assert snapshot_tracker(session.tracker) == expected


def test_adopt_keeps_foreign_config_scalar():
    registry = SessionRegistry()
    for config in (
        ClassifierConfig.paper_baseline(),
        ClassifierConfig(table_entries=None),
    ):
        scalar = driven_scalar(config)
        session = registry.adopt(Session(
            f"f{config.table_entries}", scalar, 0.0, restored=True
        ))
        assert session.tracker is scalar
        assert registry.pool_slot(session) is None
    assert registry.pool.active_slots == 0


def test_hydrate_lands_on_a_slot_freed_by_its_own_admission():
    """The resolver hands back a scalar tracker; the registry moves it
    onto the pool after admission evicted the LRU session, so a full
    table reuses that slot instead of growing the pool."""
    cold = {"cold": driven_scalar()}
    expected = snapshot_tracker(cold["cold"])

    def resolver(name):
        tracker = cold.pop(name, None)
        if tracker is None:
            return None
        return Session(name, tracker, 0.0, restored=True)

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
