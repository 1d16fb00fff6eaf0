"""Session registry: many named trackers behind one service.

A :class:`Session` owns one :class:`~repro.core.online.PhaseTracker`
plus activity bookkeeping; the :class:`SessionRegistry` maps names to
sessions with three protection mechanisms a long-lived service needs:

- **capacity cap** — at most ``max_sessions`` live trackers. When the
  cap is hit, opening another session either evicts the
  least-recently-active one (``evict_lru=True``, the default — the
  same policy the paper's signature table uses) or is refused with
  :class:`~repro.errors.ServiceOverloadedError` for deployments that
  prefer explicit admission control.
- **idle TTL** — :meth:`SessionRegistry.expire_idle` drops sessions
  untouched for ``idle_ttl`` seconds; the server sweeps periodically.
- **one tracker home** — the registry owns a
  :class:`~repro.core.pool.TrackerPool` for the default configuration,
  sized ``max_sessions`` and growing on demand. Default-config sessions
  live on its slots however they arrive (open, snapshot open, hydrate;
  crash recovery replays the journal through these same calls); only
  foreign configurations get scalar trackers. Snapshots are decoded
  before admission and land directly on a slot. Closed and evicted
  sessions release their slot for reuse.

Reclamation is observable and interceptable: before the LRU cap or the
idle TTL destroys a session, the optional ``on_evict`` pre-drop hook
runs (the durable tier uses it to checkpoint the session to disk), and
the eviction counters split into saved / lost / recycled so durability
loss shows up in ``stats()`` even with persistence disabled. A miss in
:meth:`get` or :meth:`close` consults the optional ``resolver`` hook,
which lets evicted-to-disk sessions hydrate back on demand; the
``name_reserved`` hook keeps their names taken while they are cold.

The registry is not thread-safe by itself; the asyncio server drives
it from one event loop, and the synchronous tests drive it from one
thread.
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.core.config import ClassifierConfig
from repro.core.online import PhaseTracker
from repro.core.pool import PooledTracker, TrackerPool
from repro.errors import (
    ConfigurationError,
    PoolError,
    ServiceOverloadedError,
    SessionExistsError,
    SessionNotFoundError,
)
from repro.service.snapshot import decode
from repro.workloads.trace import DEFAULT_INTERVAL_INSTRUCTIONS

if TYPE_CHECKING:  # pragma: no cover - import-time typing only
    from repro.telemetry import Telemetry


class Session:
    """One client-visible tracking session."""

    __slots__ = (
        "name", "tracker", "created_at", "last_active",
        "intervals_pushed", "branches_ingested", "restored",
        "predicted_next_phase", "prediction_confident",
    )

    def __init__(
        self, name: str, tracker: PhaseTracker, now: float,
        restored: bool = False,
    ) -> None:
        self.name = name
        self.tracker = tracker
        self.created_at = now
        self.last_active = now
        self.intervals_pushed = 0
        self.branches_ingested = 0
        # Built from a snapshot (open with a snapshot, hydrate, crash
        # recovery) rather than fresh; the open response reports it.
        self.restored = restored
        # The last outstanding next-phase prediction this session pushed
        # to its client; the server scores it against the next interval's
        # actual phase (service-level predictor accuracy, uniform across
        # scalar and pooled trackers).
        self.predicted_next_phase: Optional[int] = None
        self.prediction_confident = False

    def idle_seconds(self, now: float) -> float:
        return now - self.last_active


def build_config(overrides: Optional[dict]) -> ClassifierConfig:
    """A ClassifierConfig from wire-supplied field overrides."""
    if not overrides:
        return ClassifierConfig.paper_default()
    try:
        return ClassifierConfig(**overrides)
    except TypeError as error:
        # Unknown field names reach the dataclass constructor as
        # unexpected kwargs; surface them as configuration errors.
        raise ConfigurationError(str(error)) from None


class SessionRegistry:
    """Named tracker sessions with LRU capping and idle-TTL expiry.

    Parameters
    ----------
    max_sessions:
        Live-session cap.
    idle_ttl:
        Seconds of inactivity after which :meth:`expire_idle` drops a
        session; ``None`` disables expiry.
    evict_lru:
        When full, evict the least-recently-active session instead of
        refusing the open.
    telemetry:
        Optional hub: a live-sessions gauge plus one event per session
        lifecycle transition (opened / closed / evicted / expired /
        hydrated).
    clock:
        Monotonic time source (overridable in tests).
    on_evict:
        Pre-drop hook ``(session, reason)`` run before the LRU cap
        (``reason="evicted"``) or the idle TTL (``reason="expired"``)
        destroys a session — the durable tier's evict-to-disk point. A
        hook that raises does not block reclamation; the drop is then
        counted as lost, not saved.
    resolver:
        Miss hook ``(name, land) -> Optional[Session]`` consulted by
        :meth:`get` and :meth:`close` before reporting
        :class:`SessionNotFoundError` — the hydrate-on-demand point. For
        a name it holds it gets the tracker from ``land(snapshot)``
        (on :meth:`get`: decode, admit, restore; on :meth:`close`:
        decode only) and commits only after that returned.
    name_reserved:
        Predicate ``(name) -> bool`` marking names that are taken even
        though not live (evicted-to-disk sessions); :meth:`open`
        refuses them and auto-naming skips them.

    The registry builds and owns :attr:`pool`, an auto-growing
    :class:`~repro.core.pool.TrackerPool` for
    ``build_config(None)`` with ``max_sessions`` initial slots.
    Sessions with that configuration live on pool slots (the batched
    structure-of-arrays hot path); sessions with any other
    configuration (``table_entries=None`` included) own scalar
    trackers.
    """

    def __init__(
        self,
        max_sessions: int = 64,
        idle_ttl: Optional[float] = None,
        evict_lru: bool = True,
        telemetry: "Optional[Telemetry]" = None,
        clock: Callable[[], float] = time.monotonic,
        on_evict: "Optional[Callable[[Session, str], None]]" = None,
        resolver: "Optional[Callable[..., Optional[Session]]]" = None,
        name_reserved: Optional[Callable[[str], bool]] = None,
    ) -> None:
        if max_sessions <= 0:
            raise ConfigurationError(
                f"max_sessions must be positive, got {max_sessions}"
            )
        if idle_ttl is not None and idle_ttl <= 0:
            raise ConfigurationError(
                f"idle_ttl must be positive or None, got {idle_ttl}"
            )
        self.max_sessions = max_sessions
        self.idle_ttl = idle_ttl
        self.evict_lru = evict_lru
        self.clock = clock
        self.on_evict = on_evict
        self.resolver = resolver
        self.name_reserved = name_reserved
        self.pool = TrackerPool(
            capacity=max_sessions, config=build_config(None),
            telemetry=telemetry,
        )
        # Most recently active last; OrderedDict gives O(1) LRU updates.
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        self._name_counter = itertools.count(1)
        self.sessions_opened = 0
        self.sessions_closed = 0
        self.sessions_evicted = 0
        self.sessions_expired = 0
        # The reclamation split: every LRU eviction / TTL expiry lands
        # in exactly one bucket, so ``evicted + expired ==
        # saved + lost + recycled`` and durability loss is visible even
        # without a persistence tier attached.
        self.sessions_evicted_saved = 0
        self.sessions_evicted_lost = 0
        self.sessions_evicted_recycled = 0
        self.sessions_hydrated = 0
        self._telemetry = telemetry
        if telemetry is not None:
            self._g_sessions = telemetry.gauge(
                "repro_service_sessions",
                "Live tracker sessions in the registry",
            )

    # -- bookkeeping ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, name: str) -> bool:
        return name in self._sessions

    def names(self) -> List[str]:
        """Session names, least recently active first."""
        return list(self._sessions)

    def _emit(self, event: str, session: Session, **fields: object) -> None:
        if self._telemetry is not None:
            self._g_sessions.set(len(self._sessions))
            self._telemetry.emit(
                event,
                session=session.name,
                intervals=session.tracker.intervals_observed,
                **fields,
            )

    # -- lifecycle ------------------------------------------------------------

    def open(
        self,
        name: Optional[str] = None,
        config: Optional[dict] = None,
        interval_instructions: Optional[int] = None,
        snapshot: Optional[dict] = None,
    ) -> Session:
        """Create (or restore) a session.

        Raises :class:`SessionExistsError` for a duplicate name,
        :class:`~repro.errors.ConfigurationError` for bad config
        overrides, :class:`~repro.errors.SnapshotError` for a bad
        snapshot, and :class:`ServiceOverloadedError` when the registry
        is full and LRU eviction is disabled.
        """
        if name is None:
            name = self._generate_name()
        elif name in self._sessions:
            raise SessionExistsError(f"session {name!r} is already open")
        elif self.name_reserved is not None and self.name_reserved(name):
            raise SessionExistsError(
                f"session {name!r} is evicted to disk; it hydrates on "
                "use — close it first to reuse the name"
            )

        if snapshot is not None:
            tracker = self._admit_snapshot(snapshot)
        else:
            classifier_config = build_config(config)
            interval_instructions = (
                interval_instructions or DEFAULT_INTERVAL_INSTRUCTIONS
            )
            self._make_room()
            if self.pool.compatible(classifier_config):
                tracker = self.pool.acquire(
                    interval_instructions=interval_instructions
                )
            else:
                tracker = PhaseTracker(
                    classifier_config,
                    interval_instructions=interval_instructions,
                )
        session = Session(
            name, tracker, self.clock(), restored=snapshot is not None
        )
        self._sessions[name] = session
        self.sessions_opened += 1
        self._emit(
            "session_opened", session, restored=snapshot is not None
        )
        return session

    def get(self, name: str) -> Session:
        """Look up a session, refreshing its activity/LRU position.

        A miss consults the ``resolver`` hook first, so an
        evicted-to-disk session hydrates back transparently (counted
        and emitted as ``session_hydrated``).
        """
        session = self._sessions.get(name)
        if session is None:
            session = self._hydrate(name)
        if session is None:
            raise SessionNotFoundError(
                f"session {name!r} does not exist (never opened, closed, "
                "or reclaimed by the LRU cap / idle TTL)"
            )
        session.last_active = self.clock()
        self._sessions.move_to_end(name)
        return session

    def close(self, name: str) -> Session:
        """Close a session, releasing its pool slot (if any).

        Closing an evicted-to-disk session works too: the ``resolver``
        hook hands back a session whose tracker is its decoded
        snapshot, which answers what a close reports without a slot.
        """
        session = self._sessions.pop(name, None)
        if session is None and self.resolver is not None:
            session = self.resolver(name, decode)
        if session is None:
            raise SessionNotFoundError(f"session {name!r} does not exist")
        self.sessions_closed += 1
        # Emit while the tracker is still live: releasing a pooled
        # tracker's slot makes its stats unreadable.
        self._emit("session_closed", session)
        self._release(session)
        return session

    def close_all(self) -> int:
        """Close every session (service shutdown); returns the count."""
        count = 0
        for name in list(self._sessions):
            self.close(name)
            count += 1
        return count

    def expire_idle(self) -> List[str]:
        """Drop sessions idle past the TTL; returns the expired names."""
        if self.idle_ttl is None or not self._sessions:
            return []
        now = self.clock()
        expired = [
            name
            for name, session in self._sessions.items()
            if session.idle_seconds(now) > self.idle_ttl
        ]
        for name in expired:
            session = self._sessions.pop(name)
            self.sessions_expired += 1
            saved = self._pre_drop(session, "expired")
            self._emit(
                "session_expired", session, saved=saved,
                idle_seconds=round(session.idle_seconds(now), 3),
            )
            self._release(session)
        return expired

    # -- internals ------------------------------------------------------------

    def _generate_name(self) -> str:
        while True:
            name = f"session-{next(self._name_counter)}"
            if name in self._sessions:
                continue
            if self.name_reserved is not None and self.name_reserved(name):
                continue
            return name

    def _make_room(self) -> None:
        """Idle-sweep, then free one slot (evict or refuse) when full."""
        self.expire_idle()
        if len(self._sessions) >= self.max_sessions:
            if not self.evict_lru:
                raise ServiceOverloadedError(
                    f"session table is full ({self.max_sessions}); close "
                    "a session or retry later"
                )
            self._evict_lru()

    def _evict_lru(self) -> None:
        name, session = self._sessions.popitem(last=False)
        self.sessions_evicted += 1
        saved = self._pre_drop(session, "evicted")
        self._emit("session_evicted", session, saved=saved)
        self._release(session)

    def _pre_drop(self, session: Session, reason: str) -> bool:
        """Run the ``on_evict`` hook and bucket the drop as saved /
        lost / recycled; returns whether state was saved."""
        saved = False
        if self.on_evict is not None:
            try:
                self.on_evict(session, reason)
                saved = True
            except Exception as error:
                if self._telemetry is not None:
                    self._telemetry.emit(
                        "session_evict_hook_failed",
                        session=session.name, reason=reason,
                        error=f"{type(error).__name__}: {error}",
                    )
        if saved:
            self.sessions_evicted_saved += 1
        elif (
            session.branches_ingested > 0
            or session.tracker.intervals_observed > 0
        ):
            # Observed state destroyed with nowhere to go: this is the
            # durability loss the counter split exists to expose.
            self.sessions_evicted_lost += 1
        else:
            self.sessions_evicted_recycled += 1
        return saved

    def _hydrate(self, name: str) -> Optional[Session]:
        """Ask the resolver for an evicted-to-disk session, landed by
        :meth:`_admit_snapshot` (an unknown name never evicts)."""
        if self.resolver is None:
            return None
        session = self.resolver(name, self._admit_snapshot)
        if session is None:
            return None
        self._sessions[name] = session
        self.sessions_hydrated += 1
        self._emit("session_hydrated", session)
        return session

    def _admit_snapshot(self, document: dict):
        """Decode (a rejected document evicts nothing), make room, then
        restore: onto a slot of :attr:`pool` — the one an eviction just
        freed — when the configuration is the pool's, else onto a
        scalar tracker."""
        decoded = decode(document)
        self._make_room()
        if self.pool.compatible(decoded.config):
            return self.pool.try_adopt(decoded.state, decoded.predictors)
        return decoded.scalar_tracker()

    @staticmethod
    def _release(session: Session) -> None:
        tracker = session.tracker
        if isinstance(tracker, PooledTracker):
            try:
                tracker.release()
            except PoolError:  # pragma: no cover - already released
                pass

    def pool_slot(self, session: Session) -> Optional[int]:
        """The :attr:`pool` slot backing ``session``, or ``None`` when
        the session owns its tracker (a foreign configuration) and so
        takes the per-session path. The ingest coalescer uses this to
        decide which sessions join the fused structure-of-arrays pass.
        """
        tracker = session.tracker
        if isinstance(tracker, PooledTracker) and tracker.pool is self.pool:
            return tracker.slot
        return None

    # -- inspection -----------------------------------------------------------

    def sessions(self) -> List[Session]:
        """Live sessions, least recently active first."""
        return list(self._sessions.values())

    def stats(self) -> Dict[str, int]:
        """Lifecycle counters plus the live-session count."""
        return {
            "live": len(self._sessions),
            "opened": self.sessions_opened,
            "closed": self.sessions_closed,
            "evicted": self.sessions_evicted,
            "expired": self.sessions_expired,
            "evicted_saved": self.sessions_evicted_saved,
            "evicted_lost": self.sessions_evicted_lost,
            "evicted_recycled": self.sessions_evicted_recycled,
            "hydrated": self.sessions_hydrated,
        }
