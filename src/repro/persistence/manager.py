"""The durable session tier behind one handle.

:class:`PersistenceManager` composes the journal, the checkpoint
store, and compaction into the three hooks the session registry
exposes, plus the logging calls the server makes:

- **write path** — the server calls :meth:`log_open` /
  :meth:`log_observe` / :meth:`log_close` after each successful
  mutation and *before* acknowledging it, so the journal's sync mode
  is exactly the durability the client was promised.
- **evict-to-disk** — installed as the registry's ``on_evict``
  pre-drop hook: LRU eviction and idle-TTL expiry checkpoint the
  session and register it *cold* instead of destroying its phase
  history.
- **hydrate-on-demand** — installed as the registry's ``resolver``: a
  request naming a cold session lands its checkpoint on a pool slot
  (byte-identical to the never-evicted tracker, the property the test
  suite enforces). No journal scan is needed: a cold session's
  checkpoint is current by construction, because eviction wrote it
  after the session's last observe.
- **crash recovery** — :meth:`install_into` registers every
  checkpointed session cold, wires the hooks, and replays the journal
  tail through the registry's own ``open`` / ``get`` / ``close``: no
  session is built outside the registry, so admission, eviction to
  disk and hydration treat recovered sessions as they treat live ones.
- **checkpoint + compact** — :meth:`checkpoint_all` snapshots dirty
  sessions (the server runs it on a timer and at shutdown), after
  which :meth:`compact` drops journal segments nobody needs.

The layout under ``data_dir``::

    data_dir/
      journal/      seg-<first seq, hex>.jnl   (CRC-framed records)
      checkpoints/  <sha256(session)>.ckpt     (atomic JSON snapshots)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from functools import partial
from typing import Callable, Dict, Iterable, Optional, TYPE_CHECKING, Union

from repro.errors import (
    PersistenceError,
    ReproError,
    ServiceOverloadedError,
    SessionNotFoundError,
    SnapshotError,
)
from repro.persistence.checkpoints import CheckpointStore
from repro.persistence.compaction import compact_journal
from repro.persistence.journal import Journal, ReplayStats, replay_journal
from repro.service.session import Session, SessionRegistry
from repro.service.snapshot import snapshot_tracker

if TYPE_CHECKING:  # pragma: no cover - import-time typing only
    from repro.telemetry import Telemetry

#: What applying a journaled record may raise when the record (or the
#: state it lands on) is damaged: counted, never propagated.
_UNAPPLIABLE = (ReproError, KeyError, TypeError, ValueError)


@dataclass
class RecoveryResult:
    """What :meth:`PersistenceManager.install_into` replayed and counted."""

    #: Sessions live in the registry when recovery ended.
    live_sessions: int = 0
    #: Sessions cold on disk when recovery ended: name -> covered seq.
    cold: Dict[str, int] = field(default_factory=dict)
    next_seq: int = 1
    replayed_records: int = 0
    #: Records a checkpoint already covers.
    skipped_records: int = 0
    #: Records naming a session recovery knows nothing about.
    orphaned_records: int = 0
    #: Sessions dropped (back to their last checkpoint, when they have
    #: one) because a record or their checkpoint would not apply.
    damaged_sessions: int = 0
    journal: ReplayStats = field(default_factory=ReplayStats)


class PersistenceManager:
    """Durable sessions for one data directory.

    Installing the manager (:meth:`install_into`) *is* recovery: the
    journal is replayed (torn tail truncated, a counted non-fatal
    event) through the registry, so every session the directory knows
    comes back — live when it had a replay tail (and the cap left it
    room), cold when its checkpoint is current. The journal opens
    there, so install the manager before logging through it.

    Parameters
    ----------
    data_dir:
        Root of the journal + checkpoint layout (created if missing).
    sync:
        Journal durability mode (:data:`~repro.persistence.journal.SYNC_MODES`).
        ``none`` also skips checkpoint fsyncs.
    segment_bytes, batch_records:
        Journal rotation size and ``batch``-mode fsync cadence.
    telemetry:
        Optional hub: journal/checkpoint/hydrate counters, the
        durability-lag gauge, the fsync-latency histogram, and
        lifecycle events.
    clock:
        Monotonic time source for hydrated sessions' activity stamps.
    """

    def __init__(
        self,
        data_dir: Union[str, Path],
        sync: str = "batch",
        segment_bytes: int = 4 * 1024 * 1024,
        batch_records: int = 64,
        telemetry: "Optional[Telemetry]" = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.root = Path(data_dir).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.journal_root = self.root / "journal"
        self._telemetry = telemetry
        self._clock = clock
        self._open_journal = partial(
            Journal, self.journal_root, sync=sync,
            segment_bytes=segment_bytes, batch_records=batch_records,
            telemetry=telemetry,
        )
        self.checkpoints = CheckpointStore(
            self.root / "checkpoints",
            fsync=sync != "none",
            telemetry=telemetry,
        )
        #: Set by :meth:`install_into`.
        self.recovery: Optional[RecoveryResult] = None
        self.journal: Optional[Journal] = None

        #: Cold sessions on disk: name -> the seq their checkpoint covers.
        self._cold: Dict[str, int] = {}
        #: Live sessions' last journaled seq.
        self._session_seqs: Dict[str, int] = {}
        #: Live sessions' last checkpointed seq.
        self._checkpoint_seqs: Dict[str, int] = {}
        #: Live sessions' ``open`` record seq (until first checkpoint).
        self._first_seqs: Dict[str, int] = {}
        self.hydrated = 0
        self.hydrate_failures = 0
        self.evict_saves = 0
        self.checkpoints_skipped_clean = 0
        if telemetry is not None:
            self._m_hydrates = telemetry.counter(
                "repro_persistence_hydrates_total",
                "Cold sessions restored on demand",
            )
            self._m_checkpoints = telemetry.counter(
                "repro_persistence_checkpoint_sessions_total",
                "Per-session checkpoints written",
            )
            self._g_cold = telemetry.gauge(
                "repro_persistence_cold_sessions",
                "Sessions evicted to disk, hydrate-on-demand",
            )

    # -- registry wiring ------------------------------------------------------

    def install_into(self, registry: SessionRegistry) -> int:
        """Recover the data directory onto ``registry`` and wire its
        persistence hooks; returns how many sessions are live when
        recovery ends.

        Every checkpointed session starts cold. Each journal record a
        checkpoint does not cover is then applied with the calls the
        live server made for it — ``open``, ``get`` plus
        ``observe_batch``, ``close`` — so a tail that starts after a
        checkpoint hydrates through :meth:`resolve`, and the registry's
        own admission evicts the stalest sessions back to disk: the
        pool never outgrows ``max_sessions``. Damage (a record or a
        checkpoint that will not apply) is counted in
        :attr:`recovery`, never raised. With LRU eviction disabled, a
        tail needing more live sessions than the cap raises
        :class:`~repro.errors.ServiceOverloadedError`, as an ``open``
        would.
        """
        result = self.recovery = RecoveryResult()
        self._cold = {
            name: int(document["seq"])
            for name, document in self.checkpoints.load_all().items()
        }
        replay = replay_journal(
            self.journal_root, truncate=True, telemetry=self._telemetry
        )
        result.journal = replay.stats
        # A crash can leave a durable checkpoint covering seqs the
        # on-disk journal never kept (sync=none, or a tail lost to the
        # machine). Never hand those seqs out again: a restarted
        # journal reusing them would have its records skipped as
        # "covered" on the *next* recovery, silently dropping
        # acknowledged observes.
        result.next_seq = max(
            replay.stats.next_seq, max(self._cold.values(), default=0) + 1
        )
        self.journal = self._open_journal(next_seq=result.next_seq)
        registry.on_evict = self.save_session
        registry.resolver = self.resolve
        registry.name_reserved = self.contains_cold
        for record in replay.records:
            self._replay(registry, record, result)
        self._set_cold_gauge()
        result.live_sessions = len(registry)
        result.cold = dict(self._cold)
        if self._telemetry is not None:
            self._telemetry.emit(
                "recovery_complete",
                live=result.live_sessions,
                cold=len(result.cold),
                replayed=result.replayed_records,
                skipped=result.skipped_records,
                orphaned=result.orphaned_records,
                damaged=result.damaged_sessions,
                torn_tails=result.journal.torn_tails,
                next_seq=result.next_seq,
            )
            self._telemetry.metrics.counter(
                "repro_persistence_replayed_records_total",
                "Journal records applied during crash recovery",
            ).inc(result.replayed_records)
            self._telemetry.metrics.counter(
                "repro_persistence_recoveries_total",
                "Recovery passes completed",
            ).inc()
        return result.live_sessions

    def _replay(
        self, registry: SessionRegistry, record: dict,
        result: RecoveryResult,
    ) -> None:
        """Apply one journal record the way the live server applied it."""
        kind = record.get("kind")
        name = record.get("session")
        seq = record["seq"]
        if not isinstance(name, str) or kind not in (
            "open", "observe", "close"
        ):
            result.orphaned_records += 1
            return
        covered = self._cold.get(name, self._checkpoint_seqs.get(name))
        if covered is not None and seq <= covered:
            # The checkpoint holds this record's effect. For a close,
            # the checkpoint was stamped after it: it belongs to a
            # newer incarnation of the name and must survive.
            result.skipped_records += 1
            return

        if kind == "open":
            # An open starts a new incarnation of the name: a stale
            # checkpoint still registered under it (its close record
            # compacted away after the delete failed) is superseded.
            self._drop(registry, name)
            try:
                if record.get("snapshot_ref") == "checkpoint":
                    # The restore snapshot was too large to travel
                    # inline and was published as a checkpoint
                    # covering this record. Reaching here means that
                    # checkpoint is gone — a fresh tracker would
                    # silently impersonate the restored one.
                    raise PersistenceError(
                        "open record references a checkpointed "
                        "snapshot that no longer exists"
                    )
                registry.open(
                    name,
                    config=record.get("config"),
                    interval_instructions=record.get(
                        "interval_instructions"
                    ),
                    snapshot=record.get("snapshot"),
                )
            except ServiceOverloadedError:
                raise
            except _UNAPPLIABLE:
                result.damaged_sessions += 1
                return
        elif kind == "observe":
            cold = name in self._cold
            try:
                session = registry.get(name)
            except SessionNotFoundError:
                if cold:  # its checkpoint would not hydrate
                    self._demote(registry, name, result)
                else:
                    # Its open record was compacted away and no
                    # checkpoint survived: nothing to replay onto.
                    result.orphaned_records += 1
                return
            try:
                reports = session.tracker.observe_batch(
                    record["pcs"], record["counts"],
                    cpi=record.get("cpi", 1.0),
                )
            except _UNAPPLIABLE:
                # Never serve half-replayed state.
                self._demote(registry, name, result)
                if self._telemetry is not None:
                    self._telemetry.emit(
                        "recovery_record_unappliable",
                        session=name, record_seq=seq,
                    )
                return
            session.intervals_pushed += len(reports)
            session.branches_ingested += len(record["pcs"])
        else:
            try:
                registry.close(name)
            except SessionNotFoundError:
                pass  # its checkpoint is cleaned up all the same
        self._track(kind, name, seq)
        result.replayed_records += 1

    def _drop(self, registry: SessionRegistry, name: str) -> Optional[int]:
        """Drop ``name`` from the registry and the seq books without
        saving it; returns the seq of the checkpoint it had, if any."""
        if name in registry:
            registry.close(name)
        checkpoint = self._untrack(name)
        return self._cold.pop(name, checkpoint)

    def _demote(
        self, registry: SessionRegistry, name: str, result: RecoveryResult
    ) -> None:
        """A damaged session falls back to its last good checkpoint
        (cold), or is dropped when it has none."""
        result.damaged_sessions += 1
        checkpoint = self._drop(registry, name)
        if checkpoint is not None:
            self._cold[name] = checkpoint

    # -- write-ahead logging --------------------------------------------------

    def _track(self, kind: str, name: str, seq: int) -> None:
        """Per-session seq bookkeeping for one journaled record, shared
        by the write path and recovery's replay of the same record."""
        if kind == "close":
            self._untrack(name)
            if self._cold.pop(name, None) is not None:
                self._set_cold_gauge()
            self.checkpoints.delete(name)
            return
        self._session_seqs[name] = seq
        if kind == "open":
            self._first_seqs[name] = seq
            self._checkpoint_seqs.pop(name, None)

    def _untrack(self, name: str) -> Optional[int]:
        """Forget a session's live seqs; returns its checkpoint seq."""
        self._session_seqs.pop(name, None)
        self._first_seqs.pop(name, None)
        return self._checkpoint_seqs.pop(name, None)

    def log_open(
        self,
        name: str,
        config: Optional[dict] = None,
        interval_instructions: Optional[int] = None,
        snapshot: Optional[dict] = None,
    ) -> int:
        """Journal a successful ``open``; returns the record's seq.

        A restore snapshot too large for one journal frame does not
        travel inline: the open record carries a marker instead and the
        snapshot is published as the session's first checkpoint,
        covering the open record itself.
        """
        record = {
            "kind": "open",
            "session": name,
            "config": config,
            "interval_instructions": interval_instructions,
            "snapshot": snapshot,
        }
        try:
            seq = self.journal.append(record)
        except PersistenceError:
            if snapshot is None or self.journal.closed:
                raise
            record.update(snapshot=None, snapshot_ref="checkpoint")
            seq = self.journal.append(record)
            self.checkpoints.write(name, {
                "seq": seq,
                "snapshot": snapshot,
                "meta": {"interval_instructions": interval_instructions},
            })
            self._track("open", name, seq)
            self._checkpoint_seqs[name] = seq
            return seq
        self._track("open", name, seq)
        return seq

    def log_observe(
        self, name: str, pcs: list[int], counts: list[int], cpi: float = 1.0
    ) -> int:
        """Journal one applied observe batch; returns the record's seq.

        ``pcs`` and ``counts`` are lists of ``int``, as
        :func:`~repro.service.protocol.observe_request` validates them;
        they are encoded without a copy.
        """
        seq = self.journal.append({
            "kind": "observe",
            "session": name,
            "pcs": pcs,
            "counts": counts,
            "cpi": float(cpi),
        })
        self._track("observe", name, seq)
        return seq

    def log_close(self, name: str) -> int:
        """Journal a ``close`` and delete the session's durable state."""
        seq = self.journal.append({"kind": "close", "session": name})
        self._track("close", name, seq)
        return seq

    # -- evict-to-disk / hydrate-on-demand ------------------------------------

    def save_session(self, session: Session, reason: str) -> None:
        """The registry's ``on_evict`` pre-drop hook: checkpoint the
        session and register it cold instead of losing its state."""
        seq = self.checkpoint_session(session)
        self._untrack(session.name)
        self._cold[session.name] = seq
        self._set_cold_gauge()
        self.evict_saves += 1
        if self._telemetry is not None:
            self._telemetry.emit(
                "session_evicted_to_disk",
                session=session.name, reason=reason, covered_seq=seq,
            )

    def resolve(
        self, name: str, land: Callable[[dict], object]
    ) -> Optional[Session]:
        """The registry's ``resolver``: hydrate a cold session.

        Hands the checkpoint's snapshot to ``land``; the session leaves
        the cold set only after ``land`` returned, so a refused
        admission keeps it on disk. Returns ``None`` when the name is
        unknown or its checkpoint is unreadable or invalid (a counted
        failure — the registry then reports the session as not found,
        the same as any reclaimed session).
        """
        if name not in self._cold:
            return None
        document = self.checkpoints.load(name)
        if document is None:
            self.hydrate_failures += 1
            if self.checkpoints.path_for(name).exists():
                # Transient read failure: the checkpoint is still on
                # disk, so keep the cold registration (and the name
                # reservation) for a later retry.
                return None
            self._cold.pop(name, None)
            self._set_cold_gauge()
            return None
        try:
            seq = int(document["seq"])
            meta = document.get("meta") or {}
            intervals_pushed = int(meta.get("intervals_pushed", 0))
            branches_ingested = int(meta.get("branches_ingested", 0))
            tracker = land(document["snapshot"])
        except (SnapshotError, AttributeError, LookupError, TypeError,
                ValueError):
            self._cold.pop(name, None)
            self._set_cold_gauge()
            self.hydrate_failures += 1
            if self._telemetry is not None:
                self._telemetry.emit("hydrate_failed", session=name)
            return None
        session = Session(name, tracker, self._clock(), restored=True)
        session.intervals_pushed = intervals_pushed
        session.branches_ingested = branches_ingested
        self._cold.pop(name, None)
        self._session_seqs[name] = seq
        self._checkpoint_seqs[name] = seq
        self._set_cold_gauge()
        self.hydrated += 1
        if self._telemetry is not None:
            self._m_hydrates.inc()
        return session

    def contains_cold(self, name: str) -> bool:
        """The registry's ``name_reserved`` hook: cold names stay taken."""
        return name in self._cold

    @property
    def cold_sessions(self) -> int:
        return len(self._cold)

    def cold_names(self):
        return sorted(self._cold)

    # -- checkpoint + compact -------------------------------------------------

    def checkpoint_session(self, session: Session) -> int:
        """Snapshot one live session; returns the seq it covers.

        The journal is synced first: a published checkpoint covering
        seq N asserts the on-disk journal reaches N, so recovery's
        seq accounting stays consistent after a machine crash.
        """
        seq = self._session_seqs.get(session.name, 0)
        if self.journal.unsynced_records:
            self.journal.sync()
        self.checkpoints.write(session.name, {
            "seq": seq,
            "snapshot": snapshot_tracker(session.tracker),
            "meta": {
                "intervals_pushed": session.intervals_pushed,
                "branches_ingested": session.branches_ingested,
                "interval_instructions":
                    session.tracker.interval_instructions,
            },
        })
        self._checkpoint_seqs[session.name] = seq
        self._first_seqs.pop(session.name, None)
        if self._telemetry is not None:
            self._m_checkpoints.inc()
        return seq

    def checkpoint_all(self, sessions: Iterable[Session]) -> int:
        """Checkpoint every *dirty* live session (journaled past its
        last checkpoint); returns the number written.

        The journal is fsynced *before* any checkpoint publishes (and
        unconditionally, so each sweep also bounds durability lag even
        when every session is clean) — a checkpoint must never be
        durable while the journal records it covers are not.
        """
        self.journal.sync()
        written = 0
        for session in sessions:
            current = self._session_seqs.get(session.name, 0)
            if self._checkpoint_seqs.get(session.name) == current:
                self.checkpoints_skipped_clean += 1
                continue
            self.checkpoint_session(session)
            written += 1
        return written

    def compact(self) -> int:
        """Drop journal segments every session has checkpointed past."""
        needed = [seq + 1 for seq in self._cold.values()]
        for name in self._session_seqs:
            checkpointed = self._checkpoint_seqs.get(name)
            if checkpointed is not None:
                needed.append(checkpointed + 1)
            else:
                needed.append(self._first_seqs.get(name, 1))
        min_needed = min(needed) if needed else self.journal.next_seq
        return compact_journal(
            self.journal_root,
            min_needed,
            active_path=self.journal.active_path,
            telemetry=self._telemetry,
        )

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Sync and close the journal. Idempotent."""
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "PersistenceManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _set_cold_gauge(self) -> None:
        if self._telemetry is not None:
            self._g_cold.set(len(self._cold))

    def stats(self) -> Dict[str, int]:
        """JSON-safe durability counters for the stats endpoint."""
        return {
            "cold": len(self._cold),
            "journal_records": self.journal.records_appended,
            "journal_bytes": self.journal.bytes_appended,
            "journal_unsynced": self.journal.unsynced_records,
            "checkpoints_written": self.checkpoints.written,
            "hydrated": self.hydrated,
            "hydrate_failures": self.hydrate_failures,
            "evict_saves": self.evict_saves,
            "recovered_live": self.recovery.live_sessions,
            "recovered_cold": len(self.recovery.cold),
            "replayed_records": self.recovery.replayed_records,
            "torn_tails": self.recovery.journal.torn_tails,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PersistenceManager(root={str(self.root)!r}, "
            f"sync={self.journal.sync_mode!r}, cold={len(self._cold)})"
        )
