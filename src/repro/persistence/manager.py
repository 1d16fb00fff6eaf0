"""The durable session tier behind one handle.

:class:`PersistenceManager` composes the journal, the checkpoint
store, recovery, and compaction into the three hooks the session
registry exposes, plus the logging calls the server makes:

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
- **crash recovery** — :meth:`install_into` replays the data directory
  onto the registry (:func:`~repro.persistence.recovery.recover_state`)
  and re-registers the reconstructed sessions, letting the registry's
  own eviction policy push overflow back to disk.
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
from pathlib import Path
from functools import partial
from typing import Callable, Dict, Iterable, Optional, TYPE_CHECKING, Union

from repro.errors import PersistenceError, SnapshotError
from repro.persistence.checkpoints import CheckpointStore
from repro.persistence.compaction import compact_journal
from repro.persistence.journal import Journal
from repro.persistence.recovery import RecoveryResult, recover_state
from repro.service.session import Session, SessionRegistry
from repro.service.snapshot import snapshot_tracker

if TYPE_CHECKING:  # pragma: no cover - import-time typing only
    from repro.telemetry import Telemetry


class PersistenceManager:
    """Durable sessions for one data directory.

    Installing the manager (:meth:`install_into`) *is* recovery: the
    journal is replayed (torn tail truncated, a counted non-fatal
    event) and every session the directory knows is reconstructed —
    materialized onto the registry's trackers when it had a replay
    tail, left cold when its checkpoint is current. The journal opens
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
        """Recover the data directory onto ``registry`` (default-config
        sessions on its pool's slots), open the journal, wire the
        registry's persistence hooks and re-install the recovered
        sessions; returns how many went live.

        Installation is oldest-activity-first, so when the recovered
        population exceeds the registry cap, the registry's own LRU
        eviction (now persistence-backed) pushes the stalest ones
        straight back to disk as cold sessions.
        """
        self.recovery = recover_state(
            self.journal_root, self.checkpoints, registry, self._telemetry
        )
        self.journal = self._open_journal(next_seq=self.recovery.next_seq)
        for name in self.recovery.closed:
            self.checkpoints.delete(name)
        self._cold = dict(self.recovery.cold)
        self._set_cold_gauge()
        registry.on_evict = self.save_session
        registry.resolver = self.resolve
        registry.name_reserved = self.contains_cold
        installed = 0
        recovered = sorted(
            self.recovery.live.values(), key=lambda entry: entry.last_seq
        )
        for entry in recovered:
            session = Session(
                entry.name, entry.tracker, self._clock(), restored=True
            )
            session.intervals_pushed = entry.intervals_pushed
            session.branches_ingested = entry.branches_ingested
            self._session_seqs[entry.name] = entry.last_seq
            if entry.checkpoint_seq is not None:
                self._checkpoint_seqs[entry.name] = entry.checkpoint_seq
            if entry.first_seq is not None:
                self._first_seqs[entry.name] = entry.first_seq
            registry.adopt(session)
            installed += 1
        return installed

    # -- write-ahead logging --------------------------------------------------

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
            self._session_seqs[name] = seq
            self._first_seqs[name] = seq
            self._checkpoint_seqs[name] = seq
            return seq
        self._session_seqs[name] = seq
        self._first_seqs[name] = seq
        self._checkpoint_seqs.pop(name, None)
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
        self._session_seqs[name] = seq
        return seq

    def log_close(self, name: str) -> int:
        """Journal a ``close`` and delete the session's durable state."""
        seq = self.journal.append({"kind": "close", "session": name})
        self._session_seqs.pop(name, None)
        self._checkpoint_seqs.pop(name, None)
        self._first_seqs.pop(name, None)
        if self._cold.pop(name, None) is not None:
            self._set_cold_gauge()
        self.checkpoints.delete(name)
        return seq

    # -- evict-to-disk / hydrate-on-demand ------------------------------------

    def save_session(self, session: Session, reason: str) -> None:
        """The registry's ``on_evict`` pre-drop hook: checkpoint the
        session and register it cold instead of losing its state."""
        seq = self.checkpoint_session(session)
        self._session_seqs.pop(session.name, None)
        self._checkpoint_seqs.pop(session.name, None)
        self._first_seqs.pop(session.name, None)
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
            "recovered_live": len(self.recovery.live),
            "recovered_cold": len(self.recovery.cold),
            "replayed_records": self.recovery.replayed_records,
            "torn_tails": self.recovery.journal.torn_tails,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PersistenceManager(root={str(self.root)!r}, "
            f"sync={self.journal.sync_mode!r}, cold={len(self._cold)})"
        )
