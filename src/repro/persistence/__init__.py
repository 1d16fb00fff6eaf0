"""repro.persistence — the durable session tier (stdlib only).

Sessions used to live only in RAM behind the service registry's LRU
cap: idle users were silently destroyed, and a crash lost every
signature table and predictor the node had warmed — exactly the
transition-phase learning the source paper shows dominates accuracy.
This package makes phase history durable:

- :mod:`repro.persistence.journal` — append-only CRC-framed segment
  journal (``none`` / ``batch`` / ``always`` sync modes, torn-tail
  tolerant replay);
- :mod:`repro.persistence.checkpoints` — atomic per-session snapshot
  checkpoints (tmp + rename publication, CRC-verified loads);
- :mod:`repro.persistence.compaction` — drop journal segments every
  checkpoint has superseded;
- :mod:`repro.persistence.manager` — :class:`PersistenceManager`, the
  facade the service tier wires in: evict-to-disk, hydrate-on-demand,
  write-ahead logging, periodic checkpoints, and ``kill -9`` recovery
  (:meth:`~PersistenceManager.install_into`: checkpointed sessions
  start cold, the journal tail replays through the registry's own
  open / get / close, damage is counted in a :class:`RecoveryResult`
  instead of raised).

Enable it on a server with ``repro-phases serve --data-dir PATH``
(plus ``--sync`` and ``--checkpoint-interval``), or in code via
``PhaseService(data_dir=...)``.
"""

from repro.persistence.checkpoints import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointStore,
)
from repro.persistence.compaction import compact_journal
from repro.persistence.journal import (
    Journal,
    JournalReplay,
    ReplayStats,
    SYNC_MODES,
    list_segments,
    replay_journal,
)
from repro.persistence.manager import PersistenceManager, RecoveryResult

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointStore",
    "Journal",
    "JournalReplay",
    "PersistenceManager",
    "RecoveryResult",
    "ReplayStats",
    "SYNC_MODES",
    "compact_journal",
    "list_segments",
    "replay_journal",
]
