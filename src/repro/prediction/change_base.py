"""Shared machinery for table-based phase-change predictors.

The Markov-N and RLE-N predictors differ only in how they index their
prediction table; everything else — entry variants (single outcome,
Last-4 unique outcomes, Top-N most frequent outcomes), the per-entry
1-bit confidence counter, and the paper's table update rules (§5.2.3) —
is shared and lives here.

Entry variants (paper §5.2.2, §6.1):

- ``single`` — the entry stores the most recent outcome of the change.
- ``last4`` — the entry stores the last 4 *unique* outcomes; a
  prediction counts as correct when the actual outcome is any of them.
- ``top1`` / ``top4`` — the entry tracks outcome frequencies and
  predicts the 1 (or 4) most frequent outcome(s).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Tuple

from repro.errors import ConfigurationError, PredictionError
from repro.prediction.assoc_table import AssociativeTable, tuple_key
from repro.prediction.counters import ConfidenceCounter
from repro.prediction.protocol import PhaseObservation

ENTRY_KINDS = ("single", "last4", "top1", "top4")


class ChangeEntry:
    """One phase-change table entry: outcome store + confidence bit."""

    __slots__ = ("kind", "_last", "_recent", "_freq", "confidence")

    def __init__(self, kind: str, confidence_bits: int = 1) -> None:
        if kind not in ENTRY_KINDS:
            raise ConfigurationError(
                f"kind must be one of {ENTRY_KINDS}, got {kind!r}"
            )
        self.kind = kind
        self._last: Optional[int] = None
        self._recent: List[int] = []  # last-4 unique outcomes, newest last
        self._freq: Counter = Counter()
        self.confidence = ConfidenceCounter(confidence_bits)

    # -- outcome bookkeeping ------------------------------------------------

    def record_outcome(self, outcome: int) -> None:
        """Fold one observed change outcome into the entry."""
        self._last = outcome
        if outcome in self._recent:
            self._recent.remove(outcome)
        self._recent.append(outcome)
        self._recent = self._recent[-4:]
        self._freq[outcome] += 1

    def predicted_outcomes(self) -> Tuple[int, ...]:
        """The outcome set this entry currently predicts.

        The first element is the primary prediction (used when a single
        phase ID must be produced); for ``last4``/``top4`` a match on
        any element counts as correct.
        """
        if self._last is None:
            return ()
        if self.kind == "single":
            return (self._last,)
        if self.kind == "last4":
            return tuple(reversed(self._recent))
        count = 1 if self.kind == "top1" else 4
        return tuple(
            outcome for outcome, _ in self._freq.most_common(count)
        )

    # -- snapshot hooks -------------------------------------------------------

    def export_state(self) -> dict:
        """JSON-safe entry state (outcome stores + confidence value)."""
        return {
            "last": self._last,
            "recent": list(self._recent),
            "freq": list(self._freq.items()),
            "confidence": self.confidence.value,
        }

    @classmethod
    def from_state(
        cls, state: dict, kind: str, confidence_bits: int
    ) -> "ChangeEntry":
        """Rebuild an entry from :meth:`export_state` output.

        ``freq`` pairs are kept in the counter's insertion order, which
        is what breaks ``most_common`` frequency ties — restoring in
        the same order keeps top-N predictions byte-identical.
        """
        entry = cls(kind, confidence_bits)
        entry._last = state["last"]
        entry._recent = [int(v) for v in state["recent"]]
        entry._freq = Counter(
            {int(outcome): int(count) for outcome, count in state["freq"]}
        )
        entry.confidence.reset(int(state["confidence"]))
        return entry


@dataclass(frozen=True)
class ChangePrediction:
    """A phase-change table lookup result.

    ``outcomes`` is empty on a tag miss. ``confident`` reflects the
    entry's confidence counter (always True when the predictor runs
    without table confidence).
    """

    outcomes: Tuple[int, ...]
    confident: bool
    hit: bool

    @property
    def primary(self) -> Optional[int]:
        """The single phase ID predicted, or ``None`` on a miss."""
        return self.outcomes[0] if self.outcomes else None

    def matches(self, actual: int) -> bool:
        """Whether ``actual`` is within the predicted outcome set."""
        return actual in self.outcomes


class ChangePredictorBase:
    """Phase-change predictor over an associative table.

    Subclasses define the table key via :meth:`change_key` (used when a
    run has just completed) and :meth:`running_key` (used mid-run for
    next-interval prediction). The stream of classified phase IDs is
    fed through :meth:`advance`.

    Parameters
    ----------
    entries / assoc:
        Prediction table geometry (32 entries, 4-way in the paper).
    entry_kind:
        Outcome-store variant; see module docstring.
    use_confidence:
        Gate predictions on the per-entry 1-bit confidence counter.
    history_depth:
        Bound on retained run history (must cover the key depth).
    """

    def __init__(
        self,
        entries: int = 32,
        assoc: int = 4,
        entry_kind: str = "single",
        use_confidence: bool = True,
        confidence_bits: int = 1,
        history_depth: int = 8,
    ) -> None:
        if history_depth < 1:
            raise ConfigurationError(
                f"history_depth must be >= 1, got {history_depth}"
            )
        self.table: AssociativeTable[ChangeEntry] = AssociativeTable(
            entries=entries, assoc=assoc
        )
        self.entry_kind = entry_kind
        if entry_kind not in ENTRY_KINDS:
            raise ConfigurationError(
                f"entry_kind must be one of {ENTRY_KINDS}, got {entry_kind!r}"
            )
        self.use_confidence = use_confidence
        self.confidence_bits = confidence_bits
        self.history_depth = history_depth
        # Completed runs, oldest first: (phase_id, run_length).
        self._runs: List[Tuple[int, int]] = []
        self._current_phase: Optional[int] = None
        self._current_run = 0

    # -- key construction (subclass responsibility) -------------------------

    def change_key(self) -> Optional[Hashable]:
        """Key for the change that ends the just-completed run.

        Called immediately after the completed run has been pushed to
        history. ``None`` when history is too shallow to form a key.
        """
        raise NotImplementedError

    def running_key(self) -> Optional[Hashable]:
        """Key for next-interval prediction mid-run (ongoing run
        included with its length so far)."""
        raise NotImplementedError

    # -- history ------------------------------------------------------------

    @property
    def current_phase(self) -> Optional[int]:
        return self._current_phase

    @property
    def current_run_length(self) -> int:
        return self._current_run

    @property
    def completed_runs(self) -> List[Tuple[int, int]]:
        """Retained completed (phase, length) runs, oldest first."""
        return list(self._runs)

    def advance(self, phase_id: int) -> PhaseObservation:
        """Advance history with one classified interval.

        ``completed_run`` carries the completed (phase, run length)
        pair when this interval *changes* phase (i.e. ends a run). The
        caller is expected to have consumed predictions *before* calling
        this, and to train the table via :meth:`train_change` /
        :meth:`note_same_phase` per the §5.2.3 update rules.
        """
        if self._current_phase is None:
            self._current_phase = phase_id
            self._current_run = 1
            return PhaseObservation(phase_id=phase_id, phase_changed=False)
        if phase_id == self._current_phase:
            self._current_run += 1
            return PhaseObservation(phase_id=phase_id, phase_changed=False)
        completed = (self._current_phase, self._current_run)
        self._runs.append(completed)
        self._runs = self._runs[-self.history_depth:]
        self._current_phase = phase_id
        self._current_run = 1
        return PhaseObservation(
            phase_id=phase_id, phase_changed=True, completed_run=completed
        )

    # -- prediction -----------------------------------------------------------

    def _lookup(self, key: Optional[Hashable]) -> ChangePrediction:
        if key is None:
            return ChangePrediction(outcomes=(), confident=False, hit=False)
        entry = self.table.lookup(key)
        if entry is None:
            return ChangePrediction(outcomes=(), confident=False, hit=False)
        confident = entry.confidence.confident if self.use_confidence else True
        return ChangePrediction(
            outcomes=entry.predicted_outcomes(),
            confident=confident,
            hit=True,
        )

    def predict_change(self) -> ChangePrediction:
        """Predict the outcome of the change ending the completed run.

        Valid immediately after :meth:`advance` reported a completed
        run — i.e. at a phase-change point, keyed by the completed run.
        """
        return self._lookup(self.change_key())

    def predict_next(self) -> ChangePrediction:
        """Predict mid-run whether/where the next interval changes phase."""
        return self._lookup(self.running_key())

    # -- training ---------------------------------------------------------------

    def train_change(self, key: Optional[Hashable], actual: int) -> None:
        """Train the table with an observed change outcome.

        Follows §5.2.3: entries are only inserted on a phase change; an
        existing entry's confidence is trained against its *previous*
        prediction before the new outcome is recorded.
        """
        if key is None:
            return
        entry = self.table.lookup(key)
        if entry is None:
            entry = ChangeEntry(self.entry_kind, self.confidence_bits)
            entry.record_outcome(actual)
            self.table.insert(key, entry)
            return
        was_correct = actual in entry.predicted_outcomes()
        entry.confidence.record(was_correct)
        entry.record_outcome(actual)

    def note_same_phase(self, key: Optional[Hashable]) -> None:
        """§5.2.3 removal rule: a tag hit predicted a change, but the
        phase did not change — drop the entry, since last-value would
        have been correct."""
        if key is None:
            return
        self.table.remove(key)

    # -- lifecycle / snapshot hooks -------------------------------------------

    def reset(self) -> None:
        """Forget all history and table contents, keeping configuration
        (geometry, entry kind, confidence) in place."""
        self.table.clear()
        self._runs.clear()
        self._current_phase = None
        self._current_run = 0

    def snapshot_kwargs(self) -> dict:
        """Constructor kwargs identifying this predictor for snapshots.

        Subclasses add their indexing parameter (``depth`` / ``order``)
        on top of the shared geometry captured here.
        """
        return {
            "entries": self.table.entries,
            "assoc": self.table.assoc,
            "entry_kind": self.entry_kind,
            "use_confidence": self.use_confidence,
        }

    def export_state(self) -> dict:
        """JSON-safe predictor state (history + prediction table)."""
        return {
            "runs": [[phase, length] for phase, length in self._runs],
            "current_phase": self._current_phase,
            "current_run": self._current_run,
            "table": self.table.export_state(
                lambda entry: entry.export_state()
            ),
        }

    def restore_state(self, state: dict) -> None:
        """Restore state captured by :meth:`export_state` onto a
        predictor constructed with the same configuration."""
        self._runs = [
            (int(phase), int(length)) for phase, length in state["runs"]
        ]
        self._current_phase = state["current_phase"]
        self._current_run = int(state["current_run"])
        self.table.restore_state(
            state["table"],
            lambda raw: ChangeEntry.from_state(
                raw, self.entry_kind, self.confidence_bits
            ),
            tuple_key,
        )
