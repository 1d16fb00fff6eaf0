"""Phase length prediction (paper §6.2, Figure 9).

Predicting the exact length of the next phase is hard; the paper groups
run lengths into four classes and predicts the class:

- class 0: 1-15 intervals      (10M-150M instructions)
- class 1: 16-127 intervals    (160M-1.27B instructions)
- class 2: 128-1023 intervals  (1.28B-10.2B instructions)
- class 3: >= 1024 intervals   (> 10.24B instructions)

The predictor reuses the RLE-2 indexing scheme (32-entry, 4-way) but
each entry stores a run-length class plus a hysteresis latch: a new
class replaces the stored prediction only after being observed twice in
a row, filtering noise in the phase lengths of complex programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.prediction.assoc_table import AssociativeTable, tuple_key
from repro.prediction.protocol import PhaseObservation

#: Inclusive lower bounds of the four run-length classes (in intervals).
LENGTH_CLASS_BOUNDS: Tuple[int, ...] = (1, 16, 128, 1024)

#: Human-readable labels, matching the paper's Figure 9 legend.
LENGTH_CLASS_LABELS: Tuple[str, ...] = ("1-15", "16-127", "128-1023", "1024-")


def length_class(run_length: int) -> int:
    """Classify a phase run length (in intervals) into its class index."""
    if run_length < 1:
        raise ConfigurationError(
            f"run_length must be >= 1, got {run_length}"
        )
    for index in range(len(LENGTH_CLASS_BOUNDS) - 1, -1, -1):
        if run_length >= LENGTH_CLASS_BOUNDS[index]:
            return index
    raise AssertionError("unreachable: bounds start at 1")


@dataclass
class _LengthEntry:
    """Predicted class + two-in-a-row hysteresis latch."""

    predicted_class: int
    pending_class: Optional[int] = None

    def train(self, observed_class: int) -> None:
        """Update with hysteresis: a differing class must repeat twice."""
        if observed_class == self.predicted_class:
            self.pending_class = None
            return
        if self.pending_class == observed_class:
            self.predicted_class = observed_class
            self.pending_class = None
        else:
            self.pending_class = observed_class


@dataclass
class LengthPredictionStats:
    """Per-change outcome counts for length-class prediction."""

    predictions: int = 0
    correct: int = 0
    tag_misses: int = 0
    confusion: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def record(self, predicted: Optional[int], actual: int,
               fallback_class: int = 0) -> None:
        """Score one completed phase run.

        A tag miss falls back to ``fallback_class`` — the predictor
        always issues a prediction, as in Figure 9. The caller passes
        the most common class observed so far (a static "phases are
        short" prediction that adapts to the program; §6.2.1 notes that
        statically predicting a small phase performs well for most
        programs).
        """
        self.predictions += 1
        if predicted is None:
            self.tag_misses += 1
            predicted = fallback_class
        if predicted == actual:
            self.correct += 1
        self.confusion[(predicted, actual)] = (
            self.confusion.get((predicted, actual), 0) + 1
        )

    @property
    def misprediction_rate(self) -> float:
        """Wrong class predictions over all phase changes."""
        if self.predictions == 0:
            return 0.0
        return 1.0 - self.correct / self.predictions

    def confusion_table(self) -> str:
        """Render the predicted-vs-actual class confusion matrix."""
        size = len(LENGTH_CLASS_LABELS)
        width = max(len(label) for label in LENGTH_CLASS_LABELS) + 2
        header = "pred \\ actual".ljust(width) + "".join(
            label.rjust(width) for label in LENGTH_CLASS_LABELS
        )
        lines = [header]
        for predicted in range(size):
            cells = [
                str(self.confusion.get((predicted, actual), 0)).rjust(width)
                for actual in range(size)
            ]
            lines.append(
                LENGTH_CLASS_LABELS[predicted].ljust(width) + "".join(cells)
            )
        return "\n".join(lines)


class PhaseLengthPredictor:
    """RLE-2-indexed run-length-class predictor with hysteresis.

    Drive with :meth:`advance` per classified interval; statistics
    accumulate in :attr:`stats`. The predictor predicts, at each phase
    change, the length class of the phase being *entered*; the
    prediction is scored once that phase's run completes.
    """

    def __init__(
        self, depth: int = 2, entries: int = 32, assoc: int = 4
    ) -> None:
        if depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {depth}")
        self.depth = depth
        self.table: AssociativeTable[_LengthEntry] = AssociativeTable(
            entries=entries, assoc=assoc
        )
        self.stats = LengthPredictionStats()
        self._class_histogram = [0] * len(LENGTH_CLASS_BOUNDS)
        self._runs: List[Tuple[int, int]] = []
        self._current_phase: Optional[int] = None
        self._current_run = 0
        # Prediction outstanding for the currently running phase:
        # (key, predicted_class or None on tag miss).
        self._outstanding: Optional[Tuple[Hashable, Optional[int]]] = None

    def _key(self) -> Optional[Hashable]:
        """RLE-depth key over the completed runs (newest last)."""
        if len(self._runs) < self.depth:
            return None
        return ("rle-len", self.depth, tuple(self._runs[-self.depth:]))

    @property
    def outstanding_prediction(self) -> Optional[int]:
        """Predicted length class of the phase currently running.

        ``None`` when no prediction is outstanding (start of the run,
        shallow history) or the last lookup was a tag miss. Consumers
        like a DVS policy read this right after a phase change.
        """
        if self._outstanding is None:
            return None
        return self._outstanding[1]

    def advance(self, phase_id: int) -> PhaseObservation:
        """Feed one classified interval."""
        if self._current_phase is None:
            self._current_phase = phase_id
            self._current_run = 1
            return PhaseObservation(phase_id=phase_id, phase_changed=False)
        if phase_id == self._current_phase:
            self._current_run += 1
            return PhaseObservation(phase_id=phase_id, phase_changed=False)

        # The current run just completed: score the outstanding
        # prediction for it and train the entry it came from.
        completed = (self._current_phase, self._current_run)
        actual_class = length_class(self._current_run)
        if self._outstanding is not None:
            key, predicted = self._outstanding
            fallback = max(
                range(len(self._class_histogram)),
                key=self._class_histogram.__getitem__,
            )
            self.stats.record(predicted, actual_class,
                              fallback_class=fallback)
            entry = self.table.lookup(key)
            if entry is None:
                self.table.insert(key, _LengthEntry(actual_class))
            else:
                entry.train(actual_class)
        self._class_histogram[actual_class] += 1
        self._runs.append(completed)
        self._runs = self._runs[-(self.depth + 2):]

        # Predict the length class of the phase we are entering, keyed
        # by the RLE history that ends with the completed run.
        key = self._key()
        if key is not None:
            entry = self.table.peek(key)
            predicted = entry.predicted_class if entry is not None else None
            self._outstanding = (key, predicted)
        else:
            self._outstanding = None

        self._current_phase = phase_id
        self._current_run = 1
        return PhaseObservation(
            phase_id=phase_id, phase_changed=True, completed_run=completed
        )

    # -- lifecycle / snapshot hooks -------------------------------------------

    def reset(self) -> None:
        """Forget all history, table contents and statistics, keeping
        the depth/geometry configuration."""
        self.table.clear()
        self.stats = LengthPredictionStats()
        self._class_histogram = [0] * len(LENGTH_CLASS_BOUNDS)
        self._runs.clear()
        self._current_phase = None
        self._current_run = 0
        self._outstanding = None

    def export_state(self) -> dict:
        """JSON-safe full predictor state."""
        return {
            "table": self.table.export_state(
                lambda entry: [entry.predicted_class, entry.pending_class]
            ),
            "stats": {
                "predictions": self.stats.predictions,
                "correct": self.stats.correct,
                "tag_misses": self.stats.tag_misses,
                "confusion": [
                    [predicted, actual, count]
                    for (predicted, actual), count
                    in self.stats.confusion.items()
                ],
            },
            "class_histogram": list(self._class_histogram),
            "runs": [[phase, length] for phase, length in self._runs],
            "current_phase": self._current_phase,
            "current_run": self._current_run,
            "outstanding": (
                [self._outstanding[0], self._outstanding[1]]
                if self._outstanding is not None
                else None
            ),
        }

    def restore_state(self, state: dict) -> None:
        """Restore state captured by :meth:`export_state` onto a
        predictor constructed with the same configuration."""
        self.table.restore_state(
            state["table"],
            lambda raw: _LengthEntry(
                predicted_class=int(raw[0]),
                pending_class=raw[1] if raw[1] is None else int(raw[1]),
            ),
            tuple_key,
        )
        stats = state["stats"]
        self.stats = LengthPredictionStats(
            predictions=int(stats["predictions"]),
            correct=int(stats["correct"]),
            tag_misses=int(stats["tag_misses"]),
            confusion={
                (int(predicted), int(actual)): int(count)
                for predicted, actual, count in stats["confusion"]
            },
        )
        self._class_histogram = [int(v) for v in state["class_histogram"]]
        self._runs = [
            (int(phase), int(length)) for phase, length in state["runs"]
        ]
        self._current_phase = state["current_phase"]
        self._current_run = int(state["current_run"])
        outstanding = state["outstanding"]
        self._outstanding = (
            (tuple_key(outstanding[0]),
             None if outstanding[1] is None else int(outstanding[1]))
            if outstanding is not None
            else None
        )
