"""The unified phase-predictor observation protocol.

Historically every predictor family grew its own ``observe()`` return
contract: the table-based change predictors returned the completed
``(phase, run length)`` pair, the last-value and length predictors
returned ``None``, and the perfect (oracle) predictors returned an
``Optional[bool]`` verdict. Drivers had to know which family they were
talking to.

:class:`PhasePredictor` is the one documented contract: every predictor
exposes ``advance(phase_id) -> PhaseObservation`` plus ``reset()``.
``advance`` feeds one classified interval and returns a uniform
:class:`PhaseObservation` record carrying everything any of the old
contracts carried:

- ``phase_changed`` — this interval ended a phase run;
- ``completed_run`` — the completed ``(phase, length)`` pair when the
  predictor tracks run lengths (``None`` otherwise, and on stable
  intervals);
- ``oracle_correct`` — the perfect predictors' verdict (``None`` for
  realizable predictors, and on stable intervals).

:class:`~repro.prediction.composite.CompositePhasePredictor` is a
*driver* of this protocol, not an implementation: it consumes
``advance()`` observations from its components and exposes the richer
``step``/``predict`` interface trackers use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Tuple, runtime_checkable


@dataclass(frozen=True)
class PhaseObservation:
    """What one ``advance(phase_id)`` call observed.

    Parameters
    ----------
    phase_id:
        The classified phase ID that was fed in.
    phase_changed:
        Whether this interval changed phase (ended a run). The first
        interval a predictor ever sees only seeds state and reports
        ``False``.
    completed_run:
        The completed ``(phase, run length)`` pair when this interval
        ended a run *and* the predictor tracks run lengths; ``None``
        otherwise.
    oracle_correct:
        Perfect (infinite-memory) predictors only: whether the oracle
        had seen this transition before. ``None`` for realizable
        predictors and on intervals without a phase change.
    """

    phase_id: int
    phase_changed: bool
    completed_run: Optional[Tuple[int, int]] = None
    oracle_correct: Optional[bool] = None


@runtime_checkable
class PhasePredictor(Protocol):
    """The contract every phase predictor implements.

    ``advance`` consumes one classified interval and returns a
    :class:`PhaseObservation`; ``reset`` forgets all learned state
    while keeping configuration in place.
    """

    def advance(self, phase_id: int) -> PhaseObservation:
        """Feed one classified interval; report what was observed."""
        ...  # pragma: no cover - protocol declaration

    def reset(self) -> None:
        """Forget all history, keeping configuration."""
        ...  # pragma: no cover - protocol declaration
