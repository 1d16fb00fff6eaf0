"""Tracker snapshots: the versioned document and its one decoder.

A snapshot is a JSON-safe document capturing *everything* a tracker
knows: the signature table (entries, per-entry thresholds, min
counters, CPI statistics, LRU clocks), the mid-interval accumulator
contents, adaptive-threshold state, both predictors' tables and
histories, and the interval bookkeeping. Restoring a snapshot and
continuing a branch stream yields byte-identical phase-ID and
prediction streams versus never having stopped — the property the test
suite enforces — so sessions survive service restarts and can migrate
between hosts.

:func:`decode` is the one validator: the ``schema_version`` stamp
(:class:`~repro.errors.SnapshotSchemaError` on a mismatch), the
configuration, every tracker and classifier field, and the predictor
tables. Anything malformed raises :class:`~repro.errors.SnapshotError`
before a tracker or a pool slot exists. The session registry lands
default-configuration snapshots directly on pool slots;
:func:`restore_tracker` (decode, then scalar) is the test oracle.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Tuple

from repro.core.config import ACCUMULATOR_BITS, ClassifierConfig
from repro.core.online import PhaseTracker
from repro.errors import STATE_ERRORS, SnapshotError, SnapshotSchemaError
from repro.prediction import (
    CompositePhasePredictor,
    PhaseLengthPredictor,
    restore_predictors,
)

#: Snapshot document revision; bumped on incompatible state changes.
SNAPSHOT_VERSION = 1

__all__ = [
    "DecodedSnapshot",
    "SNAPSHOT_VERSION",
    "check_schema_version",
    "decode",
    "dumps",
    "loads",
    "restore_tracker",
    "snapshot_tracker",
]

#: Largest integer field value: the pool stores them in int64 arrays.
_INT64_MAX = 2**63 - 1


class DecodedSnapshot(NamedTuple):
    """A validated snapshot: the document's ``tracker`` state and its
    next-phase and length predictors, already restored."""

    config: ClassifierConfig
    state: dict
    predictors: Tuple[CompositePhasePredictor, PhaseLengthPredictor]

    @property
    def intervals_observed(self) -> int:
        """What a close of an evicted-to-disk session reports."""
        return self.state["interval_index"]

    def scalar_tracker(self) -> PhaseTracker:
        """A scalar :class:`PhaseTracker` continuing exactly where the
        snapshotted tracker stopped. Listeners are not part of a
        snapshot."""
        tracker = PhaseTracker(
            self.config,
            interval_instructions=self.state["interval_instructions"],
            change_predictor=self.predictors[0].change_predictor,
        )
        tracker.restore_state(self.state)
        return tracker


def snapshot_tracker(tracker) -> dict:
    """Export a tracker into a versioned, JSON-safe document.

    Accepts anything with the :class:`PhaseTracker` ``export_state``
    hook — including :class:`~repro.core.pool.PooledTracker` slots,
    whose exported state is byte-identical to the scalar tracker's.
    """
    document = {
        "schema_version": SNAPSHOT_VERSION,
        "tracker": tracker.export_state(),
    }
    return document


def check_schema_version(document: dict) -> int:
    """Validate a document's ``schema_version`` stamp.

    Accepts the pre-stamp key ``version`` as a legacy alias. Returns
    the version on success; raises :class:`SnapshotSchemaError` when
    the stamp is missing or differs from :data:`SNAPSHOT_VERSION`.
    """
    version = document.get("schema_version", document.get("version"))
    if version != SNAPSHOT_VERSION:
        raise SnapshotSchemaError(
            f"unsupported snapshot schema_version {version!r}; this "
            f"build reads version {SNAPSHOT_VERSION}"
        )
    return version


def decode(document: dict) -> DecodedSnapshot:
    """Validate a :func:`snapshot_tracker` document once, completely:
    it then restores onto a scalar tracker and a pool slot alike.

    Raises :class:`~repro.errors.SnapshotError` on a malformed document
    and :class:`~repro.errors.SnapshotSchemaError` (a subclass) on a
    ``schema_version`` mismatch.
    """
    if not isinstance(document, dict):
        raise SnapshotError("snapshot must be a JSON object")
    check_schema_version(document)
    state = document.get("tracker")
    if not isinstance(state, dict):
        raise SnapshotError("snapshot lacks the 'tracker' state object")
    try:
        config = ClassifierConfig(**state["classifier"]["config"])
    except STATE_ERRORS as error:
        raise SnapshotError(
            f"snapshot classifier configuration is invalid: {error}"
        ) from None
    try:
        _check_fields(state, config)
        predictors = restore_predictors(state)
    except SnapshotError:
        raise
    except STATE_ERRORS as error:
        raise SnapshotError(f"snapshot state is malformed: {error}") from None
    return DecodedSnapshot(config, state, predictors)


def restore_tracker(document: dict) -> PhaseTracker:
    """Rebuild a scalar tracker from a :func:`snapshot_tracker`
    document — the oracle for the registry's pool path."""
    return decode(document).scalar_tracker()


def _check_fields(state: dict, config: ClassifierConfig) -> None:
    """Type- and range-check the tracker and classifier fields, so the
    scalar and the pooled restore accept exactly the same documents."""
    classifier = state["classifier"]
    accumulator = classifier["accumulator"]
    table = classifier["table"]
    _integer(state, "interval_instructions", low=1)
    for mapping, keys in (
        (state, ("instructions", "interval_index", "branches_in_interval")),
        (classifier, ("next_phase_id", "phases_allocated")),
        (accumulator, ("total",)),
        (table, ("clock", "evictions")),
    ):
        for key in keys:
            _integer(mapping, key)
    _integer(state, "previous_phase", nullable=True)
    if type(state["boundary_pending"]) is not bool:
        raise SnapshotError("snapshot field 'boundary_pending' is not a bool")
    _vector(accumulator["counters"], config.num_counters, ACCUMULATOR_BITS)
    entries = table["entries"]
    if not isinstance(entries, list) or len(entries) > (
        config.table_entries or len(entries)
    ):
        raise SnapshotError(
            f"snapshot table entries must be a list of at most "
            f"{config.table_entries}"
        )
    for entry in entries:
        _vector(entry["values"], config.num_counters, config.bits_per_counter)
        if type(entry["bits"]) is not int or (
            entry["bits"] != config.bits_per_counter
        ):
            raise SnapshotError("snapshot entry bits disagree with the config")
        for key in ("min_counter", "last_used", "cpi_count"):
            _integer(entry, key)
        _integer(entry, "phase_id", nullable=True)
        if not {type(entry["threshold"]), type(entry["cpi_mean"])} <= {
            int, float
        }:
            raise SnapshotError("snapshot entry statistics are not numbers")


def _integer(
    mapping: dict, key: str, low: int = 0, nullable: bool = False
) -> None:
    value = mapping[key]
    if (value is not None or not nullable) and (
        type(value) is not int or not low <= value <= _INT64_MAX
    ):
        raise SnapshotError(
            f"snapshot field {key!r} must be an integer in "
            f"[{low}, 2**63-1], got {value!r}"
        )


def _vector(values: list, size: int, bits: int) -> None:
    if not (
        isinstance(values, list)
        and len(values) == size
        and set(map(type, values)) == {int}
        and 0 <= min(values)
        and max(values) < 1 << bits
    ):
        raise SnapshotError(
            f"snapshot counter vector must hold {size} {bits}-bit integers"
        )


def dumps(document: dict) -> str:
    """Serialize a snapshot document to compact JSON text."""
    return json.dumps(document, separators=(",", ":"))


def loads(text: str) -> dict:
    """Parse snapshot JSON text, validating the envelope shape and the
    ``schema_version`` stamp (:class:`~repro.errors.SnapshotSchemaError`
    on mismatch)."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise SnapshotError(f"snapshot text is not valid JSON: {error}")
    if not isinstance(document, dict):
        raise SnapshotError("snapshot must be a JSON object")
    check_schema_version(document)
    return document
