"""Tracker snapshot/restore: exactness, the envelope, failure modes."""

import numpy as np
import pytest

from repro.core import ClassifierConfig, PhaseTracker
from repro.errors import SnapshotError
from repro.prediction import MarkovChangePredictor
from repro.service.snapshot import (
    SNAPSHOT_VERSION,
    dumps,
    loads,
    restore_tracker,
    snapshot_tracker,
)


def two_region_stream(seed=0, n=4000):
    rng = np.random.default_rng(seed)
    region = np.where(rng.random(n) < 0.5, 0x400000, 0x900000)
    pcs = region + rng.integers(0, 64, size=n) * 4
    counts = rng.integers(1, 120, size=n)
    return pcs.tolist(), counts.tolist()


def drive(tracker, pcs, counts, cpi=1.0):
    return [r.to_dict() for r in tracker.observe_batch(pcs, counts, cpi)]


class TestRoundTrip:
    def test_restored_tracker_replays_identically(self):
        pcs, counts = two_region_stream()
        original = PhaseTracker(interval_instructions=5_000)
        drive(original, pcs[:2500], counts[:2500], cpi=1.3)

        document = loads(dumps(snapshot_tracker(original)))
        restored = restore_tracker(document)

        tail_original = drive(original, pcs[2500:], counts[2500:], cpi=0.8)
        tail_restored = drive(restored, pcs[2500:], counts[2500:], cpi=0.8)
        assert tail_original == tail_restored
        assert tail_original  # the tail actually classified intervals

    def test_mid_interval_accumulator_contents_travel(self):
        tracker = PhaseTracker(interval_instructions=10_000)
        tracker.observe_batch([4096, 4100], [700, 800], cpi=1.0)
        assert tracker.instructions_into_interval == 1500
        restored = restore_tracker(snapshot_tracker(tracker))
        assert restored.instructions_into_interval == 1500
        # Same partial interval: the next boundary classifies equally.
        pcs, counts = two_region_stream(seed=3, n=500)
        assert drive(tracker, pcs, counts) == drive(restored, pcs, counts)

    def test_interval_length_and_config_travel_in_document(self):
        config = ClassifierConfig(num_counters=32, table_entries=16)
        tracker = PhaseTracker(config, interval_instructions=1234)
        restored = restore_tracker(snapshot_tracker(tracker))
        assert restored.interval_instructions == 1234
        assert restored.classifier.config == config

    def test_markov_change_predictor_round_trips(self):
        tracker = PhaseTracker(
            interval_instructions=2_000,
            change_predictor=MarkovChangePredictor(1, entry_kind="top4"),
        )
        pcs, counts = two_region_stream(seed=5)
        drive(tracker, pcs[:2000], counts[:2000])
        restored = restore_tracker(snapshot_tracker(tracker))
        assert isinstance(
            restored.next_phase.change_predictor, MarkovChangePredictor
        )
        assert (drive(tracker, pcs[2000:], counts[2000:])
                == drive(restored, pcs[2000:], counts[2000:]))

    def test_no_change_predictor_round_trips(self):
        tracker = PhaseTracker(
            interval_instructions=2_000, change_predictor=None
        )
        pcs, counts = two_region_stream(seed=6)
        drive(tracker, pcs[:1000], counts[:1000])
        restored = restore_tracker(snapshot_tracker(tracker))
        assert restored.next_phase.change_predictor is None
        assert (drive(tracker, pcs[1000:], counts[1000:])
                == drive(restored, pcs[1000:], counts[1000:]))

    def test_document_is_json_safe(self):
        tracker = PhaseTracker(interval_instructions=2_000)
        pcs, counts = two_region_stream(seed=7, n=1500)
        drive(tracker, pcs, counts)
        text = dumps(snapshot_tracker(tracker))
        assert isinstance(text, str)
        assert loads(text)["schema_version"] == SNAPSHOT_VERSION


class TestFailureModes:
    def test_version_mismatch(self):
        document = snapshot_tracker(PhaseTracker())
        document["schema_version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(SnapshotError, match="version"):
            restore_tracker(document)

    def test_version_mismatch_is_typed(self):
        from repro.errors import SnapshotSchemaError

        document = snapshot_tracker(PhaseTracker())
        document["schema_version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(SnapshotSchemaError):
            restore_tracker(document)

    def test_legacy_version_key_still_accepted(self):
        document = snapshot_tracker(PhaseTracker())
        document["version"] = document.pop("schema_version")
        restore_tracker(document)

    @pytest.mark.parametrize("document", [
        "not a dict",
        {},
        {"version": SNAPSHOT_VERSION},
        {"version": SNAPSHOT_VERSION, "tracker": "nope"},
    ])
    def test_malformed_envelope(self, document):
        with pytest.raises(SnapshotError):
            restore_tracker(document)

    def test_unknown_change_predictor_kind(self):
        document = snapshot_tracker(PhaseTracker())
        document["tracker"]["change_predictor"]["kind"] = "quantum"
        with pytest.raises(SnapshotError, match="quantum"):
            restore_tracker(document)

    def test_corrupt_component_state(self):
        document = snapshot_tracker(PhaseTracker())
        document["tracker"]["classifier"]["accumulator"]["counters"] = [1]
        with pytest.raises(SnapshotError):
            restore_tracker(document)

    def test_loads_rejects_garbage(self):
        with pytest.raises(SnapshotError):
            loads("{broken")
        with pytest.raises(SnapshotError):
            loads("[1,2]")


def _tracker_state(document):
    return document["tracker"]


HOSTILE_EDITS = {
    "interval_instructions missing":
        lambda state: state.pop("interval_instructions"),
    "interval_instructions not an int":
        lambda state: state.update(interval_instructions="abc"),
    "interval_instructions zero":
        lambda state: state.update(interval_instructions=0),
    "change_predictor a string":
        lambda state: state.update(change_predictor="rle"),
    "change_predictor kind unhashable":
        lambda state: state["change_predictor"].update(kind=["rle"]),
    "previous_phase negative":
        lambda state: state.update(previous_phase=-3),
    "counter beyond int64":
        lambda state: state["classifier"]["accumulator"]["counters"]
        .__setitem__(0, 2**64),
    "next_phase tables not an object":
        lambda state: state.update(next_phase="bogus"),
    "config field a float":
        lambda state: state["classifier"]["config"].update(
            table_entries=32.0
        ),
}


class TestHostileSnapshots:
    """Every malformed document is a typed :class:`SnapshotError` on
    the scalar oracle and on the registry's pool path alike, and a
    rejected pool landing claims no slot."""

    def driven_document(self):
        tracker = PhaseTracker(interval_instructions=1_000)
        pcs, counts = two_region_stream(seed=3, n=600)
        drive(tracker, pcs, counts)
        return snapshot_tracker(tracker)

    @pytest.mark.parametrize("edit", sorted(HOSTILE_EDITS))
    def test_typed_error_on_both_paths(self, edit):
        from repro.service.session import SessionRegistry

        document = self.driven_document()
        HOSTILE_EDITS[edit](_tracker_state(document))
        with pytest.raises(SnapshotError):
            restore_tracker(document)
        registry = SessionRegistry(max_sessions=2)
        with pytest.raises(SnapshotError):
            registry.open("a", snapshot=document)
        assert registry.pool.active_slots == 0
        assert len(registry) == 0

    def test_try_adopt_releases_its_slot_on_malformed_state(self):
        from repro.core import TrackerPool

        pool = TrackerPool(
            capacity=2, config=ClassifierConfig.paper_default()
        )
        state = _tracker_state(self.driven_document())
        state["length_predictor"] = {"table": "bogus"}
        with pytest.raises(SnapshotError):
            pool.try_adopt(state)
        assert pool.active_slots == 0

    def test_try_adopt_soft_refuses_an_unreadable_config(self):
        """An unparseable configuration is not the pool's: ``None``, so
        the caller falls back — and the decoder then rejects it."""
        from repro.core import TrackerPool

        document = self.driven_document()
        _tracker_state(document)["classifier"]["config"] = {"bogus": 1}
        pool = TrackerPool(
            capacity=2, config=ClassifierConfig.paper_default()
        )
        assert pool.try_adopt(_tracker_state(document)) is None
        assert pool.active_slots == 0
        with pytest.raises(SnapshotError, match="configuration"):
            restore_tracker(document)

    def test_wire_answers_hostile_snapshots_with_the_snapshot_code(self):
        """Over NDJSON a malformed restore is a typed ``snapshot`` error
        (the client raises :class:`SnapshotError`), never ``internal``,
        and the connection keeps serving."""
        from repro.service import PhaseServiceClient, start_in_thread

        document = self.driven_document()
        del _tracker_state(document)["interval_instructions"]
        with start_in_thread(max_sessions=2) as handle:
            with PhaseServiceClient(port=handle.port) as client:
                with pytest.raises(SnapshotError):
                    client.open_session("a", snapshot=document)
                assert client.open_session("b") == "b"
