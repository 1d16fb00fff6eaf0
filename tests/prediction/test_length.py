"""Unit tests for run-length classes and phase length prediction."""

import pytest

from repro.errors import ConfigurationError
from repro.prediction.length import (
    LENGTH_CLASS_BOUNDS,
    LENGTH_CLASS_LABELS,
    PhaseLengthPredictor,
    _LengthEntry,
    length_class,
)


class TestLengthClass:
    @pytest.mark.parametrize("length,expected", [
        (1, 0), (15, 0),            # 10M-150M instructions
        (16, 1), (127, 1),          # 160M-1.27B
        (128, 2), (1023, 2),        # 1.28B-10.2B
        (1024, 3), (100000, 3),     # > 10.24B
    ])
    def test_paper_class_boundaries(self, length, expected):
        assert length_class(length) == expected

    def test_invalid_length(self):
        with pytest.raises(ConfigurationError):
            length_class(0)

    def test_bounds_and_labels_aligned(self):
        assert len(LENGTH_CLASS_BOUNDS) == len(LENGTH_CLASS_LABELS) == 4


class TestHysteresis:
    def test_single_deviation_does_not_flip(self):
        entry = _LengthEntry(predicted_class=0)
        entry.train(1)
        assert entry.predicted_class == 0
        assert entry.pending_class == 1

    def test_two_in_a_row_flips(self):
        entry = _LengthEntry(predicted_class=0)
        entry.train(1)
        entry.train(1)
        assert entry.predicted_class == 1
        assert entry.pending_class is None

    def test_interrupted_pending_resets(self):
        entry = _LengthEntry(predicted_class=0)
        entry.train(1)
        entry.train(0)   # back to agreeing: pending cleared
        entry.train(1)
        assert entry.predicted_class == 0

    def test_alternating_noise_filtered(self):
        entry = _LengthEntry(predicted_class=0)
        for observed in (1, 0, 1, 0, 1, 0):
            entry.train(observed)
        assert entry.predicted_class == 0


class TestPhaseLengthPredictor:
    def test_invalid_depth(self):
        with pytest.raises(ConfigurationError):
            PhaseLengthPredictor(depth=0)

    def test_learns_periodic_lengths(self):
        predictor = PhaseLengthPredictor(depth=2)
        # Strict period: phase 1 runs 3 (class 0), phase 2 runs 20
        # (class 1), repeating.
        stream = ([1] * 3 + [2] * 20) * 12
        for phase_id in stream:
            predictor.advance(phase_id)
        stats = predictor.stats
        assert stats.predictions > 10
        # After warmup, predictions are nearly perfect.
        assert stats.misprediction_rate < 0.2

    def test_no_changes_no_predictions(self):
        predictor = PhaseLengthPredictor()
        for _ in range(50):
            predictor.advance(1)
        assert predictor.stats.predictions == 0

    def test_tag_miss_counted_and_falls_back(self):
        predictor = PhaseLengthPredictor(depth=2)
        # Never-repeating lengths: all keys cold.
        stream = []
        for length in (2, 5, 9, 13, 4, 11, 7):
            stream.extend([1] * length)
            stream.extend([2] * (length + 1))
        for phase_id in stream:
            predictor.advance(phase_id)
        assert predictor.stats.tag_misses > 0
        # Fallback still issues predictions (all runs are class 0 here,
        # so the adaptive fallback is always right).
        assert predictor.stats.misprediction_rate == 0.0

    def test_confusion_matrix_populated(self):
        predictor = PhaseLengthPredictor()
        stream = ([1] * 3 + [2] * 20) * 6
        for phase_id in stream:
            predictor.advance(phase_id)
        assert predictor.stats.confusion
        assert sum(predictor.stats.confusion.values()) == (
            predictor.stats.predictions
        )

    def test_misprediction_rate_empty(self):
        assert PhaseLengthPredictor().stats.misprediction_rate == 0.0


class TestConfusionTable:
    def test_renders_all_classes(self):
        predictor = PhaseLengthPredictor()
        stream = ([1] * 3 + [2] * 20) * 6
        for phase_id in stream:
            predictor.advance(phase_id)
        table = predictor.stats.confusion_table()
        for label in ("1-15", "16-127", "128-1023", "1024-"):
            assert label in table
        # One row per class plus the header.
        assert len(table.splitlines()) == 5

    def test_counts_match_predictions(self):
        predictor = PhaseLengthPredictor()
        stream = ([1] * 3 + [2] * 20) * 6
        for phase_id in stream:
            predictor.advance(phase_id)
        total_cells = sum(predictor.stats.confusion.values())
        assert total_cells == predictor.stats.predictions
