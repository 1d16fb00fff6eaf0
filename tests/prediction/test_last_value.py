"""Unit tests for the last-value predictor with per-phase confidence."""

import pytest

from repro.errors import PredictionError
from repro.prediction.last_value import LastValuePredictor


class TestBasics:
    def test_predict_before_observe_raises(self):
        with pytest.raises(PredictionError):
            LastValuePredictor().predict()

    def test_predicts_last_observed(self):
        predictor = LastValuePredictor()
        predictor.advance(3)
        assert predictor.predict().phase_id == 3
        predictor.advance(5)
        assert predictor.predict().phase_id == 5

    def test_accuracy_tracking(self):
        predictor = LastValuePredictor()
        for phase in (1, 1, 1, 2):
            predictor.advance(phase)
        # Three evaluated predictions: 1->1 ok, 1->1 ok, 1->2 wrong.
        assert predictor.predictions == 3
        assert predictor.correct == 2
        assert predictor.accuracy == pytest.approx(2 / 3)

    def test_accuracy_zero_before_predictions(self):
        assert LastValuePredictor().accuracy == 0.0

    def test_current_phase_property(self):
        predictor = LastValuePredictor()
        assert predictor.current_phase is None
        predictor.advance(9)
        assert predictor.current_phase == 9


class TestConfidence:
    def test_stable_phase_becomes_confident(self):
        predictor = LastValuePredictor()
        predictor.advance(1)
        for _ in range(6):
            predictor.advance(1)
        assert predictor.predict().confident

    def test_fresh_phase_not_confident(self):
        predictor = LastValuePredictor()
        predictor.advance(1)
        assert not predictor.predict().confident

    def test_unstable_phase_demoted(self):
        predictor = LastValuePredictor()
        # Alternation: every prediction from each phase is wrong.
        for _ in range(10):
            predictor.advance(1)
            predictor.advance(2)
        predictor.advance(1)
        assert not predictor.predict().confident

    def test_confidence_is_per_phase(self):
        predictor = LastValuePredictor()
        for _ in range(8):
            predictor.advance(1)   # phase 1 confident
        predictor.advance(2)        # new phase: fresh counter
        assert not predictor.predict().confident
        for _ in range(7):
            predictor.advance(2)
        assert predictor.predict().confident

    def test_confidence_disabled_always_confident(self):
        predictor = LastValuePredictor(use_confidence=False)
        predictor.advance(1)
        assert predictor.predict().confident

    def test_custom_counter_geometry(self):
        predictor = LastValuePredictor(
            confidence_bits=1, confidence_threshold=1
        )
        predictor.advance(4)
        predictor.advance(4)
        assert predictor.predict().confident
