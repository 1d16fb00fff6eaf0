"""Tests for the tournament phase-change predictor (extension).

Empirical note (recorded in EXPERIMENTS.md): on the shipped synthetic
workloads the tournament matches Top-4 Markov-1 rather than beating it,
because confident RLE hits nest inside Markov's correct set. Its value
is adaptivity: whichever component a workload favours, the tournament
follows without retuning — the safety property asserted below.
"""

import pytest

from repro.errors import ConfigurationError
from repro.prediction import (
    MarkovChangePredictor,
    RLEChangePredictor,
    TournamentChangePredictor,
    evaluate_change_predictor,
)


def alternation(n=40):
    """Markov-friendly: 1 -> 2 -> 1 with noisy run lengths."""
    import numpy as np

    rng = np.random.default_rng(3)
    stream = []
    phase = 1
    for _ in range(n):
        stream.extend([phase] * int(rng.integers(1, 6)))
        phase = 3 - phase
    return stream


def fixed_period(n=40):
    """RLE-friendly: exact run lengths repeating."""
    return ([1] * 3 + [2] * 5) * n


class TestConstruction:
    def test_defaults(self):
        tournament = TournamentChangePredictor()
        assert isinstance(tournament.first, MarkovChangePredictor)
        assert isinstance(tournament.second, RLEChangePredictor)

    def test_meta_bits_validated(self):
        with pytest.raises(ConfigurationError):
            TournamentChangePredictor(meta_bits=0)

    def test_initially_prefers_first(self):
        assert TournamentChangePredictor().prefers_first


class TestBehaviour:
    def test_observe_keeps_components_in_step(self):
        tournament = TournamentChangePredictor()
        for phase in (1, 1, 2, 2, 3):
            tournament.advance(phase)
        assert (
            tournament.first.completed_runs
            == tournament.second.completed_runs
        )

    def test_change_key_none_before_history(self):
        tournament = TournamentChangePredictor()
        tournament.advance(1)
        assert tournament.change_key() is None or isinstance(
            tournament.change_key(), tuple
        )

    def test_matches_markov_on_markov_friendly_stream(self):
        stream = alternation()
        tournament_stats = evaluate_change_predictor(
            list(stream), TournamentChangePredictor()
        )
        markov_stats = evaluate_change_predictor(
            list(stream), MarkovChangePredictor(1, entry_kind="top4")
        )
        assert tournament_stats.accuracy >= markov_stats.accuracy - 0.05

    def test_matches_rle_on_rle_friendly_stream(self):
        stream = fixed_period()
        tournament_stats = evaluate_change_predictor(
            list(stream), TournamentChangePredictor()
        )
        rle_stats = evaluate_change_predictor(
            list(stream), RLEChangePredictor(2)
        )
        assert tournament_stats.accuracy >= rle_stats.accuracy - 0.05

    def test_never_far_below_best_component(self, classified_small):
        ids = classified_small.phase_ids
        best = max(
            evaluate_change_predictor(
                ids, MarkovChangePredictor(1, entry_kind="top4")
            ).accuracy,
            evaluate_change_predictor(ids, RLEChangePredictor(2)).accuracy,
        )
        tournament = evaluate_change_predictor(
            ids, TournamentChangePredictor()
        ).accuracy
        assert tournament >= best - 0.1

    def test_meta_moves_toward_better_component(self):
        # Fixed-period stream: RLE is exact, Markov's Top-4 also right;
        # use a stream where Markov is wrong: three-phase rotation with
        # single-outcome markov entries vs exact-length RLE.
        stream = ([1] * 3 + [2] * 3 + [1] * 3 + [3] * 3) * 20
        tournament = TournamentChangePredictor(
            first=MarkovChangePredictor(1, entry_kind="single",
                                        use_confidence=False),
            second=RLEChangePredictor(2, use_confidence=False),
        )
        evaluate_change_predictor(list(stream), tournament)
        # Markov-1 'single' flip-flops on 1 -> {2, 3}; RLE-2 keys
        # disambiguate. The meta must have moved toward RLE (second).
        assert not tournament.prefers_first
