"""End-to-end integration: generate -> classify -> predict -> analyze.

Uses the shared small gzip/p trace (session fixture) and exercises the
whole public API surface the way the examples do.
"""

import numpy as np
import pytest

import repro
from repro.analysis.cov import per_phase_cov, weighted_cov
from repro.analysis.phase_stats import phase_length_summary
from repro.analysis.runs import extract_runs
from repro.core import ClassifierConfig, PhaseClassifier
from repro.prediction import (
    CompositePhasePredictor,
    MarkovChangePredictor,
    PerfectMarkovPredictor,
    PhaseLengthPredictor,
    RLEChangePredictor,
    evaluate_change_predictor,
)


class TestPipeline:
    def test_classification_reduces_cov(self, small_trace, classified_small):
        whole = small_trace.whole_program_cov()
        classified = weighted_cov(classified_small, small_trace)
        assert classified < whole

    def test_phase_count_reasonable(self, classified_small):
        assert 1 <= classified_small.num_phases <= 50

    def test_transition_fraction_bounded(self, classified_small):
        assert 0.0 <= classified_small.transition_fraction < 0.6

    def test_per_phase_cov_all_modest(self, small_trace, classified_small):
        covs = per_phase_cov(classified_small, small_trace)
        assert covs
        assert all(c < 1.0 for c in covs.values())

    def test_stable_runs_longer_than_transitions(self, classified_small):
        summary = phase_length_summary(classified_small.phase_ids)
        if summary.transition_count:
            assert summary.stable_dominates

    def test_ground_truth_agreement(self, small_trace, classified_small):
        """Intervals of the same ground-truth region should mostly share
        a classified phase (the classifier never sees region labels)."""
        ids = classified_small.phase_ids
        regions = small_trace.regions
        agreements = []
        for region in set(regions.tolist()):
            if region < 0:
                continue
            sel = ids[regions == region]
            sel = sel[sel != 0]  # ignore warm-up transition intervals
            if sel.size < 5:
                continue
            values, counts = np.unique(sel, return_counts=True)
            agreements.append(counts.max() / sel.size)
        assert agreements
        assert np.mean(agreements) > 0.6

    def test_top_level_api(self, small_trace):
        classifier = repro.PhaseClassifier(
            repro.ClassifierConfig.paper_default()
        )
        run = classifier.classify_trace(small_trace)
        cov = repro.weighted_cov(run, small_trace)
        assert 0.0 <= cov < 1.0


class TestPredictionPipeline:
    def test_last_value_strong_on_stable_trace(self, classified_small):
        stats = CompositePhasePredictor(None).run(
            classified_small.phase_ids
        )
        assert stats.accuracy > 0.6

    def test_all_predictors_run_clean(self, classified_small):
        ids = classified_small.phase_ids
        for factory in (
            lambda: MarkovChangePredictor(1),
            lambda: MarkovChangePredictor(2, entry_kind="top4"),
            lambda: RLEChangePredictor(2),
            lambda: RLEChangePredictor(1, entry_kind="last4"),
        ):
            stats = CompositePhasePredictor(factory()).run(ids)
            assert stats.total == len(ids) - 1

    def test_perfect_markov_bounds_table_predictors(self, classified_small):
        ids = classified_small.phase_ids
        oracle = evaluate_change_predictor(ids, PerfectMarkovPredictor(1))
        real = evaluate_change_predictor(
            ids, MarkovChangePredictor(1, use_confidence=False)
        )
        if oracle.total_changes:
            assert oracle.accuracy >= real.accuracy - 1e-9

    def test_length_predictor_runs(self, classified_small):
        predictor = PhaseLengthPredictor()
        for phase_id in classified_small.phase_ids:
            predictor.advance(int(phase_id))
        assert predictor.stats.misprediction_rate <= 1.0


class TestDeterminism:
    def test_full_pipeline_reproducible(self):
        def run_once():
            trace = repro.benchmark("bzip2/p", scale=0.08)
            run = PhaseClassifier(
                ClassifierConfig.paper_default()
            ).classify_trace(trace)
            return run.phase_ids

        assert np.array_equal(run_once(), run_once())
