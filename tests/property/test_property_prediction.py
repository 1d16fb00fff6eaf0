"""Property-based tests for predictors (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prediction.assoc_table import AssociativeTable
from repro.prediction.change_eval import evaluate_change_predictor
from repro.prediction.composite import CompositePhasePredictor
from repro.prediction.counters import ConfidenceCounter, SaturatingCounter
from repro.prediction.last_value import LastValuePredictor
from repro.prediction.length import PhaseLengthPredictor, length_class
from repro.prediction.markov import MarkovChangePredictor
from repro.prediction.perfect import PerfectMarkovPredictor
from repro.prediction.rle import RLEChangePredictor

phase_streams = st.lists(st.integers(0, 6), min_size=2, max_size=300)


class TestCounterProperties:
    @given(st.integers(1, 8), st.lists(st.booleans(), max_size=200))
    def test_counter_always_in_range(self, bits, updates):
        counter = SaturatingCounter(bits=bits)
        for up in updates:
            counter.up() if up else counter.down()
            assert 0 <= counter.value <= counter.max_value

    @given(st.lists(st.booleans(), min_size=1, max_size=100))
    def test_confidence_monotone_in_correctness(self, outcomes):
        """All-correct training is never less confident than the mixed
        stream of the same length."""
        mixed = ConfidenceCounter(bits=3)
        perfect = ConfidenceCounter(bits=3)
        for outcome in outcomes:
            mixed.record(outcome)
            perfect.record(True)
        assert perfect.value >= mixed.value


class TestAssociativeTableProperties:
    @given(
        st.lists(st.tuples(st.integers(0, 50), st.integers()), max_size=200),
        st.sampled_from([(8, 2), (32, 4), (16, 16)]),
    )
    def test_capacity_never_exceeded(self, operations, geometry):
        entries, assoc = geometry
        table = AssociativeTable(entries=entries, assoc=assoc)
        for key, payload in operations:
            table.insert(key, payload)
            assert len(table) <= entries

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=100))
    def test_last_insert_always_findable(self, keys):
        table = AssociativeTable(entries=8, assoc=2)
        for key in keys:
            table.insert(key, key * 2)
            assert table.lookup(key) == key * 2


class TestPredictorStreamProperties:
    @given(phase_streams)
    @settings(max_examples=50)
    def test_composite_accounts_every_interval(self, stream):
        stats = CompositePhasePredictor(
            RLEChangePredictor(2)
        ).run(stream)
        assert stats.total == len(stream) - 1
        assert sum(stats.counts.values()) == stats.total

    @given(phase_streams)
    @settings(max_examples=50)
    def test_change_eval_counts_every_change(self, stream):
        changes = sum(
            1 for a, b in zip(stream, stream[1:]) if a != b
        )
        stats = evaluate_change_predictor(
            stream, MarkovChangePredictor(1)
        )
        assert stats.total_changes == changes

    @given(phase_streams)
    @settings(max_examples=50)
    def test_perfect_markov_never_below_real(self, stream):
        oracle = evaluate_change_predictor(
            list(stream), PerfectMarkovPredictor(1)
        )
        real = evaluate_change_predictor(
            list(stream), MarkovChangePredictor(1, use_confidence=False)
        )
        assert oracle.accuracy >= real.accuracy - 1e-9

    @given(phase_streams)
    @settings(max_examples=50)
    def test_last_value_accuracy_equals_stability(self, stream):
        predictor = LastValuePredictor()
        for phase in stream:
            predictor.advance(phase)
        same = sum(1 for a, b in zip(stream, stream[1:]) if a == b)
        assert predictor.correct == same

    @given(phase_streams)
    @settings(max_examples=50)
    def test_history_bounded(self, stream):
        predictor = RLEChangePredictor(2)
        for phase in stream:
            predictor.advance(phase)
        assert len(predictor.completed_runs) <= predictor.history_depth


class TestLengthProperties:
    @given(st.integers(1, 10**9))
    def test_length_class_total_and_ordered(self, length):
        cls = length_class(length)
        assert 0 <= cls <= 3
        if length < 16:
            assert cls == 0
        if length >= 1024:
            assert cls == 3

    @given(phase_streams)
    @settings(max_examples=50)
    def test_length_predictor_never_crashes_and_counts(self, stream):
        predictor = PhaseLengthPredictor()
        for phase in stream:
            predictor.advance(phase)
        stats = predictor.stats
        assert stats.correct + stats.tag_misses <= (
            stats.predictions + stats.correct
        )
        assert 0.0 <= stats.misprediction_rate <= 1.0


class TestTimelineAndProfileProperties:
    @given(phase_streams)
    @settings(max_examples=40)
    def test_timeline_covers_every_interval(self, stream):
        from repro.analysis.timeline import phase_glyphs, render_timeline

        mapping = phase_glyphs(stream)
        rendered = render_timeline(stream, width=32, legend=False)
        glyph_count = sum(
            len(line.split(" ", 1)[1]) for line in rendered.splitlines()
        )
        assert glyph_count == len(stream)
        # Every phase has a glyph and transition maps to '.'.
        assert set(mapping) >= set(stream)
        if 0 in mapping:
            assert mapping[0] == "."

    @given(phase_streams)
    @settings(max_examples=40)
    def test_profiles_partition_the_trace(self, stream):
        import numpy as np

        from repro.analysis.profile import profile_phases
        from repro.core.events import (
            ClassificationResult,
            ClassificationRun,
        )
        from repro.workloads.trace import Interval, IntervalTrace

        run = ClassificationRun(
            results=[
                ClassificationResult(phase_id=i, matched=True,
                                     distance=0.0)
                for i in stream
            ],
            num_phases=len({i for i in stream if i != 0}),
            evictions=0,
        )
        trace = IntervalTrace(
            "p",
            [
                Interval(np.array([4]), np.array([100]), cpi=1.0)
                for _ in stream
            ],
        )
        profiles = profile_phases(run, trace)
        assert sum(p.intervals for p in profiles.values()) == len(stream)
        total_occupancy = sum(p.occupancy for p in profiles.values())
        assert total_occupancy == pytest.approx(1.0)
        total_runs = sum(p.runs for p in profiles.values())
        from repro.analysis.runs import extract_runs

        assert total_runs == len(extract_runs(stream))
