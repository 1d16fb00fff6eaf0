"""Tests for the parallel experiment engine.

Covers the work-unit grid, the shape-admission check, sequential vs
parallel accounting and telemetry parity, store integration, and the
CLI surface (``--jobs``, ``--no-store``, ``repro-phases cache``).
"""

import numpy as np
import pytest

from repro.core import ClassifierConfig, PhaseClassifier
from repro.errors import EngineError
from repro.harness.cache import (
    cached_classified,
    cached_trace,
    clear_cache,
    peek_classified,
    peek_trace,
    set_cache_telemetry,
    set_result_store,
)
from repro.harness.cli import main
from repro.harness.engine import (
    EngineReport,
    ExperimentEngine,
    WorkUnit,
    dedupe_units,
    validate_unit_result,
)
from repro.harness.experiment import experiment_work_units
from repro.harness.store import ResultStore
from repro.telemetry import Telemetry
from repro.workloads import benchmark

SCALE = 0.05
CONFIG = ClassifierConfig.paper_default()
NAMES = ("gzip/p", "bzip2/g", "mcf")


def _units(names=NAMES, config=CONFIG):
    units = [WorkUnit(name, SCALE) for name in names]
    units += [WorkUnit(name, SCALE, config) for name in names]
    return units


@pytest.fixture(autouse=True)
def _cold_caches():
    clear_cache()
    yield
    clear_cache()
    set_cache_telemetry(None)
    set_result_store(None)


class TestWorkUnits:
    def test_scale_is_normalized(self):
        assert WorkUnit("mcf", np.float64(0.25)) == WorkUnit("mcf", 0.25)
        assert isinstance(WorkUnit("mcf", np.float64(0.25)).scale, float)

    def test_dedupe_preserves_first_seen_order(self):
        a = WorkUnit("mcf", 0.25)
        b = WorkUnit("mcf", 0.25, CONFIG)
        assert dedupe_units([a, b, a, b, a]) == [a, b]

    def test_experiment_units_deduplicate_across_experiments(self):
        # fig7/8/9 share the paper-default grid; together they need no
        # more units than one of them alone.
        single = experiment_work_units(["fig7"], scale=SCALE)
        combined = experiment_work_units(
            ["fig7", "fig8", "fig9"], scale=SCALE
        )
        assert combined == single

    def test_every_registered_declaration_is_well_formed(self):
        from repro.harness.experiment import EXPERIMENT_NAMES

        units = experiment_work_units(list(EXPERIMENT_NAMES), scale=SCALE)
        assert units == dedupe_units(units)
        assert all(isinstance(u, WorkUnit) for u in units)
        # Every classified unit's trace is also declared, so a prefetch
        # leaves no cold lookups for the bodies.
        declared = set(units)
        for unit in units:
            if unit.config is not None:
                assert WorkUnit(unit.benchmark, unit.scale) in declared


class TestValidation:
    def test_accepts_a_real_result(self, small_trace, classified_small):
        unit = WorkUnit("gzip/p", 0.15, ClassifierConfig.paper_default())
        validate_unit_result(unit, small_trace, classified_small)

    def test_rejects_wrong_trace_type(self):
        with pytest.raises(EngineError, match="expected IntervalTrace"):
            validate_unit_result(WorkUnit("mcf", 1.0), object(), None)

    def test_rejects_wrong_run_type(self, small_trace):
        unit = WorkUnit("gzip/p", 0.15, CONFIG)
        with pytest.raises(EngineError, match="expected ClassificationRun"):
            validate_unit_result(unit, small_trace, "nope")

    def test_rejects_interval_count_mismatch(self, small_trace):
        other = benchmark("gzip/p", scale=0.05)
        run = PhaseClassifier(CONFIG).classify_trace(other)
        unit = WorkUnit("gzip/p", 0.15, CONFIG)
        with pytest.raises(EngineError, match="intervals"):
            validate_unit_result(unit, small_trace, run)

    def test_jobs_must_be_positive(self):
        with pytest.raises(EngineError, match="jobs"):
            ExperimentEngine(jobs=0)


class TestEngineReport:
    def test_utilization_bounds(self):
        report = EngineReport(jobs=4, seconds=2.0, busy_seconds=4.0)
        assert report.utilization == 0.5
        assert EngineReport(jobs=4).utilization == 0.0

    def test_summary_mentions_sources(self):
        report = EngineReport(
            jobs=2, units=5, from_memory=1, from_store=2, computed=2,
            seconds=1.0,
        )
        text = report.summary()
        assert "5 work units" in text and "2 from store" in text


class TestSequentialEnsure:
    def test_makes_units_resident_and_accounts(self):
        engine = ExperimentEngine(jobs=1)
        report = engine.ensure(_units())
        assert report.units == len(NAMES) * 2
        assert report.computed == report.units
        assert report.from_memory == report.from_store == 0
        for name in NAMES:
            assert peek_trace(name, SCALE) is not None
            assert peek_classified(name, CONFIG, SCALE) is not None

    def test_repeat_ensure_is_all_memory(self):
        engine = ExperimentEngine(jobs=1)
        engine.ensure(_units())
        report = engine.ensure(_units())
        assert report.from_memory == report.units
        assert report.computed == 0


class TestParallelEnsure:
    def test_parallel_results_equal_sequential(self):
        sequential = ExperimentEngine(jobs=1)
        sequential.ensure(_units())
        expected = {
            name: cached_classified(name, CONFIG, SCALE) for name in NAMES
        }
        expected_traces = {
            name: cached_trace(name, SCALE) for name in NAMES
        }

        clear_cache()
        parallel = ExperimentEngine(jobs=4)
        report = parallel.ensure(_units())
        assert report.computed == report.units
        for name in NAMES:
            run = cached_classified(name, CONFIG, SCALE)
            assert run == expected[name]
            trace = cached_trace(name, SCALE)
            np.testing.assert_array_equal(
                trace.cpis, expected_traces[name].cpis
            )

    def test_telemetry_counters_match_sequential(self):
        def count(jobs):
            clear_cache()
            telemetry = Telemetry()
            set_cache_telemetry(telemetry)
            try:
                ExperimentEngine(jobs=jobs).ensure(_units())
            finally:
                set_cache_telemetry(None)
            metrics = telemetry.metrics
            return {
                name: metrics.get(f"repro_harness_{name}_total").value
                for name in (
                    "trace_cache_misses", "classified_cache_misses",
                )
            }

        assert count(1) == count(4)

    def test_partial_residency_only_computes_the_gap(self):
        cached_trace(NAMES[0], SCALE)  # one trace already in memory
        engine = ExperimentEngine(jobs=4)
        report = engine.ensure(_units())
        assert report.from_memory == 1
        assert report.computed == report.units - 1


class TestStoreIntegration:
    def test_engine_store_survives_cache_clear(self, tmp_path):
        store = ResultStore(root=tmp_path / "store")
        engine = ExperimentEngine(jobs=1, store=store)
        first = engine.ensure(_units())
        assert first.computed == first.units
        expected = {
            name: cached_classified(name, CONFIG, SCALE) for name in NAMES
        }

        clear_cache()  # a "new process": memory gone, disk warm
        warm = engine.ensure(_units())
        assert warm.from_store == warm.units
        assert warm.computed == 0
        for name in NAMES:
            assert cached_classified(name, CONFIG, SCALE) == expected[name]

    def test_parallel_warm_start_from_store(self, tmp_path):
        store = ResultStore(root=tmp_path / "store")
        ExperimentEngine(jobs=1, store=store).ensure(_units())
        clear_cache()
        report = ExperimentEngine(jobs=4, store=store).ensure(_units())
        assert report.from_store == report.units
        assert report.computed == 0

    def test_ensure_restores_previously_installed_store(self, tmp_path):
        ambient = ResultStore(root=tmp_path / "ambient")
        set_result_store(ambient)
        engine = ExperimentEngine(
            jobs=1, store=ResultStore(root=tmp_path / "own")
        )
        engine.ensure(_units([NAMES[0]]))
        from repro.harness.cache import get_result_store

        assert get_result_store() is ambient

    def test_corrupt_store_entry_recomputes(self, tmp_path):
        store = ResultStore(root=tmp_path / "store")
        engine = ExperimentEngine(jobs=1, store=store)
        engine.ensure(_units([NAMES[0]]))
        for path in (tmp_path / "store").rglob("*.npz"):
            path.write_bytes(b"garbage")
        clear_cache()
        report = engine.ensure(_units([NAMES[0]]))
        assert report.computed == report.units  # miss, never an exception


class TestSweepEngine:
    def test_sweep_with_engine_matches_without(self, tmp_path):
        from repro.harness.sweep import sweep_classifier

        kwargs = dict(
            field_name="min_count_threshold",
            values=[0, 8],
            benchmarks=list(NAMES),
            scale=SCALE,
        )
        plain = sweep_classifier(**kwargs)
        clear_cache()
        engine = ExperimentEngine(
            jobs=2, store=ResultStore(root=tmp_path / "store")
        )
        engined = sweep_classifier(engine=engine, **kwargs)
        assert plain.data == engined.data

    def test_metric_extraction_reused_per_run_object(self, monkeypatch):
        # Sweeping a value equal to the base revisits the same cached
        # run; the expensive predictor walk must happen once per run
        # object, not once per (value, benchmark) pair.
        from repro.harness import sweep as sweep_module

        calls = []
        original = sweep_module.CompositePhasePredictor

        class CountingPredictor(original):
            def run(self, phase_ids):
                calls.append(1)
                return super().run(phase_ids)

        monkeypatch.setattr(
            sweep_module, "CompositePhasePredictor", CountingPredictor
        )
        result = sweep_module.sweep_classifier(
            "similarity_threshold", [0.25, 0.25],
            benchmarks=[NAMES[0]], scale=SCALE,
        )
        assert len(calls) == 1  # two values, one distinct run object
        series = result.data["lv_mispredict"]
        assert series[0.25] == pytest.approx(series[0.25])


class TestEngineCLI:
    def test_jobs_flag_round_trips(self, tmp_path, capsys):
        assert main([
            "--scale", str(SCALE), "--jobs", "1",
            "--store", str(tmp_path / "store"), "fig5",
        ]) == 0
        out = capsys.readouterr().out
        assert "[engine:" in out and "jobs=1" in out

    def test_no_store_skips_the_store(self, tmp_path, capsys):
        assert main([
            "--scale", str(SCALE), "--jobs", "1", "--no-store",
            "--store", str(tmp_path / "store"), "fig5",
        ]) == 0
        assert not (tmp_path / "store").exists()

    def test_cache_stats_and_clear(self, tmp_path, capsys):
        root = tmp_path / "store"
        assert main([
            "--scale", str(SCALE), "--jobs", "1",
            "--store", str(root), "fig5",
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and str(root) in out
        assert main(["cache", "clear", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "removed" in out
        assert main(["cache", "stats", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "     0 entries" in out
