"""The parallel experiment engine: deduplicated work units, a worker
pool, and the persistent result store.

Every paper artifact reduces to the same grid of independent work: for
a ``(benchmark, scale)`` pair, generate the trace; for a
``(benchmark, scale, config)`` triple, additionally classify it. A
:class:`WorkUnit` names one cell of that grid. Experiments declare
their units up front (:func:`repro.harness.experiment.register`'s
``units=`` hook), the engine deduplicates them across experiments, and
:meth:`ExperimentEngine.ensure` makes every unit resident in the
in-process caches:

1. units already in memory are skipped;
2. units present in the installed :class:`~repro.harness.store.ResultStore`
   are loaded (a warm start costs I/O, not simulation);
3. the remaining units are computed — grouped per ``(benchmark,
   scale)`` so a trace is generated once per group — across a
   ``multiprocessing`` pool with ``jobs`` workers, then seeded into the
   caches and written to the store.

``jobs=1`` takes none of the machinery above: it calls
:func:`~repro.harness.cache.cached_trace` /
:func:`~repro.harness.cache.cached_classified` sequentially, exactly
like the experiments themselves always have. Parallel execution is
bit-deterministic — trace generation is seeded per benchmark and
classification is a pure function of (trace, config) — and every
worker result is shape-checked against the sequential contract before
it is admitted (see :func:`validate_unit_result`);
``tests/integration/test_parallel_crosscheck.py`` proves value-level
equality for every experiment.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.core import (
    ClassificationRun,
    ClassifierConfig,
    PhaseClassifier,
)
from repro.errors import EngineError
from repro.harness import cache
from repro.workloads import benchmark
from repro.workloads.trace import IntervalTrace

if TYPE_CHECKING:  # pragma: no cover - import-time typing only
    from repro.harness.store import ResultStore
    from repro.telemetry import Telemetry


@dataclass(frozen=True)
class WorkUnit:
    """One cell of the experiment grid.

    ``config=None`` asks for the trace only; a config additionally asks
    for the classification run (which implies the trace).
    """

    benchmark: str
    scale: float
    config: Optional[ClassifierConfig] = None

    def __post_init__(self) -> None:
        # Normalize the scale so 0.25 and np.float64(0.25) are one unit.
        object.__setattr__(self, "scale", float(self.scale))


def dedupe_units(units: Sequence[WorkUnit]) -> List[WorkUnit]:
    """Drop duplicate units, preserving first-seen order."""
    seen = set()
    out: List[WorkUnit] = []
    for unit in units:
        if unit not in seen:
            seen.add(unit)
            out.append(unit)
    return out


def validate_unit_result(
    unit: WorkUnit,
    trace: IntervalTrace,
    run: Optional[ClassificationRun],
) -> None:
    """Assert a computed result has the sequential path's shape.

    Raises :class:`~repro.errors.EngineError` on any mismatch — a
    worker returning the wrong type, a run whose interval count
    disagrees with its trace, or phase IDs outside the classifier's
    contract. This is the admission check for parallel results.
    """
    if not isinstance(trace, IntervalTrace):
        raise EngineError(
            f"{unit.benchmark}@{unit.scale}: worker returned "
            f"{type(trace).__name__}, expected IntervalTrace"
        )
    if len(trace) == 0:
        raise EngineError(
            f"{unit.benchmark}@{unit.scale}: empty trace from worker"
        )
    if unit.config is None:
        return
    if not isinstance(run, ClassificationRun):
        raise EngineError(
            f"{unit.benchmark}@{unit.scale}: worker returned "
            f"{type(run).__name__}, expected ClassificationRun"
        )
    if len(run) != len(trace):
        raise EngineError(
            f"{unit.benchmark}@{unit.scale}: run covers {len(run)} "
            f"intervals but the trace has {len(trace)}"
        )
    ids = run.phase_ids
    if ids.dtype != np.int64 or int(ids.min()) < 0:
        raise EngineError(
            f"{unit.benchmark}@{unit.scale}: malformed phase IDs "
            f"(dtype {ids.dtype}, min {ids.min()})"
        )
    if run.num_phases < run.distinct_phases_observed:
        raise EngineError(
            f"{unit.benchmark}@{unit.scale}: {run.distinct_phases_observed} "
            f"phases observed but only {run.num_phases} allocated"
        )


@dataclass
class EngineReport:
    """What one :meth:`ExperimentEngine.ensure` call did."""

    jobs: int
    units: int = 0
    from_memory: int = 0
    from_store: int = 0
    computed: int = 0
    seconds: float = 0.0
    busy_seconds: float = 0.0
    unit_seconds: Dict[WorkUnit, float] = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        """Busy worker time over available worker time, in [0, 1]."""
        if self.seconds <= 0.0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.seconds * self.jobs))

    def merge(self, other: "EngineReport") -> None:
        self.units += other.units
        self.from_memory += other.from_memory
        self.from_store += other.from_store
        self.computed += other.computed
        self.seconds += other.seconds
        self.busy_seconds += other.busy_seconds
        self.unit_seconds.update(other.unit_seconds)

    def summary(self) -> str:
        parts = [
            f"{self.units} work units",
            f"{self.from_memory} in memory",
            f"{self.from_store} from store",
            f"{self.computed} computed",
            f"jobs={self.jobs}",
            f"{self.seconds:.1f}s",
        ]
        if self.computed and self.jobs > 1:
            parts.append(f"{self.utilization:.0%} worker utilization")
        return ", ".join(parts)


#: One pool task: compute a benchmark's trace (unless provided) and the
#: requested classification runs.
_GroupTask = Tuple[
    str, float, Optional[IntervalTrace], Tuple[ClassifierConfig, ...]
]


def _compute_group(task: _GroupTask):
    """Pool worker: generate/classify one ``(benchmark, scale)`` group.

    Top-level so it pickles under every multiprocessing start method.
    Returns ``(name, scale, trace, trace_seconds_or_None,
    [(config, run, seconds), ...])``.
    """
    name, scale, trace, configs = task
    trace_seconds: Optional[float] = None
    if trace is None:
        start = time.perf_counter()
        trace = benchmark(name, scale=scale)
        trace_seconds = time.perf_counter() - start
    runs = []
    for config in configs:
        start = time.perf_counter()
        run = PhaseClassifier(config).classify_trace(trace)
        runs.append((config, run, time.perf_counter() - start))
    return name, scale, trace, trace_seconds, runs


class ExperimentEngine:
    """Executes deduplicated work units across a process pool.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` means ``os.cpu_count()``. ``1``
        bypasses the pool entirely and preserves the classic
        sequential in-process path.
    store:
        A :class:`~repro.harness.store.ResultStore` to install for the
        duration of each :meth:`ensure` call. ``None`` (the default)
        uses whatever store is already installed via
        :func:`repro.harness.cache.set_result_store`.
    telemetry:
        Optional hub for engine counters/histograms
        (``repro_harness_engine_*``).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        store: "Optional[ResultStore]" = None,
        telemetry: "Optional[Telemetry]" = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise EngineError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.store = store
        self.telemetry = telemetry

    # -- internals --------------------------------------------------------

    def _observe_unit(self, unit: WorkUnit, seconds: float) -> None:
        if self.telemetry is None:
            return
        self.telemetry.metrics.histogram(
            "repro_harness_engine_unit_seconds",
            "Per-work-unit compute latency",
        ).observe(seconds)

    def _count(self, name: str, amount: int, help: str) -> None:
        if self.telemetry is not None and amount:
            self.telemetry.metrics.counter(
                f"repro_harness_engine_{name}_total", help
            ).inc(amount)

    def _group(self, units: Sequence[WorkUnit]):
        """Order-preserving ``(benchmark, scale) -> [configs]`` map;
        every classified unit implies its trace unit."""
        groups: "Dict[Tuple[str, float], List[ClassifierConfig]]" = {}
        for unit in dedupe_units(units):
            configs = groups.setdefault(
                (unit.benchmark, unit.scale), []
            )
            if unit.config is not None and unit.config not in configs:
                configs.append(unit.config)
        return groups

    # -- execution --------------------------------------------------------

    def ensure(self, units: Sequence[WorkUnit]) -> EngineReport:
        """Make every unit resident in the in-process caches.

        Returns an :class:`EngineReport` describing where each unit
        came from. Safe to call repeatedly; resident units cost a
        dictionary lookup.
        """
        previous_store = cache.get_result_store()
        if self.store is not None:
            cache.set_result_store(self.store)
        try:
            return self._ensure(units)
        finally:
            if self.store is not None:
                cache.set_result_store(previous_store)

    def _ensure(self, units: Sequence[WorkUnit]) -> EngineReport:
        groups = self._group(units)
        report = EngineReport(jobs=self.jobs)
        report.units = sum(len(cfgs) + 1 for cfgs in groups.values())
        start = time.perf_counter()

        if self.jobs == 1:
            self._ensure_sequential(groups, report)
        else:
            self._ensure_parallel(groups, report)

        report.seconds = time.perf_counter() - start
        self._count(
            "units_memory", report.from_memory,
            "Work units already resident in memory",
        )
        self._count(
            "units_store", report.from_store,
            "Work units satisfied by the result store",
        )
        self._count(
            "units_computed", report.computed, "Work units computed"
        )
        if self.telemetry is not None:
            self.telemetry.metrics.gauge(
                "repro_harness_engine_jobs", "Configured worker count"
            ).set(self.jobs)
            if report.computed:
                self.telemetry.metrics.gauge(
                    "repro_harness_engine_worker_utilization",
                    "Busy worker time / available worker time",
                ).set(report.utilization)
            self.telemetry.emit(
                "engine_ensure",
                units=report.units,
                from_memory=report.from_memory,
                from_store=report.from_store,
                computed=report.computed,
                jobs=self.jobs,
                seconds=round(report.seconds, 6),
            )
        return report

    def _ensure_sequential(self, groups, report: EngineReport) -> None:
        """``jobs=1``: the classic in-process path, unit by unit."""
        for (name, scale), configs in groups.items():
            for unit in self._group_units(name, scale, configs):
                unit_start = time.perf_counter()
                if unit.config is None:
                    _, source = cache.resolve_trace(name, scale)
                    cache.record_cache_event("trace", source == "memory")
                else:
                    _, source = cache.resolve_classified(
                        name, unit.config, scale
                    )
                    cache.record_cache_event(
                        "classified", source == "memory"
                    )
                seconds = time.perf_counter() - unit_start
                self._account(unit, source, seconds, report)

    def _ensure_parallel(self, groups, report: EngineReport) -> None:
        tasks: List[_GroupTask] = []
        pending: "Dict[Tuple[str, float], List[ClassifierConfig]]" = {}
        for (name, scale), configs in groups.items():
            trace = cache.peek_trace(name, scale)
            cache.record_cache_event("trace", trace is not None)
            if trace is not None:
                report.from_memory += 1
            else:
                trace = self._store_trace(name, scale)
                if trace is not None:
                    cache.seed_trace(name, scale, trace, write_store=False)
                    report.from_store += 1

            missing: List[ClassifierConfig] = []
            for config in configs:
                resident = cache.peek_classified(name, config, scale)
                cache.record_cache_event("classified", resident is not None)
                if resident is not None:
                    report.from_memory += 1
                    continue
                run = self._store_classified(name, scale, config)
                if run is not None:
                    cache.seed_classified(
                        name, config, scale, run, write_store=False
                    )
                    report.from_store += 1
                    continue
                missing.append(config)

            if trace is None or missing:
                tasks.append((name, scale, trace, tuple(missing)))
                pending[(name, scale)] = missing

        if not tasks:
            return
        results = self._run_tasks(tasks)
        for name, scale, trace, trace_seconds, runs in results:
            trace_unit = WorkUnit(name, scale)
            validate_unit_result(trace_unit, trace, None)
            if trace_seconds is not None:
                cache.seed_trace(name, scale, trace)
                self._account(trace_unit, "computed", trace_seconds, report)
            returned = [config for config, _, _ in runs]
            expected = pending[(name, scale)]
            if returned != expected:
                raise EngineError(
                    f"{name}@{scale}: worker returned configs "
                    f"{returned!r}, expected {expected!r}"
                )
            for config, run, seconds in runs:
                unit = WorkUnit(name, scale, config)
                validate_unit_result(unit, trace, run)
                cache.seed_classified(name, config, scale, run)
                self._account(unit, "computed", seconds, report)

    def _run_tasks(self, tasks: List[_GroupTask]):
        if len(tasks) == 1:
            # One group cannot parallelize; skip the pool entirely.
            return [_compute_group(tasks[0])]
        workers = min(self.jobs, len(tasks))
        with multiprocessing.Pool(processes=workers) as pool:
            return list(pool.imap_unordered(_compute_group, tasks))

    # -- bookkeeping ------------------------------------------------------

    @staticmethod
    def _group_units(name, scale, configs):
        yield WorkUnit(name, scale)
        for config in configs:
            yield WorkUnit(name, scale, config)

    def _store_trace(self, name, scale):
        store = cache.get_result_store()
        return store.get_trace(name, scale) if store is not None else None

    def _store_classified(self, name, scale, config):
        store = cache.get_result_store()
        if store is None:
            return None
        return store.get_classified(name, scale, config)

    def _account(
        self,
        unit: WorkUnit,
        source: str,
        seconds: float,
        report: EngineReport,
    ) -> None:
        if source == "memory":
            report.from_memory += 1
            return
        if source == "store":
            report.from_store += 1
            return
        report.computed += 1
        report.busy_seconds += seconds
        report.unit_seconds[unit] = seconds
        self._observe_unit(unit, seconds)
