"""Phase-aware dynamic voltage scaling (DVS) policy.

The paper motivates phase length prediction with expensive
reconfigurations: "an expensive optimization or reconfiguration should
only be applied if we can amortize its cost over a significant amount
of execution" (§1, §6.2). This example builds that policy:

- every phase change, predict the run-length class of the incoming
  phase with the RLE-2 length predictor;
- drop to a low-power DVS state only when the phase is predicted to
  last >= 16 intervals (>= 160M instructions), amortizing the voltage
  transition cost;
- compare against (a) a naive policy that transitions on every phase
  change and (b) an oracle that knows the true lengths.

The figure of merit is net cycles saved: each interval spent in the
low-power state saves energy at a small performance cost, but each
transition burns a fixed cost.

Run:  python examples/dvs_scheduler.py
"""

from dataclasses import dataclass
from typing import List

from repro.analysis.runs import extract_runs
from repro.core import ClassifierConfig, PhaseClassifier
from repro.prediction.length import PhaseLengthPredictor, length_class
from repro.workloads import benchmark

#: A DVS transition (PLL relock + voltage ramp) costs roughly three
#: intervals' worth of disruption at 10M-instruction granularity.
TRANSITION_COST = 3.0
#: Net benefit per interval spent in the low-power state.
BENEFIT_PER_INTERVAL = 0.25
#: Minimum predicted class worth transitioning for (class 1 = 16-127
#: intervals).
MIN_CLASS = 1


@dataclass
class PolicyResult:
    name: str
    transitions: int
    low_power_intervals: int

    @property
    def net_benefit(self) -> float:
        return (
            self.low_power_intervals * BENEFIT_PER_INTERVAL
            - self.transitions * TRANSITION_COST
        )


def naive_policy(runs) -> PolicyResult:
    """Transition into low power at every phase change."""
    transitions = 0
    low_power = 0
    for run in runs:
        transitions += 1
        low_power += run.length
    return PolicyResult("naive (every change)", transitions, low_power)


def oracle_policy(runs) -> PolicyResult:
    """Transition only when the true run is long enough."""
    transitions = 0
    low_power = 0
    for run in runs:
        if length_class(run.length) >= MIN_CLASS:
            transitions += 1
            low_power += run.length
    return PolicyResult("oracle (true lengths)", transitions, low_power)


def predicted_policy(phase_ids) -> PolicyResult:
    """Transition when the RLE-2 length predictor says 'long'."""
    predictor = PhaseLengthPredictor()
    transitions = 0
    low_power = 0
    current_run = 0
    in_low_power = False
    previous = None
    for phase_id in phase_ids:
        phase_id = int(phase_id)
        if previous is None or phase_id == previous:
            current_run += 1
        else:
            # Phase change: ask the predictor (it has just scored the
            # completed run inside advance) for the incoming class.
            if in_low_power:
                low_power += current_run
            current_run = 1
        predictor.advance(phase_id)
        if previous is not None and phase_id != previous:
            predicted = predictor.outstanding_prediction
            should = predicted is not None and predicted >= MIN_CLASS
            if should and not in_low_power:
                transitions += 1
            in_low_power = should
        previous = phase_id
    if in_low_power:
        low_power += current_run
    return PolicyResult("predicted (RLE-2 classes)", transitions, low_power)


def main() -> None:
    for name in ("gzip/p", "bzip2/g", "gcc/s"):
        trace = benchmark(name, scale=0.5)
        run = PhaseClassifier(
            ClassifierConfig.paper_default()
        ).classify_trace(trace)
        runs = extract_runs(run.phase_ids)

        policies: List[PolicyResult] = [
            naive_policy(runs),
            predicted_policy(run.phase_ids),
            oracle_policy(runs),
        ]
        print(f"\n{name}: {len(trace)} intervals, {len(runs)} phase runs")
        for policy in policies:
            print(
                f"  {policy.name:26s} transitions={policy.transitions:4d} "
                f"low-power intervals={policy.low_power_intervals:5d} "
                f"net benefit={policy.net_benefit:8.1f}"
            )


if __name__ == "__main__":
    main()
