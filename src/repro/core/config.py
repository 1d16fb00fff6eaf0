"""Configuration for the phase classifier.

:class:`ClassifierConfig` captures every knob the paper's experiments
vary, with defaults matching the paper's final configuration (§5.1):
16 accumulators, 6 bits per counter, 32 signature-table entries, 25%
similarity threshold, min-count 8, most-similar matching, and a 25%
performance-deviation threshold when the adaptive classifier is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Optional, get_args, get_type_hints

from repro.errors import ConfigurationError

#: Phase ID reserved for the transition phase (paper §4.4: "The
#: transition phase is represented with phase ID zero").
TRANSITION_PHASE_ID = 0

#: Width of the accumulator counters (paper §4.2: 24 bits never overflow
#: with 10M-instruction intervals).
ACCUMULATOR_BITS = 24

_MATCH_POLICIES = ("most_similar", "first")
_BIT_SELECTORS = ("dynamic", "static")


@dataclass(frozen=True)
class ClassifierConfig:
    """All knobs of the phase classification architecture.

    Parameters
    ----------
    num_counters:
        Accumulator/signature dimensions (power of two). The paper's
        baseline (Fig. 2) uses 32; §4.3 onward uses 16.
    bits_per_counter:
        Compressed-signature bits kept per counter (§4.2: fewer than 6
        classify poorly, more than 8 does not help).
    table_entries:
        Signature-table capacity with LRU replacement; ``None`` models
        the infinite table of the prior work.
    similarity_threshold:
        Maximum relative signature difference for a match, as a
        fraction (0.125 and 0.25 in the paper). Per-entry thresholds
        are initialized to this value.
    min_count_threshold:
        Times a signature must be classified into an entry before the
        entry is granted a real phase ID; intervals classified earlier
        go to the transition phase. 0 disables the transition phase
        (the prior-work baseline).
    match_policy:
        ``"most_similar"`` (this paper) or ``"first"`` (prior work) when
        several table entries satisfy the threshold.
    bit_selector:
        ``"dynamic"`` (this paper, §4.2) or ``"static"`` (prior work:
        a fixed bit window).
    static_low_bit:
        Lowest counter bit copied when ``bit_selector == "static"``
        (prior work used bits 14..21 of each 24-bit counter).
    perf_dev_threshold:
        Enables the adaptive classifier (§4.6) when not ``None``: if an
        interval's CPI deviates from its phase's running-average CPI by
        more than this fraction, the entry's similarity threshold is
        halved and its CPI statistics are cleared.
    """

    num_counters: int = 16
    bits_per_counter: int = 6
    table_entries: Optional[int] = 32
    similarity_threshold: float = 0.25
    min_count_threshold: int = 8
    match_policy: str = "most_similar"
    bit_selector: str = "dynamic"
    static_low_bit: int = 14
    perf_dev_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        for name, kinds in _FIELD_KINDS.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ConfigurationError(
                    f"{name} must be {' or '.join(k.__name__ for k in kinds)}"
                    f", got {value!r}"
                )
        if self.num_counters <= 0 or self.num_counters & (
            self.num_counters - 1
        ):
            raise ConfigurationError(
                "num_counters must be a positive power of two, got "
                f"{self.num_counters}"
            )
        if not 1 <= self.bits_per_counter <= ACCUMULATOR_BITS:
            raise ConfigurationError(
                f"bits_per_counter must be in [1, {ACCUMULATOR_BITS}], got "
                f"{self.bits_per_counter}"
            )
        if self.table_entries is not None and self.table_entries <= 0:
            raise ConfigurationError(
                "table_entries must be positive or None (infinite), got "
                f"{self.table_entries}"
            )
        if not 0.0 < self.similarity_threshold <= 1.0:
            raise ConfigurationError(
                "similarity_threshold must be in (0, 1], got "
                f"{self.similarity_threshold}"
            )
        if self.min_count_threshold < 0:
            raise ConfigurationError(
                "min_count_threshold must be non-negative, got "
                f"{self.min_count_threshold}"
            )
        if self.match_policy not in _MATCH_POLICIES:
            raise ConfigurationError(
                f"match_policy must be one of {_MATCH_POLICIES}, got "
                f"{self.match_policy!r}"
            )
        if self.bit_selector not in _BIT_SELECTORS:
            raise ConfigurationError(
                f"bit_selector must be one of {_BIT_SELECTORS}, got "
                f"{self.bit_selector!r}"
            )
        if not 0 <= self.static_low_bit < ACCUMULATOR_BITS:
            raise ConfigurationError(
                f"static_low_bit must be in [0, {ACCUMULATOR_BITS}), got "
                f"{self.static_low_bit}"
            )
        if self.static_low_bit + self.bits_per_counter > ACCUMULATOR_BITS:
            raise ConfigurationError(
                "static bit window exceeds the accumulator width: "
                f"low bit {self.static_low_bit} + {self.bits_per_counter} "
                f"bits > {ACCUMULATOR_BITS}"
            )
        if self.perf_dev_threshold is not None and not (
            0.0 < self.perf_dev_threshold <= 10.0
        ):
            raise ConfigurationError(
                "perf_dev_threshold must be in (0, 10] or None, got "
                f"{self.perf_dev_threshold}"
            )

    @property
    def adaptive(self) -> bool:
        """Whether the adaptive (dynamic-threshold) classifier is active."""
        return self.perf_dev_threshold is not None

    @staticmethod
    def paper_baseline() -> "ClassifierConfig":
        """The Fig. 2 prior-work baseline: 32 counters, 32 entries, 12.5%."""
        return ClassifierConfig(
            num_counters=32,
            table_entries=32,
            similarity_threshold=0.125,
            min_count_threshold=0,
            match_policy="first",
        )

    @staticmethod
    def paper_default() -> "ClassifierConfig":
        """The §5.1 configuration used for all prediction experiments."""
        return ClassifierConfig(
            num_counters=16,
            bits_per_counter=6,
            table_entries=32,
            similarity_threshold=0.25,
            min_count_threshold=8,
            perf_dev_threshold=0.25,
        )


#: Field -> accepted value types, from the annotations (``int`` admits
#: any integral, ``float`` any real number; ``bool`` never passes).
_FIELD_KINDS = {
    name: tuple(
        {int: Integral, float: Real}.get(kind, kind)
        for kind in get_args(hint) or (hint,)
    )
    for name, hint in get_type_hints(ClassifierConfig).items()
}
