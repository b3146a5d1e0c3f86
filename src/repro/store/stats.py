"""Write-amplification and cleaning statistics.

The paper's performance metric (Section 6.1.2) is write amplification::

    Wamp = (pages moved by cleaning) / (pages written by the user)

Equation 2 expresses the same quantity analytically as ``(1 - E) / E``
where ``E`` is the average segment emptiness at cleaning time.  The store
counts both numerator and denominator, and also the emptiness of every
cleaned segment so that simulated ``E`` can be compared against the
analysis (Table 1).

Counters are cumulative; measurement windows are taken as snapshot deltas
so that warm-up (initial load and convergence) can be excluded, mirroring
the paper's procedure of writing many multiples of the device size until
write amplification stabilizes.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class StatsSnapshot:
    """An immutable copy of the cumulative counters at one instant."""

    user_writes: int
    user_device_writes: int
    gc_writes: int
    trims: int
    segments_cleaned: int
    cleaned_emptiness_sum: float
    clean_cycles: int

    def delta(self, earlier: "StatsSnapshot") -> "WindowStats":
        """Statistics over the interval from ``earlier`` to this snapshot."""
        return WindowStats(
            user_writes=self.user_writes - earlier.user_writes,
            user_device_writes=(
                self.user_device_writes - earlier.user_device_writes
            ),
            gc_writes=self.gc_writes - earlier.gc_writes,
            trims=self.trims - earlier.trims,
            segments_cleaned=self.segments_cleaned - earlier.segments_cleaned,
            cleaned_emptiness_sum=(
                self.cleaned_emptiness_sum - earlier.cleaned_emptiness_sum
            ),
            clean_cycles=self.clean_cycles - earlier.clean_cycles,
        )


@dataclasses.dataclass(frozen=True)
class WindowStats:
    """Derived metrics over a measurement window."""

    user_writes: int
    user_device_writes: int
    gc_writes: int
    trims: int
    segments_cleaned: int
    cleaned_emptiness_sum: float
    clean_cycles: int

    @property
    def write_amplification(self) -> float:
        """``Wamp`` against logical user writes — the paper's metric
        (Section 6.1.2): cleaning writes per write the user performs.

        Note that a sorting buffer absorbs rewrites of still-buffered
        pages; part of Figure 4's improvement is hot traffic captured in
        RAM, which this metric credits (as the paper's does).
        """
        if self.user_writes == 0:
            return 0.0
        return self.gc_writes / self.user_writes

    @property
    def device_write_amplification(self) -> float:
        """``Wamp`` against user writes that actually reached a segment.

        This is the denominator for which the segment-flow identity
        ``Wamp = (1 - E) / E`` holds exactly; it isolates the cleaning
        policy's contribution from buffer absorption.  Without a buffer
        the two metrics coincide.
        """
        if self.user_device_writes == 0:
            return 0.0
        return self.gc_writes / self.user_device_writes

    @property
    def mean_cleaned_emptiness(self) -> float:
        """Average ``E`` of segments at the moment they were cleaned."""
        if self.segments_cleaned == 0:
            return 0.0
        return self.cleaned_emptiness_sum / self.segments_cleaned

    @property
    def cost_per_segment(self) -> float:
        """Equation 1's ``Cost_seg = 2 / E`` evaluated at the measured E."""
        e = self.mean_cleaned_emptiness
        return float("inf") if e == 0.0 else 2.0 / e


class StoreStats:
    """Mutable cumulative counters owned by a store instance."""

    __slots__ = (
        "user_writes",
        "user_device_writes",
        "gc_writes",
        "trims",
        "segments_cleaned",
        "cleaned_emptiness_sum",
        "clean_cycles",
    )

    def __init__(self) -> None:
        self.user_writes = 0
        self.user_device_writes = 0
        self.gc_writes = 0
        self.trims = 0
        self.segments_cleaned = 0
        self.cleaned_emptiness_sum = 0.0
        self.clean_cycles = 0

    def snapshot(self) -> StatsSnapshot:
        """Immutable copy of the current counters."""
        return StatsSnapshot(
            user_writes=self.user_writes,
            user_device_writes=self.user_device_writes,
            gc_writes=self.gc_writes,
            trims=self.trims,
            segments_cleaned=self.segments_cleaned,
            cleaned_emptiness_sum=self.cleaned_emptiness_sum,
            clean_cycles=self.clean_cycles,
        )

    def window_since(self, earlier: StatsSnapshot) -> WindowStats:
        """Metrics over the interval since ``earlier``."""
        return self.snapshot().delta(earlier)

    @property
    def write_amplification(self) -> float:
        """Cumulative ``Wamp`` since the store was created (includes the
        initial load; prefer windowed measurement for converged values)."""
        if self.user_writes == 0:
            return 0.0
        return self.gc_writes / self.user_writes
