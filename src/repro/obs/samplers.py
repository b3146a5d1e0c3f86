"""Periodic time-series capture keyed to the store's update clock.

The paper's evaluation is trajectory-shaped: write amplification and
cleaned-segment emptiness are tracked over multiples of device writes
until they stabilize (Section 6.2).  The sampler reproduces that view:
at fixed *clock marks* (multiples of ``interval`` update ticks) it
records a row of windowed and instantaneous store metrics.

Marks are positions on the update clock, not wall time and not "every N
calls", so runs that differ only in workload seed produce samples at
identical clocks — convergence curves from different seeds align
point-for-point and can be averaged across a sweep grid.

Each row carries both cumulative write amplification (includes the
initial load) and the windowed figures since the previous sample — the
windowed ones are what converge to the steady-state value (see the
``stats.py`` guidance preferring windowed measurement).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.store.reporting import emptiness_histogram, temperature_report
from repro.store.stats import StatsSnapshot

#: Buckets of the per-sample emptiness histogram.
HIST_BUCKETS = 10


def default_interval(store) -> int:
    """One quarter of the user page population per sample: four samples
    per write-multiplier unit, matching the granularity the convergence
    plots need without inflating metrics files."""
    return max(1, store.config.user_pages // 4)


class TimeSeriesSampler:
    """Samples a store's trajectory at fixed update-clock marks.

    Args:
        store: The :class:`~repro.store.LogStructuredStore` to observe.
        interval: Ticks between marks; default :func:`default_interval`.
    """

    def __init__(self, store, interval: Optional[int] = None) -> None:
        if interval is not None and interval < 1:
            raise ValueError("interval must be >= 1")
        self.store = store
        self.interval = interval or default_interval(store)
        self.samples: List[Dict] = []
        self._last: StatsSnapshot = store.stats.snapshot()
        self._next_mark = self._mark_after(store.clock)

    def _mark_after(self, clock: int) -> int:
        """The first mark strictly after ``clock``."""
        return (clock // self.interval + 1) * self.interval

    def maybe_sample(self) -> Optional[Dict]:
        """Record a row if the clock reached the next mark.

        One row per call even when a large write batch crossed several
        marks — the row is stamped with the actual clock, so alignment
        across runs holds as long as they drive the store with the same
        batch boundaries (workload batches are fixed-size).
        """
        if self.store.clock < self._next_mark:
            return None
        row = self.sample_now()
        self._next_mark = self._mark_after(self.store.clock)
        return row

    def sample_now(self) -> Optional[Dict]:
        """Record a row unconditionally (used for the baseline row at
        attach time and the final row at export time).  Skips exact
        duplicates of the previous row's clock."""
        store = self.store
        clock = store.clock
        if self.samples and self.samples[-1]["clock"] == clock:
            return None
        snap = store.stats.snapshot()
        window = snap.delta(self._last)
        self._last = snap
        config = store.config
        row = {
            "type": "sample",
            "clock": clock,
            "user_writes": snap.user_writes,
            "device_writes_multiple": (
                (snap.user_device_writes + snap.gc_writes) / config.device_units
            ),
            "wamp_cum": (
                snap.gc_writes / snap.user_writes if snap.user_writes else 0.0
            ),
            "wamp_win": window.write_amplification,
            "device_wamp_win": window.device_write_amplification,
            "mean_cleaned_emptiness_win": window.mean_cleaned_emptiness,
            "fill": store.fill_factor_now(),
            "free_segments": store.free_segment_count,
            "live_pages": store.live_page_count(),
            "emptiness_hist": emptiness_histogram(store, HIST_BUCKETS),
            "temperature_cv": temperature_report(store)["cv"],
            "wear_cv": store.wear_summary()["cv"],
        }
        self.samples.append(row)
        return row
