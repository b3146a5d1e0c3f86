"""Write-amplification time series: convergence behaviour.

The paper makes two temporal claims its figures do not plot directly:

* multi-log "requires a lot of page writes to converge" because it
  starts with one log and adapts (Section 6.3's explanation for its
  TPC-C result);
* MDC needs no convergence period beyond filling the device, because
  its victim priority and sorting work from the first cleaning cycle.

This experiment measures both: Wamp per window of writes, from cold
start, for any policy line-up.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Union

from repro.bench.runner import drive, prepare_store
from repro.bench.tables import format_series
from repro.policies.base import CleaningPolicy
from repro.store import StoreConfig
from repro.workloads import Workload


@dataclasses.dataclass(frozen=True)
class TimeSeries:
    """Windowed write-amplification curves per policy."""

    window_writes: int
    series: Dict[str, List[float]]

    def windows_to_converge(self, name: str, rel_tol: float = 0.1) -> int:
        """First window index from which Wamp stays within ``rel_tol``
        of the final value.  The last window qualifies trivially, so the
        result is at most ``len(curve) - 1``; a curve still oscillating
        returns exactly that."""
        curve = self.series[name]
        final = curve[-1]
        scale = max(abs(final), 1e-9)
        for i, value in enumerate(curve):
            if all(abs(v - final) / scale <= rel_tol for v in curve[i:]):
                return i
        return len(curve)

    def rendered(self, title: str = "") -> str:
        """Plain-text table of the curves (x axis = cumulative writes)."""
        xs = [
            (i + 1) * self.window_writes for i in range(len(next(iter(self.series.values()))))
        ]
        return format_series("writes", xs, self.series, title=title, precision=3)


def wamp_timeseries(
    config: StoreConfig,
    policies: Sequence[Union[str, CleaningPolicy]],
    workload_factory,
    n_windows: int = 20,
    window_multiplier: float = 2.0,
) -> TimeSeries:
    """Measure Wamp over consecutive windows from a cold start.

    Args:
        workload_factory: ``() -> Workload`` — a fresh stream per policy.
        n_windows: Number of measurement windows.
        window_multiplier: Window length as a multiple of the page
            population.
    """
    series: Dict[str, List[float]] = {}
    window_writes = None
    for policy in policies:
        workload: Workload = workload_factory()
        store = prepare_store(config, policy, workload)
        window_writes = max(1, int(window_multiplier * workload.n_pages))
        curve = []
        for _ in range(n_windows):
            mark = store.stats.snapshot()
            drive(store, workload, window_writes)
            curve.append(store.stats.window_since(mark).write_amplification)
        series[store.policy.name] = curve
    return TimeSeries(window_writes=window_writes, series=series)
