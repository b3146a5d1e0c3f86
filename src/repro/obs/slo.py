"""Multi-window SLO burn-rate tracking over stall/latency samples.

The latency gate from PR 6 compares *aggregate* percentiles; a burn
rate answers the operational question instead: *at the current bad-event
rate, how fast is the error budget being spent?*  With an objective of
``0.95`` ("95% of flushes stall at most ``threshold`` pages"), the
budget is the 5% of events allowed to be bad; a burn rate of 1.0 means
bad events arrive exactly at budget, 2.0 means twice as fast.

Following multi-window alerting practice, the tracker evaluates the
same budget over several trailing windows (by sample count — the
service is tick-driven, not wall-clock-driven, so sample windows keep
the math deterministic).  The *sustained* burn — the minimum across
windows — only rises when every window is burning, which filters
one-flush blips; the *worst* burn (maximum) surfaces short spikes.
Sustained burn above 1.0 is what the report calls ``burning``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Sequence

__all__ = ["SLOTracker"]


class SLOTracker:
    """Burn-rate evaluation of a good/bad event stream.

    Args:
        objective: Target good fraction in ``[0, 1)`` — e.g. ``0.95``
            allows 5% of events to exceed the threshold.
        threshold: A recorded value strictly above this is a bad event.
            The service passes its ``pages_per_step`` (default 32),
            one incremental cleaner step budget: a flush that stalls
            behind more than one step's worth of GC writes is out of
            budget.
        windows: Trailing window lengths, in samples, shortest first.
    """

    def __init__(
        self,
        objective: float = 0.95,
        threshold: float = 32.0,
        windows: Sequence[int] = (16, 64, 256),
    ) -> None:
        if not 0.0 <= objective < 1.0:
            raise ValueError("objective must be within [0, 1)")
        if not windows:
            raise ValueError("at least one window is required")
        if any(window < 1 for window in windows):
            raise ValueError("windows must be positive sample counts")
        self.objective = objective
        self.threshold = threshold
        self.windows = tuple(sorted(int(window) for window in windows))
        self._ring: "deque[bool]" = deque(maxlen=self.windows[-1])
        self.samples = 0
        self.bad = 0

    @property
    def budget(self) -> float:
        """The allowed bad fraction (error budget)."""
        return 1.0 - self.objective

    def record(self, value: float) -> bool:
        """Record one sample; returns whether it was bad."""
        is_bad = value > self.threshold
        self._ring.append(is_bad)
        self.samples += 1
        if is_bad:
            self.bad += 1
        return is_bad

    def _window_stats(self, window: int) -> Dict[str, Any]:
        recent = list(self._ring)[-window:]
        count = len(recent)
        bad = sum(recent)
        bad_fraction = (bad / count) if count else 0.0
        return {
            "window": window,
            "samples": count,
            "bad": bad,
            "bad_fraction": round(bad_fraction, 6),
            "burn_rate": round(bad_fraction / self.budget, 6),
        }

    def burn_rates(self) -> List[Dict[str, Any]]:
        """Per-window burn stats, shortest window first."""
        return [self._window_stats(window) for window in self.windows]

    @property
    def worst_burn(self) -> float:
        """Max burn across windows — surfaces short spikes."""
        return max(stats["burn_rate"] for stats in self.burn_rates())

    @property
    def sustained_burn(self) -> float:
        """Min burn across windows — nonzero only when all are burning."""
        return min(stats["burn_rate"] for stats in self.burn_rates())

    def report(self) -> Dict[str, Any]:
        """JSON-ready summary embedded in the latency bench report."""
        windows = self.burn_rates()
        worst = max(stats["burn_rate"] for stats in windows)
        sustained = min(stats["burn_rate"] for stats in windows)
        return {
            "objective": self.objective,
            "threshold": self.threshold,
            "samples": self.samples,
            "bad": self.bad,
            "bad_fraction": round((self.bad / self.samples) if self.samples else 0.0, 6),
            "windows": windows,
            "worst_burn": worst,
            "sustained_burn": sustained,
            "burning": sustained > 1.0,
        }
