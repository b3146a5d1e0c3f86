"""One monotonic wall clock shared by every timing consumer.

Span timestamps, latency-bench timings, harness elapsed fields, and
telemetry rows all need to be *mutually comparable*: a span that says it
started at ``t=1.204s`` should line up with a telemetry row stamped
``t_s=1.2``.  Each of those call sites used to call
``time.perf_counter()`` independently — monotonic, but with an arbitrary
per-call-site origin, so nothing could be joined across files.

This module pins one origin: the process-wide epoch is captured once at
import, and :func:`now_s` returns seconds elapsed since then.  Every
timing field in the repo that is meant to be cross-referenced goes
through here.

The clock is wall time, not the store's logical update clock — telemetry
rows carry *both* (wall for humans, logical ``clock`` for joining
against metrics rows, which stay byte-deterministic by never including
wall time); span rows carry wall time only.
"""

from __future__ import annotations

import time

#: Process-wide origin, captured once at first import.
_EPOCH = time.perf_counter()


def now_s() -> float:
    """Monotonic seconds since the process epoch (first import)."""
    return time.perf_counter() - _EPOCH
