"""Workload generators for the cleaning experiments."""

from repro.workloads.base import DEFAULT_BATCH, Workload
from repro.workloads.hotcold import HotColdWorkload
from repro.workloads.shifting import ShiftingHotSetWorkload
from repro.workloads.trace import TraceRecorder, TraceWorkload
from repro.workloads.uniform import UniformWorkload
from repro.workloads.zipfian import ZIPF_80_20, ZIPF_90_10, ZipfianWorkload

__all__ = [
    "DEFAULT_BATCH",
    "HotColdWorkload",
    "ShiftingHotSetWorkload",
    "TraceRecorder",
    "TraceWorkload",
    "UniformWorkload",
    "Workload",
    "ZIPF_80_20",
    "ZIPF_90_10",
    "ZipfianWorkload",
]
