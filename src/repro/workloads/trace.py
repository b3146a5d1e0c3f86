"""Trace workloads: record, persist, and replay page-write sequences.

The paper's TPC-C experiment (Section 6.3) collects I/O traces from a
B+-tree storage engine and replays them through the cleaning simulator.
:class:`TraceWorkload` is the replay half; :class:`TraceRecorder` is the
collection half (the buffer pool in :mod:`repro.btree` writes into one).

Traces are plain integer page-id sequences.  "Exact" frequencies for the
``-opt`` policies are the empirical per-page write shares of the whole
trace — the paper's "pre-analyzing page update frequencies".
"""

from __future__ import annotations

import pathlib
from typing import List, Union

import numpy as np

from repro.core.frequency import empirical_frequencies
from repro.workloads.base import Workload


class TraceRecorder:
    """Accumulates page writes emitted by a storage engine."""

    def __init__(self) -> None:
        self._chunks: List[np.ndarray] = []
        self._pending: List[int] = []

    def record(self, page_id: int) -> None:
        """Append one page write to the trace."""
        self._pending.append(page_id)
        if len(self._pending) >= 1 << 16:
            self._compact()

    def _compact(self) -> None:
        if self._pending:
            self._chunks.append(np.asarray(self._pending, dtype=np.int64))
            self._pending = []

    def __len__(self) -> int:
        return sum(len(c) for c in self._chunks) + len(self._pending)

    def to_array(self) -> np.ndarray:
        """The full trace as one int64 array."""
        self._compact()
        if not self._chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self._chunks)


class TraceWorkload(Workload):
    """Replay a recorded page-write trace, in order.

    Iterating past the end wraps around (with a warning flag), so short
    traces can still drive long convergence runs when needed; benchmarks
    size their runs to the trace instead.
    """

    def __init__(self, trace: Union[np.ndarray, List[int]], seed: int = 0) -> None:
        trace = np.asarray(trace, dtype=np.int64)
        if trace.size == 0:
            raise ValueError("trace is empty")
        if trace.min() < 0:
            raise ValueError("trace contains negative page ids")
        super().__init__(int(trace.max()) + 1, seed)
        self.trace = trace
        self._pos = 0
        self.wrapped = False

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "TraceWorkload":
        """Read a trace saved with :meth:`save`."""
        data = np.load(str(path))
        return cls(data["trace"])

    def save(self, path: Union[str, pathlib.Path]) -> None:
        """Persist the trace as a compressed ``.npz``."""
        np.savez_compressed(str(path), trace=self.trace)

    def __len__(self) -> int:
        return len(self.trace)

    def frequencies(self) -> np.ndarray:
        return empirical_frequencies(self.trace, self.n_pages)

    def distinct_pages(self) -> int:
        """Number of unique page ids the trace touches."""
        return int(np.unique(self.trace).size)

    def _sample(self, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.int64)
        filled = 0
        total = len(self.trace)
        while filled < n:
            take = min(n - filled, total - self._pos)
            out[filled : filled + take] = self.trace[self._pos : self._pos + take]
            filled += take
            self._pos += take
            if self._pos >= total:
                self._pos = 0
                if filled < n:
                    # Only flag a wrap when repeated data is actually
                    # emitted; consuming the trace exactly once is clean.
                    self.wrapped = True
        return out

    def reset(self) -> None:
        super().reset()
        self._pos = 0
        self.wrapped = False
