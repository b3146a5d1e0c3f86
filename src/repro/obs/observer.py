"""The store-facing observer: hooks, decision tracing, and export rows.

A :class:`StoreObserver` plugs into the store's ``obs`` slot.  The store
calls six hooks — :meth:`on_seal`, :meth:`on_flush`, :meth:`on_victims`,
:meth:`on_clean`, :meth:`on_clean_step`, :meth:`on_write_stall` — all of
which fire at per-segment or per-cleaner-step frequency (a seal, a
buffer drain, a cleaning cycle or one budgeted slice of one), never once
per write.  With no observer attached each hook site costs exactly one
``store.obs is None`` test, which is how the <2% disabled-overhead
budget in OBSERVABILITY.md is met by construction.

Decision tracing answers "why this segment?" after the fact: at every
victim selection the observer records the policy's full ranking context
for the chosen victims via
:meth:`~repro.policies.base.CleaningPolicy.decision_columns` — MDC's
``A``/``C``/``up2``/decline score, and each other family's equivalents —
*before* the store resets the victims and wipes their columns.

The hook contract: **record scalars and copies; format on read.**  A hook
runs inside the write path, so it appends a tuple (the clock, a few
ints, the decision columns as the small array copies the policy hands
over) and bumps instruments it holds; the row dicts and the JSON-ready
cells are built by :attr:`StoreObserver.decisions` and
:meth:`StoreObserver.rows`, which run once, at export.

Each store moment is one record: a counter, histogram or gauge in the
metrics row, a decision row, or a sample row.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.obs.export import SCHEMA_VERSION
from repro.obs.metrics import MetricsRegistry
from repro.obs.samplers import TimeSeriesSampler
from repro.store.stats import WindowStats

#: Most recent decision records an observer retains; older ones are
#: counted in ``decisions_dropped``.
MAX_DECISIONS = 1024

#: Bucket edges of the cleaned-emptiness histogram (fractions of a
#: segment; the overflow bucket is unreachable but keeps edges regular).
_EMPTINESS_EDGES = tuple((i + 1) / 10 for i in range(10))

#: Bucket edges for page-count histograms (foreground stall sizes,
#: cleaner step sizes).  Power-of-two spaced — stall sizes span from a
#: couple of pages (one incremental step) to several segments' worth of
#: relocations (a reactive batch storm) — with an explicit 0 bucket so
#: stall-free flushes keep the percentile denominator honest.  The
#: service layer shares these edges for its ``flush_stall_pages``
#: histogram so store- and service-level stalls compare bucket for
#: bucket.
PAGES_EDGES = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
               256.0, 512.0, 1024.0, 2048.0, 4096.0)
_PAGES_EDGES = PAGES_EDGES


def _bound(kind: str, name: str, *edges) -> cached_property:
    """An observer attribute that is the named instrument, looked up in
    the registry on first read — so an instrument enters the snapshot
    when its hook first fires, and every later read is a plain load."""
    return cached_property(lambda obs: getattr(obs.metrics, kind)(name, *edges))


class StoreObserver:
    """Metrics + decision records + time-series sampling for one store.

    Args:
        store: The store to observe; ``attach`` links the two.
        sample_interval: Update ticks between time-series samples
            (default: :func:`~repro.obs.samplers.default_interval`).
    """

    def __init__(self, store, sample_interval: Optional[int] = None) -> None:
        self.store = store
        self.metrics = MetricsRegistry()
        self.sampler = TimeSeriesSampler(store, interval=sample_interval)
        #: Recorded decisions ``(clock, policy, candidates, victim ids,
        #: decision columns)``; :attr:`decisions` formats them.
        self._decisions: "deque[tuple]" = deque(maxlen=MAX_DECISIONS)
        self.decisions_dropped = 0
        self._start = store.stats.snapshot()

    # -- lifecycle -----------------------------------------------------

    def attach(self) -> "StoreObserver":
        """Install into ``store.obs`` and start capturing."""
        if self.store.obs is not None and self.store.obs is not self:
            raise RuntimeError("store already has an observer attached")
        self.store.obs = self
        return self

    def detach(self) -> None:
        """Remove from the store; the captured data stays readable."""
        if self.store.obs is self:
            self.store.obs = None

    def __enter__(self) -> "StoreObserver":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    # -- store hooks (per-segment frequency, never per-write) ----------
    #
    # A hook records: scalars and small array copies, on instruments it
    # binds the first time it runs.  Formatting (row dicts) happens when
    # ``decisions`` / ``rows()`` are read.

    _sealed = _bound("counter", "segments_sealed")
    _flushes = _bound("counter", "buffer_flushes")
    _flush_pages = _bound("counter", "buffer_flush_pages")
    _selections = _bound("counter", "victim_selections")
    _cycles = _bound("counter", "clean_cycles")
    _relocated = _bound("counter", "pages_relocated")
    _reclaimed = _bound("counter", "units_reclaimed")
    _emptiness = _bound("histogram", "cleaned_emptiness", _EMPTINESS_EDGES)
    _free = _bound("gauge", "free_segments")
    _steps = _bound("counter", "cleaner_steps")
    _skipped = _bound("counter", "cleaner_pages_skipped")
    _step_pages = _bound("histogram", "cleaner_step_pages", _PAGES_EDGES)
    _pending = _bound("gauge", "cleaner_pending")
    _stalls = _bound("counter", "write_stalls")
    _stall_pages = _bound("histogram", "write_stall_pages", _PAGES_EDGES)

    def on_seal(self, seg: int) -> None:
        self._sealed.value += 1

    def on_flush(self, pages: int) -> None:
        self._flushes.value += 1
        self._flush_pages.inc(pages)

    def on_victims(self, candidates: np.ndarray, victims: Sequence[int]) -> None:
        """Called right after victim validation, before the victims'
        segment-table columns are reset: the policy's decision columns
        are copies, so the record outlives the reset."""
        store = self.store
        policy = store.policy
        ids = np.asarray(victims, dtype=np.int64)
        if len(self._decisions) == self._decisions.maxlen:
            self.decisions_dropped += 1
        self._decisions.append(
            (
                store.clock,
                getattr(policy, "name", type(policy).__name__),
                len(candidates),
                ids.tolist(),
                policy.decision_columns(store.segments, ids),
            )
        )
        self._selections.value += 1

    @property
    def decisions(self) -> List[Dict]:
        """The retained decision records, oldest first, formatted on
        read: plain-Python cells for JSON export, one ``tolist()`` per
        column."""
        records = []
        for clock, policy, candidates, victim_ids, columns in self._decisions:
            names = ["seg"] + list(columns)
            cells = [np.asarray(col).tolist() for col in columns.values()]
            records.append(
                {
                    "type": "decision",
                    "clock": clock,
                    "policy": policy,
                    "candidates": candidates,
                    "victims": [
                        dict(zip(names, row)) for row in zip(victim_ids, *cells)
                    ],
                }
            )
        return records

    def on_clean(
        self,
        victims: Sequence[int],
        moved: int,
        reclaimed_units: int,
        emptiness: Sequence[float],
    ) -> None:
        self._cycles.value += 1
        self._relocated.inc(int(moved))
        self._reclaimed.inc(int(reclaimed_units))
        observe = self._emptiness.observe
        for e in np.asarray(emptiness).tolist():
            observe(e)
        self._free.value = float(self.store.free_segment_count)

    def on_clean_step(self, relocated: int, skipped: int, remaining: int) -> None:
        """Called after each incremental cleaner step."""
        self._steps.value += 1
        self._skipped.inc(int(skipped))
        self._step_pages.observe(relocated)
        self._pending.value = float(remaining)

    def on_write_stall(self, pages: int) -> None:
        """Called when a foreground write ran inline (reactive) cleaning;
        ``pages`` is how many GC relocations it waited behind."""
        self._stalls.value += 1
        self._stall_pages.observe(pages)

    # -- sampling ------------------------------------------------------

    def maybe_sample(self) -> Optional[Dict]:
        """Sample if the store clock passed the next mark (the bench
        driver calls this once per workload batch)."""
        return self.sampler.maybe_sample()

    def sample_now(self) -> Optional[Dict]:
        """Force a sample (baseline at attach, final at export)."""
        return self.sampler.sample_now()

    # -- export --------------------------------------------------------

    def window(self) -> WindowStats:
        """Store statistics over the observed interval (since attach)."""
        return self.store.stats.window_since(self._start)

    def rows(self, meta: Optional[Dict] = None) -> Iterator[Dict]:
        """All captured data as JSONL-ready rows: one ``meta`` header,
        then samples, decision records and a metrics snapshot."""
        header = {"type": "meta", "schema": SCHEMA_VERSION}
        header["run"] = dict(meta) if meta else {}
        header["run"].setdefault(
            "policy",
            getattr(self.store.policy, "name", type(self.store.policy).__name__),
        )
        yield header
        for sample in self.sampler.samples:
            yield sample
        for decision in self.decisions:
            yield decision
        row = self.metrics.snapshot().to_dict()
        row["type"] = "metrics"
        row["clock"] = self.store.clock
        row["decisions_dropped"] = self.decisions_dropped
        yield row
