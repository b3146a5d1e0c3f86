"""Multi-log cleaning (Stoica & Ailamaki, PVLDB 2013 — reference [26]).

The state-of-the-art baseline the paper compares against.  Pages are
partitioned into multiple logs so that pages within each log have similar
update frequencies; each log appends to its own open segment.  Cleaning
is *local*: when a write to log ``L`` forces cleaning, the victim is the
most reclaimable among the oldest segments of ``L`` and its two
neighbouring logs, one segment per cycle (matching the evaluation setup
the reproduced paper uses for this algorithm).

Logs are power-of-two frequency classes, created lazily as traffic first
touches them: ``class(f) = floor(log2(f))``, capped at ``max_logs``
distinct classes (further classes clamp to the nearest existing one).
Lazy creation reproduces the convergence behaviour the paper criticizes —
the system "initially places all pages into one log and adjusts the
number of logs as the system runs", and with a noisy estimator it keeps
spawning classes "even though all pages have the same update frequency".

Two estimator variants, as in the paper:

* ``multi-log`` — per-page frequency estimated from the previous update
  timestamp, ``Upf ≈ 1 / (u_now - last_write)``;
* ``multi-log-opt`` — exact (pre-analyzed) page update frequencies, so
  under a uniform distribution every page lands in one class and the
  policy degenerates to age-based cleaning, exactly as the paper
  describes.
"""

from __future__ import annotations

import bisect
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.policies.base import CleaningPolicy

#: Class id for pages with no usable frequency signal (never written, or
#: zero oracle frequency): colder than any real class.
_COLD_CLASS = -(10 ** 9)

#: Sentinel in the segment->class column for segments no class has
#: opened; sorts below every real class id.
_UNASSIGNED = np.iinfo(np.int64).min


class MultiLogPolicy(CleaningPolicy):
    """Frequency-partitioned logs with local victim selection."""

    uses_sort_buffer = False

    def __init__(
        self, exact: bool = False, max_logs: int = 8, class_base: float = 4.0
    ) -> None:
        super().__init__()
        if max_logs < 1:
            raise ValueError("max_logs must be >= 1")
        if class_base <= 1.0:
            raise ValueError("class_base must exceed 1.0")
        self.exact = exact
        self.max_logs = max_logs
        self._log_base = math.log(class_base)
        self.class_base = class_base
        self.name = "multi-log-opt" if exact else "multi-log"
        #: Effective cap, possibly reduced at bind time to fit the
        #: device's slack (one open segment per log must fit in it).
        self._max_logs_effective = max_logs
        #: Existing classes, sorted cold -> hot (created lazily).
        self._classes: List[int] = []
        self._last_class = _COLD_CLASS
        #: Segment -> class that wrote it (refreshed on every open); an
        #: int64 column parallel to the segment table, allocated at bind.
        self._seg_class: Optional[np.ndarray] = None

    def bind(self, store) -> None:
        super().bind(store)
        cfg = store.config
        slack_segments = int(cfg.n_segments * (1.0 - cfg.fill_factor))
        # Each log needs an open segment, and min_free_target() reserves
        # n_logs + 2 free segments; both must fit inside the slack.
        fit = max(1, (slack_segments - cfg.clean_trigger - 2) // 2)
        self._max_logs_effective = min(self.max_logs, fit)
        self._seg_class = np.full(cfg.n_segments, _UNASSIGNED, dtype=np.int64)

    # -- frequency classes -------------------------------------------------

    def _freq(self, page_id: int) -> float:
        pages = self.store.pages
        if self.exact:
            return pages.oracle_freq[page_id]
        last = pages.last_write[page_id]
        if last <= 0:
            return 0.0
        return 1.0 / max(1, self.store.clock - last)

    def _class_of(self, freq: float) -> int:
        if freq <= 0.0:
            return self._classes[0] if self._classes else self._ensure_class(_COLD_CLASS)
        cls = math.floor(math.log(freq) / self._log_base)
        return self._ensure_class(cls)

    def _ensure_class(self, cls: int) -> int:
        classes = self._classes
        if not classes:
            classes.append(cls)
            return cls
        lo = bisect.bisect_left(classes, cls)
        if lo < len(classes) and classes[lo] == cls:
            return cls
        if len(classes) >= self._max_logs_effective:
            # Clamp to the nearest existing class.
            if lo == 0:
                return classes[0]
            if lo == len(classes):
                return classes[-1]
            before, after = classes[lo - 1], classes[lo]
            return before if cls - before <= after - cls else after
        classes.insert(lo, cls)
        return cls

    @property
    def n_logs(self) -> int:
        return max(1, len(self._classes))

    # -- placement -----------------------------------------------------

    def route_user(self, page_id: int) -> int:
        cls = self._class_of(self._freq(page_id))
        self._last_class = cls
        return cls

    def route_user_batch(self, page_ids: np.ndarray) -> None:
        # A write's class depends on the clock it lands at and on the
        # classes the writes before it created: routing is per write.
        return None

    def place_gc_batch(
        self, page_ids: np.ndarray, src_segs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self.exact:
            # Exact frequencies are authoritative; survivors rejoin the
            # class they actually belong to.  Reclassifying can create
            # a class mid-batch, so it goes page by page.
            streams = [self._class_of(self._freq(pid)) for pid in page_ids.tolist()]
            return page_ids, np.asarray(streams, dtype=np.int64)
        # Estimated variant: survivors of cleaning were, by definition,
        # not updated while their segment filled with garbage — they are
        # colder than their log assumed.  Demote each one to the next
        # colder class than its source segment's: the gradual hot-to-cold
        # migration of the multi-log design.
        if not self._classes and page_ids.size:
            # No classes exist yet: the first demotion creates the cold
            # class.
            self._ensure_class(_COLD_CLASS)
        cls_arr = np.asarray(self._classes, dtype=np.int64)
        # bisect_left per source class, one step colder, floored at the
        # coldest (the unassigned sentinel lands there on its own).
        lo = np.searchsorted(cls_arr, self._seg_class[src_segs], side="left")
        return page_ids, cls_arr[np.maximum(lo - 1, 0)]

    def on_segment_open(self, seg: int, stream: int) -> None:
        self._seg_class[seg] = stream

    def state_dict(self) -> dict:
        assigned = np.flatnonzero(self._seg_class != _UNASSIGNED)
        return {
            "classes": list(self._classes),
            "last_class": self._last_class,
            "seg_class": {
                str(int(s)): int(self._seg_class[s]) for s in assigned
            },
        }

    def load_state_dict(self, state: dict) -> None:
        self._classes = [int(c) for c in state["classes"]]
        self._last_class = int(state["last_class"])
        self._seg_class.fill(_UNASSIGNED)
        for k, v in state["seg_class"].items():
            self._seg_class[int(k)] = int(v)

    def min_free_target(self) -> int:
        # One open segment per class can be allocated within a single
        # cleaning cycle; keep headroom for all of them plus slack.
        return max(self.store.config.clean_trigger, self.n_logs + 2)

    # -- victim selection ------------------------------------------------

    #: The fallback ranking (available space) is a pure column function.
    clock_dependent_rank = False

    def rank_columns(self, segs, ids: np.ndarray) -> np.ndarray:
        """Global fallback ranking: most reclaimable space first (used
        when the local neighbourhood has nothing cleanable)."""
        return -(segs.capacity - segs.live_units[ids]).astype(float)

    def decision_columns(self, segs, ids: np.ndarray) -> dict:
        columns = super().decision_columns(segs, ids)
        cls = self._seg_class[ids].astype(np.float64)
        # The unassigned sentinel would dwarf every real class id in the
        # export; map it just below the cold class instead.
        cls[self._seg_class[ids] == _UNASSIGNED] = _COLD_CLASS - 1
        columns["log_class"] = cls
        columns["seal_time"] = segs.seal_time[ids].astype(np.float64)
        return columns

    def select_victims(
        self,
        candidates: Sequence[int],
        n: Optional[int] = None,
        deficit: int = 0,
        page_cap: Optional[int] = None,
    ) -> List[int]:
        """Local-optimal choice among the last-written log and its two
        neighbours; one segment per cycle, whatever the ``deficit`` or
        ``page_cap`` (the store's replenish loop and the incremental
        cleaner run as many cycles as it takes)."""
        segs = self.store.segments
        classes = self._classes
        ids = np.asarray(candidates, dtype=np.int64)
        best: Optional[int] = None
        best_avail = -1
        if classes and ids.size:
            try:
                pos = classes.index(self._last_class)
            except ValueError:
                pos = 0
            neighbourhood = classes[max(0, pos - 1) : pos + 2]
            cand_cls = self._seg_class[ids]
            seal_time = segs.seal_time[ids]
            capacity = segs.capacity
            live_units = segs.live_units
            # Oldest candidate of each neighbourhood class, classes
            # considered in the order the candidate scan first meets
            # them (preserving the original dict-insertion tie order).
            per_class = []
            for cls in neighbourhood:
                members = np.flatnonzero(cand_cls == cls)
                if members.size == 0:
                    continue
                oldest = int(ids[members[np.argmin(seal_time[members])]])
                per_class.append((int(members[0]), oldest))
            per_class.sort()
            for _, seg in per_class:
                avail = capacity - int(live_units[seg])
                if avail > best_avail:
                    best, best_avail = seg, avail
        if best is None or best_avail == 0:
            # Local neighbourhood has nothing reclaimable: fall back to
            # the global greedy pick so the system keeps making progress.
            return super().select_victims(candidates, n=1)
        return [best]
