"""The cleaning-policy protocol.

A policy makes the two decisions the paper studies, and only those:

1. **Placement** — which open segment (stream) each page write goes to,
   and whether/how batches of writes are sorted by update frequency
   before packing (``route_user_batch`` / ``user_sort_key`` /
   ``place_gc_batch``).
2. **Victim selection** — which sealed segments to clean next
   (``rank_columns``, which ``select_victims`` turns into a batch).

Everything mechanical (page table, space accounting, sealing, the
cleaning cycle itself) lives in the store, so policies stay small and
directly comparable — exactly the paper's experimental methodology.

The hooks take and return arrays.  ``route_user_batch`` and
``place_gc_batch`` see a whole run of page ids at once, and
``rank_columns(segs, ids)`` computes priorities directly from the
:class:`~repro.store.segments.SegmentTable` columns with fancy indexing,
so a new placement or ranking rule is one method over columns.  The one
per-page hook is ``route_user``: a policy whose routing depends on the
effects of the preceding write (multi-log's lazily created frequency
classes) returns ``None`` from ``route_user_batch`` and is then asked
page by page.  Policies whose priority does not reference the moving
clock declare ``clock_dependent_rank = False`` and get per-segment
priority caching for free: the store's segment ``epoch`` counter marks
which segments changed since the last cleaning cycle, and only those are
re-scored.
"""

from __future__ import annotations

import abc
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.store.kernels import ascending_prefix
from repro.store.log_store import LogStructuredStore
from repro.store.segments import SegmentTable

#: Candidate-count multiple above which ``select_victims`` switches from
#: a full sort to an ``np.partition`` cut of the needed prefix.  The cut
#: (five numpy calls) beats one stable ``argsort`` from about 512
#: candidates: on a 2-CPU x86 box, best of 5 x 200 warm calls with a
#: prefix of 24-72, the sort wins up to 384 (9.3 against 11.1 us), the
#: two meet at 448-512 (11-13 us) and the cut wins from 640 (12.0
#: against 14.2 us; 12.7 against 17.6 at 768).  Below that size the cut
#: loses at most ~2 us a cycle, so no second threshold is kept.
_PARTITION_FACTOR = 4
#: Order entries a selection asks for, per batch slot plus segment of
#: reclaim target: a batch that reclaims a quarter segment per victim
#: fits before the full sort fallback.  Stack-benchmark runs at seed 0,
#: ``--seconds 4``, took at most 0.9x that sum on ``svc-ingest-zipf``,
#: 2.0x on ``sim-mdc-zipf`` and 3.6x on ``svc-clean-uniform`` (a drain
#: at fill 0.9, no page cap).
_ORDER_SLACK = 4


class _Selection(NamedTuple):
    """What :meth:`CleaningPolicy.select_victims` last took: the victims,
    the clock and their epochs when it took them, and the priorities it
    ranked by with each victim's index into them."""

    victims: List[int]
    clock: int
    epochs: List[int]
    priorities: np.ndarray
    positions: List[int]


class CleaningPolicy(abc.ABC):
    """Base class for cleaning policies.

    Subclasses usually only implement :meth:`rank_columns`; the default
    :meth:`select_victims` turns the ranking into a victim batch with a
    net-space-gain guarantee.
    """

    #: Registry name; subclasses override.
    name = "abstract"
    #: Whether user writes should pass through the store's sorting buffer
    #: (only the frequency-separating MDC variants use it).
    uses_sort_buffer = False
    #: Whether :meth:`rank_columns` reads the store clock (or any other
    #: global that moves between cleaning cycles).  When False, the
    #: priority of a segment is a pure elementwise function of its
    #: SegmentTable columns, and select_victims caches it per segment
    #: until the segment's ``epoch`` advances.  The conservative default
    #: (True) disables caching.
    clock_dependent_rank = True

    def __init__(self) -> None:
        self.store: Optional[LogStructuredStore] = None
        self._prio_cache: Optional[np.ndarray] = None
        self._prio_epoch: Optional[np.ndarray] = None
        #: What the last selection took, and what it read of it.
        self._chosen: Optional[_Selection] = None

    def bind(self, store: LogStructuredStore) -> None:
        """Called once by the store's constructor."""
        self.store = store

    # -- placement -----------------------------------------------------

    def route_user(self, page_id: int) -> int:
        """Stream (open segment) for one user write: what the scalar
        ``write`` asks, and so what the batch engine falls back to when
        :meth:`route_user_batch` returns ``None``.  Default: one stream."""
        return 0

    def route_user_batch(self, page_ids: np.ndarray) -> Optional[np.ndarray]:
        """Streams for a batch of user writes (int64, parallel to
        ``page_ids``), or ``None`` when routing must be computed
        write-by-write through :meth:`route_user`.

        The batch write engine calls this once per batch; a non-None
        return promises that routing each page does not depend on the
        effects of the preceding writes in the batch.  Default: one
        stream.
        """
        return np.zeros(len(page_ids), dtype=np.int64)

    def user_sort_key(self, page_ids: Sequence[int]) -> Optional[Sequence[float]]:
        """Sort keys for a drained write-buffer batch; ``None`` keeps the
        arrival order (no frequency separation of user writes)."""
        return None

    def place_gc_batch(
        self, page_ids: np.ndarray, src_segs: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Order and route relocated pages.

        ``src_segs`` is parallel to ``page_ids``: the (already freed)
        segment each page came from, for policies that route survivors by
        their source's properties.  Returns ``(page_ids, streams)`` in
        emission order: a permutation of the input and a parallel int64
        stream array, where ``None`` sends everything to
        :data:`~repro.store.cycle.GC_STREAM`.  Default: keep
        collection order on the dedicated GC stream (standard LFS
        practice — survivors do not mix with fresh user writes in the
        same segment).
        """
        return page_ids, None

    def on_segment_open(self, seg: int, stream: int) -> None:
        """Notification that ``seg`` became the open segment of
        ``stream``; policies that tag segments (multi-log) override."""

    def min_free_target(self) -> int:
        """Free-segment level cleaning must restore.

        At least the configured trigger; policies that write through many
        streams (multi-log) need headroom for one open segment per
        stream so a single cleaning cycle cannot exhaust the reserve.
        """
        return self.store.config.clean_trigger

    # -- victim selection ------------------------------------------------

    @abc.abstractmethod
    def rank_columns(self, segs: SegmentTable, ids: np.ndarray) -> np.ndarray:
        """Priority per candidate, computed from the segment-table
        columns; lower = clean earlier.  ``ids`` is an int64 array.

        When ``clock_dependent_rank`` is False this must be an
        elementwise-pure function of the columns: segment ``s``'s
        priority may depend only on values indexed by ``s`` (the epoch
        cache re-scores segments individually).
        """

    def decision_columns(self, segs: SegmentTable, ids: np.ndarray) -> dict:
        """The ranking context behind a victim choice, one array per
        named quantity, parallel to ``ids``.

        This is what decision tracing exports so "why this segment?" is
        answerable after the fact.  Every policy shares the base set —
        available space ``A``, live count ``C``, the segment's second
        last update ``up2``, and the policy's own priority ``score``
        (lower = cleaned earlier) — and subclasses append the inputs
        specific to their formula (MDC's decline estimate, cost-benefit's
        age, multi-log's class, ...).

        The score of the batch :meth:`select_victims` just took is the
        one it was ranked by, taken from the priorities the selection
        kept (elementwise float ops are position-independent, so it
        equals a re-evaluation bit for bit); any other ``ids``, a moved
        clock or a changed segment is ranked afresh.
        """
        chosen = self._chosen
        if (
            chosen is not None
            and chosen.clock == self.store.clock
            and chosen.victims == ids.tolist()
            and chosen.epochs == segs.epoch[ids].tolist()
        ):
            score = chosen.priorities.take(chosen.positions)
        else:
            score = np.asarray(self.rank_columns(segs, ids), dtype=float)
        return {
            "A": (segs.capacity - segs.live_units[ids]).astype(np.float64),
            "C": segs.live_count[ids].astype(np.float64),
            "up2": segs.up2[ids],
            "score": score,
        }

    def _ranked_priorities(self, ids: np.ndarray) -> np.ndarray:
        """Priorities for ``ids``, through the epoch cache when the
        ranking is cacheable."""
        segs = self.store.segments
        if self.clock_dependent_rank:
            return np.asarray(self.rank_columns(segs, ids), dtype=float)
        cache = self._prio_cache
        if cache is None or cache.size < len(segs):
            n = len(segs)
            self._prio_cache = cache = np.zeros(n, dtype=np.float64)
            self._prio_epoch = np.full(n, -1, dtype=np.int64)
        seen = self._prio_epoch
        epochs = segs.epoch[ids]
        stale = seen[ids] != epochs
        if stale.any():
            stale_ids = ids[stale]
            cache[stale_ids] = np.asarray(
                self.rank_columns(segs, stale_ids), dtype=float
            )
            seen[stale_ids] = epochs[stale]
        return cache[ids]

    def select_victims(
        self,
        candidates: Sequence[int],
        n: Optional[int] = None,
        deficit: int = 0,
        page_cap: Optional[int] = None,
    ) -> List[int]:
        """Pick a victim batch by ascending :meth:`rank_columns`.

        Takes the configured batch size, then keeps extending the batch
        until the reclaimable space in it is at least ``max(1,
        deficit)`` whole segments: one, so a cleaning cycle always makes
        net forward progress, or the free segments a buffer drain still
        lacks (the store's
        :meth:`~repro.store.cycle.CleaningCycle._clean_until_replenished`),
        so one ranking covers the whole drain.  ``page_cap`` bounds that
        extension by the batch's live pages: past the first ``n``
        victims the walk stops before a victim that would lift them over
        the cap.  A governed cleaner step passes its remaining page
        budget, so the cycle it begins is one it can relocate; drains,
        direct writes and the scalar path pass none.  Segments with no
        reclaimable space (``A == 0``, priority ``+inf``) are never
        selected — cleaning one burns an erase and relocates a full
        segment of live pages for zero gain.  Returns an empty list when
        nothing at all is reclaimable.
        """
        store = self.store
        if n is None:
            n = store.config.clean_batch
        ids = np.asarray(candidates, dtype=np.int64)
        if ids.size == 0:
            return []
        need = max(1, deficit) * store.segments.capacity
        priorities = self._ranked_priorities(ids)
        order = _ascending_prefix(priorities, _ORDER_SLACK * (n + max(1, deficit)))
        victims, done = self._take_victims(
            ids, order, priorities, n, need, page_cap
        )
        if order.size < ids.size and not done:
            # The partial order ran out before the batch was satisfied;
            # only the full sort can tell whether more is reclaimable.
            order = priorities.argsort(kind="stable")
            victims, done = self._take_victims(
                ids, order, priorities, n, need, page_cap
            )
        return victims

    def _take_victims(
        self,
        ids: np.ndarray,
        order: np.ndarray,
        priorities: np.ndarray,
        n: int,
        need: int,
        page_cap: Optional[int],
    ) -> Tuple[List[int], bool]:
        """The victims ``order`` yields, and whether the batch was
        complete before the order ran out.

        The walk reads ``order`` in stretches that double, the first
        as long as the batch size plus the reclaim target in segments (a
        batch that reclaims a whole segment per victim ends inside it);
        each stretch's columns are gathered once and walked as lists.
        The victims' epochs, and where their priorities sit, are kept
        for :meth:`decision_columns`."""
        store = self.store
        segs = store.segments
        capacity = segs.capacity
        victims: List[int] = []
        epochs: List[int] = []
        positions: List[int] = []
        reclaim = live = 0
        done = False
        start, stop = 0, n + need // capacity
        while start < order.size and not done:
            stretch = order[start:stop]
            ranked = ids[stretch]
            for pos, seg, used, count, epoch in zip(
                stretch.tolist(),
                ranked.tolist(),
                segs.live_units[ranked].tolist(),
                segs.live_count[ranked].tolist(),
                segs.epoch[ranked].tolist(),
            ):
                avail = capacity - used
                if avail <= 0:
                    continue
                live += count
                # Past the batch size, stop before a victim whose live
                # pages would lift the batch over the cap.
                if page_cap is not None and len(victims) >= n and live > page_cap:
                    done = True
                    break
                victims.append(seg)
                epochs.append(epoch)
                positions.append(pos)
                reclaim += avail
                # Stop after the earliest prefix that satisfies both the
                # batch size and the reclaim target; take everything
                # when the order runs out first.
                if len(victims) >= n and reclaim >= need:
                    done = True
                    break
            start, stop = stop, 3 * stop - 2 * start
        self._chosen = _Selection(victims, store.clock, epochs, priorities, positions)
        return victims, done

    # -- persistence ------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable policy state for store checkpoints.

        The default is empty: most policies keep all their bookkeeping
        in the store's own tables.  Policies with private state
        (multi-log's frequency classes) override both hooks.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore what :meth:`state_dict` produced."""
        if state:
            raise ValueError(
                "%s has no private state but the checkpoint carries %r"
                % (self.name, sorted(state))
            )

    # -- introspection ---------------------------------------------------

    def describe(self) -> str:
        """One-line description used in experiment logs."""
        return self.name

    def __repr__(self) -> str:
        return "<%s policy>" % self.name


def _ascending_prefix(priorities: np.ndarray, need: int) -> np.ndarray:
    """The first ``>= need`` entries of ``argsort(priorities, stable)``
    without sorting everything — the victim-scoring selection, from
    :mod:`repro.store.kernels`."""
    return ascending_prefix(priorities, need, _PARTITION_FACTOR)
