"""The MDC (Minimum Declining Cost) cleaning policy — the paper's
primary contribution (Sections 4 and 5).

MDC combines three mechanisms:

1. **Victim order** — clean first the segments whose per-page cleaning
   cost is expected to decline the *least* if cleaning waited (the
   Maximality Lemma argument of Section 4.1).  The decline estimate uses
   the two-interval update-frequency estimator ``Upf = 2/(u_now - up2)``
   or, for the ``-opt`` oracle variant, exact page update frequencies.
2. **User-write separation** — user writes pass through a sorting buffer
   and are packed into segments ordered by their frequency proxy, so
   hot and cold pages end up in different segments (Section 5.3,
   Figure 4).
3. **GC-write separation** — relocated pages are likewise sorted by
   their carried frequency estimate before being packed into new
   segments, and are kept apart from fresh user writes.

The ablation variants of Figure 3 are expressed as constructor flags:
``MdcPolicy(separate_user=False)`` is *MDC-no-sep-user*, and
``MdcPolicy(separate_user=False, separate_gc=False)`` is
*MDC-no-sep-user-GC* (identical to greedy except for victim order).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core import sorter
from repro.core.priority import mdc_decline_exact
from repro.policies.base import CleaningPolicy

#: Accepted values for the ``estimator`` argument.
ESTIMATOR_UP2 = "up2"
ESTIMATOR_EXACT = "exact"
#: Single-interval estimator (update period = u_now - up1).  The paper
#: rejects it as "very inaccurate" (Section 4.3); provided for the
#: ablation benchmark.
ESTIMATOR_UP1 = "up1"


class MdcPolicy(CleaningPolicy):
    """Minimum Declining Cost cleaning.

    Args:
        estimator: ``"up2"`` for the paper's two-interval estimator
            (plain *MDC*), ``"exact"`` to use the oracle frequencies
            installed via
            :meth:`repro.store.LogStructuredStore.set_oracle_frequencies`
            (*MDC-opt*).
        separate_user: Sort buffered user writes by frequency before
            packing them into segments.  Requires the store to be
            configured with ``sort_buffer_segments > 0``; with a zero
            buffer this flag has no effect (Figure 4's buffer=0 point).
        separate_gc: Sort relocated pages by frequency before packing.
    """

    uses_sort_buffer = True

    def __init__(
        self,
        estimator: str = ESTIMATOR_UP2,
        separate_user: bool = True,
        separate_gc: bool = True,
    ) -> None:
        super().__init__()
        if estimator not in (ESTIMATOR_UP2, ESTIMATOR_EXACT, ESTIMATOR_UP1):
            raise ValueError("unknown estimator %r" % (estimator,))
        self.estimator = estimator
        self.separate_user = separate_user
        self.separate_gc = separate_gc
        self.uses_sort_buffer = separate_user
        # The exact-frequency variant ranks purely from segment columns
        # (freq_sum replaces the clock-anchored estimator), so its
        # priorities are cacheable per segment epoch.
        self.clock_dependent_rank = estimator != ESTIMATOR_EXACT
        self._factors: Optional[np.ndarray] = None
        self.name = self._derive_name()

    def _derive_name(self) -> str:
        if self.estimator == ESTIMATOR_EXACT:
            base = "mdc-opt"
        elif self.estimator == ESTIMATOR_UP1:
            base = "mdc-up1"
        else:
            base = "mdc"
        if self.separate_user and self.separate_gc:
            return base
        if self.separate_gc:
            return base + "-no-sep-user"
        if not self.separate_user:
            return base + "-no-sep-user-gc"
        return base + "-no-sep-gc"

    # -- placement -----------------------------------------------------

    def _keys(self, page_ids: Sequence[int]) -> np.ndarray:
        pages = self.store.pages
        if self.estimator == ESTIMATOR_EXACT:
            return sorter.oracle_keys(pages, page_ids)
        return sorter.up2_keys(pages, page_ids)

    def user_sort_key(self, page_ids: Sequence[int]) -> Optional[Sequence[float]]:
        if not self.separate_user:
            return None
        return self._keys(page_ids)

    def place_gc_batch(
        self, page_ids: np.ndarray, src_segs: np.ndarray
    ) -> Tuple[np.ndarray, None]:
        if self.separate_gc and len(page_ids) > 1:
            # Coldest first, ties in collection order.
            order = self._keys(page_ids).argsort(kind="stable")
            page_ids = page_ids[order]
        return page_ids, None

    # -- victim selection ------------------------------------------------

    def rank_columns(self, segs, ids: np.ndarray) -> np.ndarray:
        """:func:`~repro.core.priority.mdc_decline` (``-opt``:
        :func:`~repro.core.priority.mdc_decline_exact`), bit for bit.

        The clock-anchored form runs once per cleaning cycle over every
        sealed segment, so its clock-free factor is cached:
        ``((B - A) / A)**2`` depends only on the live units ``B - A``, an
        integer in ``[0, B]``, so :meth:`_decline_factors` holds it for
        every value, with both edges folded in.  A ranking is then one
        gather of that factor, ``max(u_now - up2, 1)`` and one
        multiply-divide, in the order ``mdc_decline`` takes them.
        """
        if self.estimator == ESTIMATOR_EXACT:
            capacity = segs.capacity
            avail = capacity - segs.live_units[ids]
            count = segs.live_count[ids]
            return mdc_decline_exact(avail, count, capacity, segs.freq_sum[ids])
        anchor = segs.up1 if self.estimator == ESTIMATOR_UP1 else segs.up2
        factors = self._decline_factors(segs.capacity)
        age = self.store.clock - anchor[ids]
        np.maximum(age, 1.0, out=age)
        age *= segs.live_count[ids]
        return np.divide(factors[segs.live_units[ids]], age, out=age)

    def _decline_factors(self, capacity: int) -> np.ndarray:
        """``((B - A) / A)**2`` per live-unit count ``B - A`` in
        ``[0, B]``: ``mdc_decline``'s ratio, squared by the same IEEE
        operations (``B - A`` in floats is the live units exactly).

        The edges are the factor's own.  At ``B - A == B`` (``A == 0``)
        it is ``+inf``, and ``+inf / (C * age)`` is ``+inf`` for the
        ``C >= 1`` live pages such a segment holds.  At ``B - A == 0``
        it is ``-inf``: a page takes at least one unit, so no live units
        means ``C == 0``, and ``-inf / (0 * age)`` is ``-inf`` without a
        floating-point flag (``age`` is finite: ``up1`` / ``up2`` are
        clock values and their averages)."""
        factors = self._factors
        if factors is None or factors.size != capacity + 1:
            live = np.arange(capacity + 1)
            with np.errstate(divide="ignore"):
                ratio = live / (capacity - live)
            factors = ratio * ratio
            factors[0] = -np.inf
            self._factors = factors
        return factors

    def decision_columns(self, segs, ids: np.ndarray) -> dict:
        columns = super().decision_columns(segs, ids)
        # The score *is* the decline estimate; name it so traces read in
        # the paper's vocabulary.
        columns["decline"] = columns["score"]
        if self.estimator == ESTIMATOR_EXACT:
            columns["freq_sum"] = segs.freq_sum[ids].copy()
        elif self.estimator == ESTIMATOR_UP1:
            columns["age_since_update"] = self.store.clock - segs.up1[ids]
        else:
            columns["age_since_update"] = self.store.clock - columns["up2"]
        return columns

    def describe(self) -> str:
        return "%s (estimator=%s, sep_user=%s, sep_gc=%s)" % (
            self.name,
            self.estimator,
            self.separate_user,
            self.separate_gc,
        )
