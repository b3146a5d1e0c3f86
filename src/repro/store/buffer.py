"""The user-write sorting buffer (paper Section 5.3 and Figure 4).

MDC separates data by update frequency by *sorting* pending page writes by
their ``up2`` estimate before packing them into segments, so consecutive
segments receive pages of similar hotness.  The buffer is RAM: it holds
page ids (the simulator never materializes contents) and does not consume
device segments.

The page table is the only record of which pages are buffered and how
large they are (``seg == IN_BUFFER``, ``size``).  The buffer adds what the
table cannot hold: the occupancy it is capacity-checked against, a page
count, and an append-only log of page ids in arrival order.  A rewrite of
a buffered page keeps its place — the buffer always holds at most one (the
latest) version of a page, so buffered pages never create garbage in
segments — and appends nothing; a page trimmed and written again is
logged again.  The buffer's order is therefore the last log entry of every
id still ``IN_BUFFER``.
"""

from __future__ import annotations

import numpy as np

from repro.store.pagetable import IN_BUFFER, PageTable


class SortBuffer:
    """Accumulates user page writes until ``capacity_units`` worth arrive.

    The store drains the buffer (via its flush path) when an add would
    overflow, and keeps the page table's ``IN_BUFFER`` marks; the buffer
    only tracks occupancy and arrival order.
    """

    __slots__ = ("capacity_units", "used_units", "_pages", "_count", "_log", "_n")

    def __init__(self, capacity_units: int, pages: PageTable) -> None:
        if capacity_units < 1:
            raise ValueError("capacity_units must be positive")
        self.capacity_units = capacity_units
        self.used_units = 0
        self._pages = pages
        #: Buffered pages (== pages marked IN_BUFFER).
        self._count = 0
        #: Arrival log: ``_log[:_n]``.  Every add needs room, so at most
        #: ``capacity_units`` ids are buffered at once and a log twice
        #: that size compacts at most once per ``capacity_units`` adds.
        self._log = np.empty(2 * capacity_units, dtype=np.int64)
        self._n = 0

    def __len__(self) -> int:
        return self._count

    def __contains__(self, page_id: int) -> bool:
        seg = self._pages.seg
        return 0 <= page_id < seg.size and seg[page_id] == IN_BUFFER

    def fits(self, size: int) -> bool:
        """Whether ``size`` more units fit without overflowing."""
        return self.used_units + size <= self.capacity_units

    def add(self, page_id: int, size: int) -> None:
        """Log a page that is not buffered yet; the caller checked
        :meth:`fits` and marks it ``IN_BUFFER``."""
        if self._n == self._log.size:
            self._compact()
        self._log[self._n] = page_id
        self._n += 1
        self._count += 1
        self.used_units += size

    def add_run(self, page_ids: np.ndarray, units: int) -> None:
        """Log a run's new pages (distinct, not buffered yet, in arrival
        order) and change occupancy by ``units``, the run's net size
        change including its rewrites of buffered pages."""
        k = page_ids.size
        if self._n + k > self._log.size:
            self._compact()
        self._log[self._n : self._n + k] = page_ids
        self._n += k
        self._count += k
        self.used_units += units

    def replace(self, page_id: int, size: int) -> None:
        """A buffered page is rewritten at ``size``; call before the page
        table's size changes."""
        self.used_units += size - int(self._pages.size[page_id])

    def remove(self, page_id: int) -> None:
        """Discard a buffered page (TRIM of a not-yet-persisted write);
        call before the page table forgets it."""
        self.used_units -= int(self._pages.size[page_id])
        self._count -= 1

    def order(self) -> np.ndarray:
        """The buffered page ids in arrival order."""
        log = self._log[: self._n]
        if self._n == self._count:
            # Nothing was trimmed since the last drain: one entry a page.
            return log.copy()
        _, back = np.unique(log[::-1], return_index=True)
        last = log.size - 1 - back
        last = np.sort(last[self._pages.seg[log[last]] == IN_BUFFER])
        return log[last]

    def drain(self) -> np.ndarray:
        """Empty the buffer; returns the page ids it held, in arrival
        order (the page table still marks them ``IN_BUFFER``)."""
        pids = self.order()
        self._n = self._count = self.used_units = 0
        return pids

    def _compact(self) -> None:
        live = self.order()
        self._log[: live.size] = live
        self._n = live.size
