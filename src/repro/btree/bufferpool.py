"""LRU buffer pool over B+-tree pages.

The paper's TPC-C experiment runs the benchmark "on a B+-tree-based
storage engine" with a buffer cache and replays the resulting *I/O
trace* through the cleaning simulator.  This pool is where that trace is
born: every dirty-page write-back — LRU eviction or checkpoint — appends
the page id to a :class:`~repro.workloads.TraceRecorder`.

The pool holds live node objects; the "disk" is a dict of evicted nodes
(page contents never reach the simulator: only the write *trace*
matters).  Reads of uncached pages count as physical reads (reported in
stats), and the replacement policy is plain LRU.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Dict, Optional

from repro.btree.page import Node
from repro.workloads.trace import TraceRecorder


@dataclasses.dataclass
class PoolStats:
    """Physical I/O counters."""

    misses: int = 0
    evictions: int = 0
    page_writes: int = 0


class BufferPool:
    """Fixed-capacity LRU cache of tree pages with write-back."""

    def __init__(
        self,
        capacity_pages: int,
        recorder: Optional[TraceRecorder] = None,
    ):
        if capacity_pages < 4:
            raise ValueError("capacity_pages must be at least 4")
        self.capacity = capacity_pages
        self.recorder = recorder if recorder is not None else TraceRecorder()
        self.stats = PoolStats()
        self._cached: "OrderedDict[int, Node]" = OrderedDict()
        self._dirty: Dict[int, bool] = {}
        self._disk: Dict[int, Node] = {}
        self._next_page_id = 0

    # -- page lifecycle --------------------------------------------------

    def allocate(self, kind: int) -> Node:
        """Create a brand-new page, cached and dirty."""
        node = Node(self._next_page_id, kind)
        self._next_page_id += 1
        self._admit(node, dirty=True)
        return node

    def get(self, page_id: int) -> Node:
        """Fetch a page, reading it from disk on a miss."""
        node = self._cached.get(page_id)
        if node is not None:
            self._cached.move_to_end(page_id)
            return node
        self.stats.misses += 1
        try:
            node = self._disk.pop(page_id)
        except KeyError:
            raise KeyError("page %d does not exist" % page_id) from None
        self._admit(node, dirty=False)
        return node

    def mark_dirty(self, page_id: int) -> None:
        """Record that a cached page was modified."""
        self._dirty[page_id] = True

    def free(self, page_id: int) -> None:
        """Drop a page entirely (B+-tree page deallocation)."""
        self._cached.pop(page_id, None)
        self._dirty.pop(page_id, None)
        self._disk.pop(page_id, None)

    # -- write-back -------------------------------------------------------

    def checkpoint(self) -> int:
        """Write back every dirty cached page; returns pages written."""
        written = 0
        for page_id in list(self._cached):
            if self._dirty.get(page_id):
                self._write_back(page_id)
                written += 1
        return written

    def flush_all(self) -> None:
        """Checkpoint and then drop the cache (engine shutdown)."""
        self.checkpoint()
        self._disk.update(self._cached)
        self._cached.clear()

    # -- internals ---------------------------------------------------------

    def _admit(self, node: Node, dirty: bool) -> None:
        while len(self._cached) >= self.capacity:
            self._evict_one()
        self._cached[node.page_id] = node
        if dirty:
            self._dirty[node.page_id] = True

    def _evict_one(self) -> None:
        victim = next(iter(self._cached))
        if self._dirty.get(victim):
            self._write_back(victim)
        self._disk[victim] = self._cached.pop(victim)
        self.stats.evictions += 1

    def _write_back(self, page_id: int) -> None:
        self.recorder.record(page_id)
        self.stats.page_writes += 1
        self._dirty[page_id] = False

    # -- introspection -----------------------------------------------------

    @property
    def allocated_pages(self) -> int:
        """Total pages ever allocated (the storage footprint)."""
        return self._next_page_id

    def __repr__(self) -> str:
        return "<BufferPool %d/%d cached, %d allocated, %d writes>" % (
            len(self._cached),
            self.capacity,
            self._next_page_id,
            self.stats.page_writes,
        )
