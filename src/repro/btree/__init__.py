"""Page-oriented B+-tree storage engine with an LRU buffer pool.

Substrate for the TPC-C experiment (paper Section 6.3): the buffer
pool's dirty-page write-backs form the I/O trace that the cleaning
simulator replays.
"""

from repro.btree.btree import BPlusTree
from repro.btree.bufferpool import BufferPool, PoolStats
from repro.btree.page import (
    INTERNAL,
    LEAF,
    PAGE_BYTES,
    PAGE_HEADER_BYTES,
    Node,
    entries_per_page,
)

__all__ = [
    "BPlusTree",
    "BufferPool",
    "INTERNAL",
    "LEAF",
    "Node",
    "PAGE_BYTES",
    "PAGE_HEADER_BYTES",
    "PoolStats",
    "entries_per_page",
]
