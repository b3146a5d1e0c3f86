"""Log-structured store simulator (the paper's experimental substrate).

Public surface:

* :class:`StoreConfig` — device geometry and cleaning parameters.
* :class:`LogStructuredStore` — the simulator itself.
* :class:`StoreStats` / :class:`WindowStats` — write-amplification
  accounting.
* :data:`GC_STREAM` — the stream id policies use for relocated pages.
"""

from repro.store.buffer import SortBuffer
from repro.store.cleaner import IncrementalCleaner
from repro.store.config import StoreConfig, paper_config
from repro.store.errors import (
    ConfigError,
    OutOfSpaceError,
    PageIdError,
    PageSizeError,
    StoreError,
)
from repro.store.log_store import (
    CleanCursor,
    GC_STREAM,
    LogStructuredStore,
)
from repro.store.pagetable import (
    IN_BUFFER,
    IN_FLIGHT,
    IN_RELOCATION,
    NEVER_WRITTEN,
    PageTable,
)
from repro.store.persistence import PersistenceError, load_store, save_store
from repro.store.reporting import (
    checkerboard,
    describe,
    emptiness_histogram,
    temperature_report,
)
from repro.store.segments import FREE, OPEN, SEALED, SegmentTable
from repro.store.stats import StatsSnapshot, StoreStats, WindowStats

__all__ = [
    "CleanCursor",
    "ConfigError",
    "FREE",
    "GC_STREAM",
    "IN_BUFFER",
    "IN_FLIGHT",
    "IN_RELOCATION",
    "IncrementalCleaner",
    "LogStructuredStore",
    "NEVER_WRITTEN",
    "OPEN",
    "OutOfSpaceError",
    "PageIdError",
    "PageSizeError",
    "PageTable",
    "PersistenceError",
    "load_store",
    "save_store",
    "SEALED",
    "SegmentTable",
    "SortBuffer",
    "StatsSnapshot",
    "StoreConfig",
    "StoreError",
    "StoreStats",
    "WindowStats",
    "checkerboard",
    "describe",
    "emptiness_histogram",
    "temperature_report",
    "paper_config",
]
