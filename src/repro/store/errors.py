"""Exceptions raised by the log-structured store simulator."""


class StoreError(Exception):
    """Base class for all simulator errors."""


class ConfigError(StoreError):
    """A :class:`~repro.store.config.StoreConfig` is internally inconsistent.

    Raised eagerly at construction time so that a mis-parameterized
    experiment fails before any simulation work is done.
    """


class OutOfSpaceError(StoreError):
    """The store cannot reclaim enough space to continue writing.

    This indicates either a fill factor of (nearly) 1.0 or a cleaning
    policy that selected victims with no reclaimable space.
    """


class PageSizeError(StoreError):
    """A page write carries an invalid size (non-positive or larger than
    a whole segment)."""


class PageIdError(StoreError):
    """A write or trim names a negative page id (numpy indexing would
    silently alias it onto the tail of the page table)."""
