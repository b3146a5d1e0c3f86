"""Sorting pages by update frequency (paper Section 5.3).

Cleaning performance improves when pages of similar update frequency are
clustered into the same segments.  MDC achieves this by *sorting* each
batch of pending writes by its frequency proxy before packing the batch
into segments: after sorting, consecutive pages — and therefore
consecutive destination segments — hold pages of similar hotness.

The proxy is ``up2`` for the estimating policies (a *larger* ``up2``
means a more recent penultimate update, i.e. a hotter page) and the exact
update frequency for the ``-opt`` variants.  Only the clustering matters,
not the direction, but we fix "coldest first" so tests can rely on a
deterministic layout.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["up2_keys", "oracle_keys"]


def up2_keys(pages, pids: Sequence[int]) -> np.ndarray:
    """Sort keys that cluster by carried ``up2`` (coldest first).

    ``pages`` is the store's :class:`~repro.store.PageTable`.
    """
    return pages.carried_up2[np.asarray(pids, dtype=np.int64)]


def oracle_keys(pages, pids: Sequence[int]) -> np.ndarray:
    """Sort keys that cluster by exact update frequency (coldest first)."""
    return pages.oracle_freq[np.asarray(pids, dtype=np.int64)]
