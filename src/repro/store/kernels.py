"""The store's three serial kernels, in plain numpy/python.

The vectorized write engine spends most of its non-numpy time in two
places: *run folding* (``prev_occurrence`` — mapping each write in a
batch to the previous write of the same page) and *victim scoring*
(``ascending_prefix`` — the partial stable argsort behind
``select_victims``), plus the strict left-to-right float folds
(``fold_add``) that keep batch execution bit-identical to the scalar
path.

The contract is **bit-identity** with the scalar write loop: each kernel
performs the same IEEE-754 operations in the same order the scalar path
would, so the differential oracle and the trace state digests cannot
tell batch from scalar execution.  ``tests/store/test_kernels.py``
fuzzes all three against brute-force oracles.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ascending_prefix", "fold_add", "kernel_info", "prev_occurrence"]

#: Below this many values the float fold runs as a plain Python loop —
#: identical adds, no temporary array, faster for the short runs the
#: write engine mostly sees.
_FOLD_LOOP_MAX = 32


def kernel_info() -> dict:
    """Provenance block for benchmark artifacts.  The shape is fixed:
    ``benchmarks/stack`` records it as ``env.kernels`` and refuses to
    compare runs whose blocks differ."""
    return {"mode": "auto", "active": "python", "have_numba": False}


def prev_occurrence(pids: np.ndarray) -> np.ndarray:
    """For each batch position, the previous position holding the same
    page id (-1 if none).  One stable argsort for the whole batch."""
    n = pids.size
    prev = np.full(n, -1, dtype=np.int64)
    if n > 1:
        order = np.argsort(pids, kind="stable")
        sorted_pids = pids[order]
        idx = np.flatnonzero(sorted_pids[1:] == sorted_pids[:-1]) + 1
        prev[order[idx]] = order[idx - 1]
    return prev


def fold_add(current: float, values: np.ndarray) -> float:
    """``current + v0 + v1 + ...`` as a strict left-to-right float fold —
    bit-identical to a scalar ``+=`` loop (cumsum accumulates in order,
    and so does the small-run Python loop: same IEEE adds, same order).
    """
    n = values.size
    if n <= _FOLD_LOOP_MAX:
        acc = float(current)
        for v in values.tolist():
            acc += v
        return acc
    tmp = np.empty(n + 1, dtype=np.float64)
    tmp[0] = current
    tmp[1:] = values
    return float(np.cumsum(tmp)[-1])


def ascending_prefix(
    priorities: np.ndarray, need: int, partition_factor: int = 4
) -> np.ndarray:
    """The first ``>= need`` entries of ``argsort(priorities, stable)``
    without sorting everything (the victim-scoring selection).

    ``partition`` finds the ``need``-th smallest value; every index
    whose priority is <= that cut is gathered and stable-sorted.
    Anything outside that set has a strictly larger priority, so the
    result is exactly a prefix of the full stable argsort — same
    victims, same tie-breaking, at O(n + k log k).  NaN priorities (and
    small candidate sets, where partitioning cannot win) fall back to
    the full stable sort.
    """
    if need * partition_factor >= priorities.size:
        return np.argsort(priorities, kind="stable")
    cut = np.partition(priorities, need - 1)[need - 1]
    if cut != cut:
        # A NaN (they partition last) landed in the selected prefix, so
        # the cut is undefined.
        return np.argsort(priorities, kind="stable")
    eligible = np.flatnonzero(priorities <= cut)
    return eligible[np.argsort(priorities[eligible], kind="stable")]
