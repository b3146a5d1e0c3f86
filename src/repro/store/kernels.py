"""The store's serial kernels, in plain numpy/python.

The vectorized write engine spends most of its non-numpy time in three
places: *run folding* (``prev_occurrence`` — mapping each write in a
batch to the previous write of the same page), *victim scoring*
(``ascending_prefix`` — the partial stable argsort behind
``select_victims``), and the strict left-to-right float folds
(``fold_add`` and its per-segment form ``fold_rows``, and
``fold_midpoints`` for the buffered midpoint rule) that keep batch
execution bit-identical to the scalar path.  Two sorts stand in for
numpy's stable ones on the write path: ``stable_order`` (grouping a
batch by page or by segment) and ``order_by`` (the Section 5.3 drain
sort).  From ``_SORT_GATE`` entries each sorts distinct int64 keys —
a value with its position folded into the low bits — with numpy's
default sort, which is SIMD and unstable but cannot reorder what never
ties, so the permutation is the stable one.

The contract is **bit-identity** with the scalar write loop: each kernel
performs the same IEEE-754 operations in the same order the scalar path
would, and each sort returns the permutation its stable reference
returns, so the differential oracle and the trace state digests cannot
tell batch from scalar execution.  ``tests/store/test_kernels.py``
fuzzes each against a brute-force oracle or its numpy reference.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ascending_prefix",
    "fold_add",
    "fold_midpoints",
    "fold_rows",
    "kernel_info",
    "order_by",
    "prev_occurrence",
    "stable_order",
]

#: Below this many values the float fold runs as a plain Python loop —
#: identical adds, no temporary array, faster for the short runs the
#: write engine mostly sees.
_FOLD_LOOP_MAX = 32

#: Below this many rewrites the midpoint fold runs as one Python loop
#: (a service flush carries about ten); at or above it, occurrence
#: ranks are folded as arrays while at least ``_MIDPOINT_RANK_MIN``
#: pages take part, and the loop takes only the hot pages' tail.
_MIDPOINT_LOOP_MAX = 64
_MIDPOINT_RANK_MIN = 16

#: From this many entries ``stable_order`` and ``order_by`` sort
#: distinct int64 keys with numpy's default (SIMD) sort; below it the
#: stable sorts are as fast.  At 768 entries a stable int64 argsort
#: still wins (10.8 against 13.9 us), at 1,024 the key sort does (15.7
#: against 19.6 us); DESIGN.md, "Sorting a batch", has the rest.
_SORT_GATE = 1024


def kernel_info() -> dict:
    """Provenance block for benchmark artifacts.  The shape is fixed:
    ``benchmarks/stack`` records it as ``env.kernels`` and refuses to
    compare runs whose blocks differ."""
    return {"mode": "auto", "active": "python", "have_numba": False}


def stable_order(values: np.ndarray) -> np.ndarray:
    """``values.argsort(kind="stable")`` for an integer array.

    From ``_SORT_GATE`` entries, unless ``values`` is already in order
    (then the identity is the answer), each value is shifted left past
    its position's bits and its position is or-ed in: the keys are
    distinct, so numpy's default sort orders them as a stable sort
    orders ``(value, position)``, and the low bits of the sorted keys
    are the permutation.  A negative value or one too large to shift
    takes the stable sort."""
    n = values.size
    # Method calls, not the np.* wrappers: this runs several times per
    # batch, where each wrapper's dispatch costs more than the work.
    if n < _SORT_GATE:
        return values.argsort(kind="stable")
    if (values[1:] >= values[:-1]).all():
        return np.arange(n)
    shift = (n - 1).bit_length()
    if values.min() < 0 or int(values.max()) >= 1 << (63 - shift):
        return values.argsort(kind="stable")
    keys = values.astype(np.int64)
    keys <<= shift
    keys |= np.arange(n)
    keys.sort()
    keys &= (1 << shift) - 1
    return keys


def order_by(keys: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``np.lexsort((ids, keys))``: ascending ``keys``, ties by ``ids``,
    then by position.

    From ``_SORT_GATE`` entries the keys are replaced by their ranks
    (equal keys, ``-0.0`` and ``0.0`` among them, share one), and
    ``rank * span + id`` with the position in its low bits is sorted as
    one distinct int64, as :func:`stable_order` does.  Keys that all tie
    (a drain of first writes) need no float sort: the order is
    ``stable_order(ids)``.  A NaN key, or ranks and ids too wide for
    one int64, take ``lexsort``."""
    n = keys.size
    if n < _SORT_GATE:
        return np.lexsort((ids, keys))
    if (keys == keys[0]).all():
        return stable_order(ids)
    by_key = keys.argsort()
    sorted_keys = keys[by_key]
    lo = int(ids.min())
    span = int(ids.max()) - lo + 1
    shift = (n - 1).bit_length()
    if sorted_keys[-1] != sorted_keys[-1] or n * span > 1 << (63 - shift):
        return np.lexsort((ids, keys))
    ranks = np.empty(n, dtype=np.int64)
    ranks[0] = 0
    (sorted_keys[1:] != sorted_keys[:-1]).cumsum(out=ranks[1:])
    combined = np.empty(n, dtype=np.int64)
    combined[by_key] = ranks
    combined *= span
    combined += ids
    combined -= lo
    combined <<= shift
    combined |= np.arange(n)
    combined.sort()
    combined &= (1 << shift) - 1
    return combined


def prev_occurrence(pids: np.ndarray) -> np.ndarray:
    """For each batch position, the previous position holding the same
    page id (-1 if none).  One stable sort for the whole batch."""
    prev = np.empty(pids.size, dtype=np.int64)
    prev.fill(-1)
    order = stable_order(pids)
    sorted_pids = pids[order]
    rep = (sorted_pids[1:] == sorted_pids[:-1]).nonzero()[0]
    prev[order[rep + 1]] = order[rep]
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
    return float(tmp.cumsum()[-1])


def fold_rows(
    current: np.ndarray, values: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """:func:`fold_add` per row: row ``r`` folds the next ``counts[r]``
    entries of ``values`` (rows back to back) onto ``current[r]``.

    A short fold is one Python loop.  Otherwise the rows sit
    left-aligned in one zero-padded grid behind their start values, and
    one ``cumsum`` along the rows accumulates each strictly left to
    right; a row's result is read at its own length, so the padding
    never takes part."""
    if values.size <= 2 * _FOLD_LOOP_MAX:
        out = current.tolist()
        vals = values.tolist()
        pos = 0
        for r, count in enumerate(counts.tolist()):
            acc = out[r]
            for v in vals[pos : pos + count]:
                acc += v
            out[r] = acc
            pos += count
        return np.asarray(out, dtype=np.float64)
    rows = counts.size
    grid = np.zeros((rows, int(counts.max()) + 1), dtype=np.float64)
    grid[:, 0] = current
    starts = counts.cumsum() - counts
    row = np.arange(rows).repeat(counts)
    col = np.arange(1, values.size + 1) - starts.repeat(counts)
    grid[row, col] = values
    grid.cumsum(axis=1, out=grid)
    return grid[np.arange(rows), counts]


def fold_midpoints(
    carried: np.ndarray,
    pids: np.ndarray,
    clocks: np.ndarray,
    distinct: bool = False,
) -> None:
    """Apply the buffered midpoint rule ``c <- c + 0.5 * (clock - c)`` to
    ``carried[pid]`` once per ``(pid, clock)`` pair, per page in position
    order (a repeat compounds on its previous occurrence's result), in
    place.  NaN estimates (first writes not yet placed) stay NaN.

    ``distinct`` says no page id repeats: the rule is then one array
    expression (the same IEEE operations; a NaN propagates bit for bit).

    A page's ``r``-th occurrence depends only on its ``r-1``-th, so the
    ``r``-th occurrences of all pages are one array step, taken while
    at least ``_MIDPOINT_RANK_MIN`` pages have one; each page's
    remaining occurrences are one tight loop.  Every page sees the same
    IEEE operations in the same order as the scalar loop.
    """
    if distinct:
        c = carried[pids]
        carried[pids] = c + 0.5 * (clocks - c)
        return
    n = pids.size
    if n < _MIDPOINT_LOOP_MAX:
        pid_list = pids.tolist()
        vals = dict(zip(pid_list, carried[pids].tolist()))
        for pid, clk in zip(pid_list, clocks.tolist()):
            c = vals[pid]
            if c == c:  # not NaN
                vals[pid] = c + 0.5 * (clk - c)
        carried[list(vals)] = list(vals.values())
        return
    order = stable_order(pids)
    sp = pids[order]
    edges = np.concatenate(([0], (sp[1:] != sp[:-1]).nonzero()[0] + 1, [n]))
    starts = edges[:-1]
    sizes = edges[1:] - starts
    # Most occurrences first, so the pages with an r-th one are a prefix.
    most = (-sizes).argsort(kind="stable")
    starts = starts[most]
    sizes = sizes[most]
    upids = sp[starts]
    vals = carried[upids]
    known = vals == vals
    sclk = clocks[order].astype(np.float64)
    ranks = 0
    if sizes.size >= _MIDPOINT_RANK_MIN:
        ranks = int(sizes[_MIDPOINT_RANK_MIN - 1])
        taking = (-sizes).searchsorted(-np.arange(ranks), side="left")
        for r, m in enumerate(taking.tolist()):
            v = vals[:m]
            v += 0.5 * (sclk[starts[:m] + r] - v)
    hot = int(np.count_nonzero(sizes > ranks))
    if hot:
        cl = sclk.tolist()
        out = vals[:hot].tolist()
        lows = (starts[:hot] + ranks).tolist()
        highs = (starts[:hot] + sizes[:hot]).tolist()
        for i, (lo, hi) in enumerate(zip(lows, highs)):
            c = out[i]
            for clk in cl[lo:hi]:
                c = c + 0.5 * (clk - c)
            out[i] = c
        vals[:hot] = out
    carried[upids[known]] = vals[known]


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
        return priorities.argsort(kind="stable")
    cut = np.partition(priorities, need - 1)[need - 1]
    if cut != cut:
        # A NaN (they partition last) landed in the selected prefix, so
        # the cut is undefined.
        return priorities.argsort(kind="stable")
    # Method calls, not the np.* wrappers: this runs once per cleaning
    # cycle, where each wrapper's dispatch costs more than the work.
    eligible = (priorities <= cut).nonzero()[0]
    return eligible[priorities[eligible].argsort(kind="stable")]
