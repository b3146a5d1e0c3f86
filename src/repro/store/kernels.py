"""The store's five serial kernels, in plain numpy/python.

The vectorized write engine spends most of its non-numpy time in two
places: *run folding* (``prev_occurrence`` — mapping each write in a
batch to the previous write of the same page) and *victim scoring*
(``ascending_prefix`` — the partial stable argsort behind
``select_victims``), plus the strict left-to-right float folds
(``fold_add`` and its per-segment form ``fold_rows``, and
``fold_midpoints`` for the buffered midpoint rule)
that keep batch execution bit-identical to the scalar path.

The contract is **bit-identity** with the scalar write loop: each kernel
performs the same IEEE-754 operations in the same order the scalar path
would, so the differential oracle and the trace state digests cannot
tell batch from scalar execution.  ``tests/store/test_kernels.py``
fuzzes each against a brute-force oracle.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ascending_prefix",
    "fold_add",
    "fold_midpoints",
    "fold_rows",
    "kernel_info",
    "prev_occurrence",
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


def kernel_info() -> dict:
    """Provenance block for benchmark artifacts.  The shape is fixed:
    ``benchmarks/stack`` records it as ``env.kernels`` and refuses to
    compare runs whose blocks differ."""
    return {"mode": "auto", "active": "python", "have_numba": False}


def prev_occurrence(pids: np.ndarray) -> np.ndarray:
    """For each batch position, the previous position holding the same
    page id (-1 if none).  One stable argsort for the whole batch."""
    prev = np.empty(pids.size, dtype=np.int64)
    prev.fill(-1)
    # Method calls, not the np.* wrappers: this runs once per batch,
    # where each wrapper's dispatch costs more than the work.
    order = pids.argsort(kind="stable")
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
    order = pids.argsort(kind="stable")
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
