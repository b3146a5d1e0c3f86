"""The incremental victim-selection index.

Covers the three pieces the index is built from: the column-based
ranking protocol (``rank_columns`` over many candidates must agree with
ranking them one at a time — the purity the epoch cache relies on), the
partial-order shortcut (``_ascending_prefix`` must be an exact
prefix of the full stable argsort), and the epoch-keyed priority cache
(stale entries re-score, fresh ones don't).  Plus the selection rule
that a segment with nothing reclaimable is never picked.
"""

import numpy as np
import pytest

from repro.policies import available_policies, make_policy
from repro.policies.base import _ascending_prefix
from repro.store import LogStructuredStore, StoreConfig
from repro.store.segments import SEALED


def _driven_store(policy_name, seed=9):
    cfg = StoreConfig(
        n_segments=48,
        segment_units=16,
        fill_factor=0.7,
        clean_trigger=3,
        clean_batch=3,
    )
    store = LogStructuredStore(cfg, make_policy(policy_name))
    if policy_name.endswith("-opt"):
        store.set_oracle_frequencies(
            np.linspace(0.001, 0.2, cfg.user_pages).tolist()
        )
    store.load_sequential(cfg.user_pages)
    rng = np.random.default_rng(seed)
    store.write_batch(rng.integers(0, cfg.user_pages, size=2000).astype(np.int64))
    return store


def _sealed_ids(store):
    return np.flatnonzero(store.segments.state == SEALED).astype(np.int64)


@pytest.mark.parametrize("policy_name", available_policies())
def test_rank_columns_agrees_with_rank(policy_name):
    store = _driven_store(policy_name)
    ids = _sealed_ids(store)
    assert ids.size > 0
    via_columns = np.asarray(
        store.policy.rank_columns(store.segments, ids), dtype=float
    )
    via_scalar = np.concatenate(
        [
            np.asarray(
                store.policy.rank_columns(store.segments, ids[i : i + 1]),
                dtype=float,
            )
            for i in range(ids.size)
        ]
    )
    np.testing.assert_array_equal(via_columns, via_scalar)


@pytest.mark.parametrize("policy_name", ["greedy", "cost-benefit-paper"])
def test_fully_live_segments_never_selected(policy_name):
    """A == 0 means cleaning reclaims nothing; such segments must never
    land in a victim batch — even under cost-benefit-paper, whose
    ranking puts emptiness-zero segments at -inf (first in order)."""
    store = _driven_store(policy_name)
    segs = store.segments
    ids = _sealed_ids(store)
    full = ids[segs.live_units[ids] == segs.capacity]
    victims = store.policy.select_victims(ids.tolist(), n=len(ids))
    assert victims, "driven store should have something reclaimable"
    assert not set(victims) & set(full.tolist())
    for v in victims:
        assert segs.live_units[v] < segs.capacity


def test_nothing_reclaimable_returns_empty():
    cfg = StoreConfig(
        n_segments=16,
        segment_units=8,
        fill_factor=0.6,
        clean_trigger=2,
        clean_batch=2,
    )
    store = LogStructuredStore(cfg, make_policy("greedy"))
    store.load_sequential(cfg.user_pages)
    ids = _sealed_ids(store)
    fully_live = ids[store.segments.live_units[ids] == store.segments.capacity]
    assert store.policy.select_victims(fully_live.tolist()) == []


@pytest.mark.parametrize("seed", range(6))
def test_ascending_prefix_is_exact_argsort_prefix(seed):
    rng = np.random.default_rng(seed)
    n = 500
    # Few distinct values -> plenty of ties, the stable-order hazard.
    priorities = rng.integers(0, 12, size=n).astype(np.float64)
    priorities[rng.integers(0, n, size=20)] = np.inf
    full = np.argsort(priorities, kind="stable")
    for need in (1, 3, 10, 40, n):
        prefix = _ascending_prefix(priorities, need)
        assert prefix.size >= min(need, n)
        np.testing.assert_array_equal(prefix, full[: prefix.size])


def test_ascending_prefix_handles_nan():
    priorities = np.array([3.0, np.nan, 1.0] * 50)
    full = np.argsort(priorities, kind="stable")
    prefix = _ascending_prefix(priorities, 2)
    np.testing.assert_array_equal(prefix, full[: prefix.size])


def test_priority_cache_rescoring():
    """The epoch cache serves unchanged segments from memory and
    re-scores exactly the segments whose epoch moved."""
    store = _driven_store("greedy")
    policy = store.policy
    assert not policy.clock_dependent_rank
    ids = _sealed_ids(store)

    first = policy._ranked_priorities(ids).copy()
    np.testing.assert_array_equal(
        first, np.asarray(policy.rank_columns(store.segments, ids), dtype=float)
    )

    # Cached call: same answer without any epoch movement.
    np.testing.assert_array_equal(policy._ranked_priorities(ids), first)

    # Invalidate pages in one sealed segment; only it may change.
    target = int(ids[np.argmax(store.segments.live_count[ids])])
    pages = store.pages.live_pages_of(store.segments, target)[:3]
    assert pages
    for pid in pages:
        store.trim(pid)
    ids_after = _sealed_ids(store)
    refreshed = policy._ranked_priorities(ids_after)
    np.testing.assert_array_equal(
        refreshed,
        np.asarray(policy.rank_columns(store.segments, ids_after), dtype=float),
    )
    moved = int(np.flatnonzero(ids_after == target)[0])
    stale_before = float(first[np.flatnonzero(ids == target)[0]])
    assert refreshed[moved] != stale_before
