"""Protocol conformance: what the store may assume of every registered
policy's array hooks (see :mod:`repro.policies.base`).

The store calls ``place_gc_batch`` at ``clean_begin`` and unpacks two
arrays, calls ``route_user_batch`` once per write batch, and ranks
victims through ``rank_columns``; each policy is checked against those
shapes on a store that has sealed segments, garbage, and (for multi-log)
several frequency classes.
"""

import numpy as np
import pytest

from repro.policies import available_policies, make_policy
from repro.store import LogStructuredStore, StoreConfig


@pytest.fixture(params=available_policies())
def store(request):
    cfg = StoreConfig(
        n_segments=48,
        segment_units=16,
        fill_factor=0.7,
        clean_trigger=3,
        clean_batch=3,
        sort_buffer_segments=1,
    )
    store = LogStructuredStore(cfg, make_policy(request.param))
    n = cfg.user_pages
    if request.param.endswith("-opt"):
        store.set_oracle_frequencies(np.linspace(0.001, 0.2, n).tolist())
    store.load_sequential(n)
    rng = np.random.default_rng(3)
    hot = rng.integers(0, n // 8, size=1500)
    cold = rng.integers(0, n, size=500)
    store.write_batch(rng.permutation(np.concatenate([hot, cold])))
    store.flush()
    return store


def live_pages_and_sources(store, n_segments=4):
    """The live pages of the fullest sealed segments, as ``clean_begin``
    would hand them to ``place_gc_batch``."""
    pids, srcs = [], []
    sealed = store.sealed_segments()
    fullest = np.argsort(-store.segments.live_count[sealed], kind="stable")
    for seg in sealed[fullest[:n_segments]].tolist():
        live = store.pages.live_pages_of(store.segments, seg)
        pids.extend(live)
        srcs.extend([seg] * len(live))
    return np.asarray(pids, dtype=np.int64), np.asarray(srcs, dtype=np.int64)


def test_place_gc_batch_permutes_its_input(store):
    pids, srcs = live_pages_and_sources(store)
    assert pids.size > 1
    placed, streams = store.policy.place_gc_batch(pids, srcs)
    assert isinstance(placed, np.ndarray) and placed.dtype == np.int64
    assert sorted(placed.tolist()) == sorted(pids.tolist())
    if streams is not None:
        assert isinstance(streams, np.ndarray)
        assert streams.dtype == np.int64
        assert streams.shape == placed.shape


def test_place_gc_batch_takes_an_empty_batch(store):
    empty = np.empty(0, dtype=np.int64)
    placed, streams = store.policy.place_gc_batch(empty, empty)
    assert placed.size == 0
    assert streams is None or (streams.dtype == np.int64 and streams.size == 0)


def test_route_user_batch_is_none_or_parallel_int64(store):
    pids = np.arange(40, dtype=np.int64)
    routes = store.policy.route_user_batch(pids)
    if routes is None:
        # Per-write routing: the scalar hook answers instead.
        assert isinstance(store.policy.route_user(0), int)
        assert not store.policy.uses_sort_buffer
    else:
        assert isinstance(routes, np.ndarray)
        assert routes.dtype == np.int64
        assert routes.shape == pids.shape


def test_rank_columns_is_float_and_parallel_to_ids(store):
    ids = store.sealed_segments()
    assert ids.size > 0
    priorities = store.policy.rank_columns(store.segments, ids)
    assert isinstance(priorities, np.ndarray)
    assert priorities.dtype.kind == "f"
    assert priorities.shape == ids.shape
