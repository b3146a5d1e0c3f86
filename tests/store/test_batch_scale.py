"""The write path at batch scale: a golden digest and a batch == scalar
property in the Figure 5 cell's geometry.

``test_golden_digests.py`` drives batches of at most 90 writes into 40
segments, so none of its sorts reaches the size from which
:mod:`repro.store.kernels` sorts distinct int64 keys instead of running
a stable sort (``_SORT_GATE``, 1,024 entries).  Here the sorting buffer
holds 16 segments of 64 units, so a unit-size drain has 1,024 pages, and
the foreground batches carry 4,096 Zipf(0.99) writes with repeats, as
``benchmarks/stack``'s ``sim-mdc-zipf`` does.

* :func:`test_state_matches_the_recorded_digest` pins the state of
  ``mdc`` (buffered: the drain sort, the midpoint fold) and ``greedy``
  (direct: no user sort; first-fit over rolls) after a sequential load
  and a few batches, and replays the same stream through scalar
  ``write`` to the same state.
* :func:`test_batch_matches_scalar_at_scale` draws batch size, skew and
  page sizes, and checks ``write_batch`` against the scalar loop on a
  smaller device with the same buffer.  It is the only digest check of
  the distinct-key sorts; CI's differential-nightly job runs it at
  depth.

The streams come from integer arithmetic only (splitmix64 over a
counter and integer Zipf weights), so the pins do not move with numpy's
samplers.  Re-record with ``python tests/store/test_batch_scale.py``
only when a change means to alter placement.
"""

import copy
import functools

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, example, given, settings

from repro.policies import make_policy
from repro.store import LogStructuredStore, StoreConfig
from repro.testkit.trace import state_digest

#: ``sim-mdc-zipf``'s store: 512 x 64 units, a 16-segment buffer.
CONFIG = StoreConfig(
    n_segments=512,
    segment_units=64,
    fill_factor=0.8,
    clean_trigger=4,
    clean_batch=8,
    sort_buffer_segments=16,
)
BATCH = 4096
BATCHES = 6
SEED = 20210419

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed, count):
    """``count`` 64-bit draws: splitmix64 over a counter."""
    x = np.uint64(seed) + np.arange(1, count + 1, dtype=np.uint64) * _GAMMA
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def zipf_pages(n_pages, theta, count, seed):
    """``count`` page ids, rank ``r`` drawn with weight ~ 1/(r+1)**theta
    (integer weights), hot ranks scattered by a multiplicative stride."""
    weights = np.asarray(
        [int(2.0**40 / (r ** theta)) for r in range(1, n_pages + 1)], dtype=np.int64
    )
    cum = weights.cumsum().astype(np.uint64)
    ranks = cum.searchsorted(splitmix64(seed, count) % cum[-1], side="right")
    return (ranks.astype(np.int64) * 7919) % n_pages


def page_sizes(max_size, count, seed):
    """``count`` sizes in ``1 .. max_size``."""
    return (splitmix64(seed ^ 0x5A5A, count) % np.uint64(max_size)).astype(
        np.int64
    ) + 1


def drive(policy_name, batched):
    """Load, then ``BATCHES`` Zipf batches; through ``write_batch`` or
    one scalar ``write`` at a time."""
    store = LogStructuredStore(CONFIG, make_policy(policy_name))
    n = CONFIG.user_pages
    batches = [zipf_pages(n, 0.99, BATCH, SEED + b) for b in range(BATCHES)]
    if batched:
        store.load_sequential(n)
        for pids in batches:
            store.write_batch(pids)
    else:
        for pid in range(n):
            store.write(pid)
        for pids in batches:
            for pid in pids.tolist():
                store.write(pid)
    store.flush()
    store.check_invariants()
    return state_digest(store), int(store.stats.gc_writes)


#: ``policy`` -> (state digest, gc_writes), recorded before the
#: distinct-key sorts and the arithmetic first-fit existed.
GOLDEN = {
    "greedy": (
        "10c04af54dc3c7a6813a5f8b80c364f23f0f588e7d10eb79492c135b263f8114",
        24611,
    ),
    "mdc": (
        "3305f6cdb144f013aacb4ba9ca5d5244faab678fee314c9c1f401b24281e870a",
        10023,
    ),
}


def test_state_matches_the_recorded_digest():
    for policy in sorted(GOLDEN):
        got = drive(policy, batched=True)
        assert got == GOLDEN[policy], policy
        assert got[1] > 0, "the stream must reach cleaning"
        assert drive(policy, batched=False) == got, policy


@functools.cache
def _loaded(policy_name, max_size):
    """A loaded store of the property's device: 80 x 64 units with
    ``sim-mdc-zipf``'s buffer.  Only ``user_pages // max_size`` pages
    are loaded and written, so they fit at any size they are drawn.
    Cached: each example writes to deep copies."""
    cfg = StoreConfig(
        n_segments=80,
        segment_units=64,
        fill_factor=0.8,
        clean_trigger=4,
        clean_batch=8,
        sort_buffer_segments=16,
    )
    store = LogStructuredStore(cfg, make_policy(policy_name))
    store.load_sequential(cfg.user_pages // max_size)
    return store


@given(
    policy=st.sampled_from(["mdc", "greedy"]),
    batch=st.integers(1, BATCH),
    theta=st.sampled_from([0.0, 0.6, 0.99, 1.3]),
    max_size=st.sampled_from([1, 1, 2, 4]),
    seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=2),
)
# Full unit-size Zipf(0.99) batches on both engines, whatever is drawn.
@example(policy="mdc", batch=BATCH, theta=0.99, max_size=1, seeds=[1, 2])
@example(policy="greedy", batch=BATCH, theta=0.99, max_size=1, seeds=[1, 2])
# A quarter of the profile's examples: each writes up to 8k pages twice.
@settings(
    max_examples=max(5, settings.default.max_examples // 4),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_batch_matches_scalar_at_scale(policy, batch, theta, max_size, seeds):
    scalar_store = copy.deepcopy(_loaded(policy, max_size))
    batch_store = copy.deepcopy(_loaded(policy, max_size))
    n = scalar_store.config.user_pages // max_size
    for seed in seeds:
        pids = zipf_pages(n, theta, batch, seed)
        sizes = page_sizes(max_size, batch, seed)
        for pid, size in zip(pids.tolist(), sizes.tolist()):
            scalar_store.write(pid, size)
        batch_store.write_batch(pids, sizes)
        assert state_digest(scalar_store) == state_digest(batch_store)
    scalar_store.flush()
    batch_store.flush()
    assert state_digest(scalar_store) == state_digest(batch_store)
    batch_store.check_invariants()


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in sorted(GOLDEN):
        print('    "%s": ("%s", %d),' % ((name,) + drive(name, batched=True)))
    print("}")
