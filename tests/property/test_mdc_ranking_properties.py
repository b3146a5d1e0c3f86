"""Property: the ranking a cleaning cycle uses is the paper's formula,
bit for bit.

:meth:`MdcPolicy.rank_columns` computes Section 5.1.3's decline
``((B-A)/A)**2 / (C * max(u_now - up2, 1))`` from a cached clock-free
factor (``((B-A)/A)**2`` per live-unit count, edges folded in), and the
``-opt`` variant's exact-frequency form goes through the epoch cache of
:meth:`CleaningPolicy._ranked_priorities`.  Both must equal
:func:`repro.core.priority.mdc_decline` / ``mdc_decline_exact`` on the
same columns as IEEE bit patterns (``view(int64)``), so a reassociated
expression or a cached score that outlived its segment's epoch shows
up as a different bit pattern.

Hypothesis draws segment columns from small pools, so ``C == 0``,
``A == 0``, an anchor less than one tick old (or ahead of the clock)
and exact ties between segments all occur, then ranks several times
with columns rewritten under an epoch bump and the clock moved in
between.  The columns are ones a store can hold: a page takes at
least one unit, so ``C <= B - A`` and ``C == 0`` exactly when
``B - A == 0``.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.priority import mdc_decline, mdc_decline_exact
from repro.policies import make_policy
from repro.store import LogStructuredStore, StoreConfig

N_SEGMENTS = 24
CAPACITIES = (1, 2, 7, 16, 32)
POLICIES = ("mdc", "mdc-up1", "mdc-no-sep-user", "mdc-opt")


def build_store(policy, capacity):
    cfg = StoreConfig(
        n_segments=N_SEGMENTS,
        segment_units=capacity,
        fill_factor=0.3,
        clean_trigger=2,
        clean_batch=2,
    )
    return LogStructuredStore(cfg, make_policy(policy))


def reference(store, ids):
    """The formula from :mod:`repro.core.priority`, on the columns."""
    segs, policy = store.segments, store.policy
    avail = segs.capacity - segs.live_units[ids]
    count = segs.live_count[ids]
    if policy.estimator == "exact":
        return mdc_decline_exact(avail, count, segs.capacity, segs.freq_sum[ids])
    anchor = segs.up1 if policy.estimator == "up1" else segs.up2
    return mdc_decline(avail, count, segs.capacity, store.clock - anchor[ids])


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@st.composite
def rewrites(draw, capacity, clock):
    """Columns for some segments: ``(ids, live_units, live_count, up1,
    up2, freq_sum)``, values from pools small enough to collide."""
    ids = draw(
        st.lists(
            st.integers(0, N_SEGMENTS - 1), min_size=1, max_size=N_SEGMENTS,
            unique=True,
        )
    )
    k = len(ids)
    units = st.sampled_from(sorted({0, 1, capacity // 2, capacity - 1, capacity}))
    live = draw(st.lists(units, min_size=k, max_size=k))
    # A page takes one unit or more: C pages in B - A units, C == 0
    # exactly when B - A == 0.
    count = [
        draw(st.sampled_from(sorted({min(1, u), (u + 1) // 2, u}))) for u in live
    ]
    anchors = st.sampled_from(
        (0.0, 3.0, clock - 0.5, float(clock), clock + 2.0, clock / 3.0)
    )
    up1 = draw(st.lists(anchors, min_size=k, max_size=k))
    up2 = draw(st.lists(anchors, min_size=k, max_size=k))
    freq = draw(
        st.lists(st.sampled_from((0.0, -1e-18, 0.01, 0.3, 2.5)), min_size=k, max_size=k)
    )
    return ids, live, count, up1, up2, freq


@pytest.mark.parametrize("policy", POLICIES)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_the_ranking_is_the_formula_bit_for_bit(policy, data):
    capacity = data.draw(st.sampled_from(CAPACITIES))
    store = build_store(policy, capacity)
    segs = store.segments
    for _ in range(data.draw(st.integers(1, 4))):
        store.clock = data.draw(st.integers(0, 5000))
        ids, live, count, up1, up2, freq = data.draw(rewrites(capacity, store.clock))
        segs.live_units[ids] = live
        segs.live_count[ids] = count
        segs.up1[ids] = up1
        segs.up2[ids] = up2
        segs.freq_sum[ids] = freq
        segs.epoch[ids] += 1
        ranked = np.asarray(
            data.draw(st.permutations(range(N_SEGMENTS))), dtype=np.int64
        )[: data.draw(st.integers(1, N_SEGMENTS))]
        expected = bits(reference(store, ranked))
        assert bits(store.policy.rank_columns(segs, ranked)) == expected
        assert bits(store.policy._ranked_priorities(ranked)) == expected
