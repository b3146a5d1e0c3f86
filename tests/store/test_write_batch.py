"""Differential equivalence of the vectorized write engine.

``write_batch`` must be *byte-identical* to per-page ``write``: the two
executions of the same update stream end in the same state digest (page
table, segment table, stats, clock — everything the testkit hashes).
The grids below cross every registered policy family with the three
synthetic distributions, plus the edge cases where the batch engine
falls back to (or splits around) the scalar path: segment boundaries,
sizes that stop fitting, rewrites inside a single batch, interleaved
trims, and errors thrown mid-batch.  The last section pins the direct
engine's mechanism: one run rolls through as many segments as the free
pool allows, ends early only by the cut rule, and takes the scalar step
only at a roll that cleans.
"""

import numpy as np
import pytest

from repro.policies import GreedyPolicy, available_policies, make_policy
from repro.store import (
    LogStructuredStore,
    OutOfSpaceError,
    PageIdError,
    PageSizeError,
    StoreConfig,
)
from repro.testkit.trace import state_digest
from repro.workloads import ZipfianWorkload


def _config(sort_buffer=0):
    return StoreConfig(
        n_segments=48,
        segment_units=16,
        fill_factor=0.7,
        clean_trigger=3,
        clean_batch=3,
        sort_buffer_segments=sort_buffer,
        seed=5,
    )


def _pair(policy_name, sort_buffer=0):
    cfg = _config(sort_buffer)
    return (
        cfg,
        LogStructuredStore(cfg, make_policy(policy_name)),
        LogStructuredStore(cfg, make_policy(policy_name)),
    )


def _stream(dist, n_pages, total, seed=42):
    rng = np.random.default_rng(seed)
    if dist == "uniform":
        pids = rng.integers(0, n_pages, size=total)
    elif dist == "hotcold":
        hot = max(1, n_pages // 10)
        coin = rng.random(total) < 0.9
        pids = np.where(
            coin,
            rng.integers(0, hot, size=total),
            rng.integers(hot, n_pages, size=total),
        )
    else:  # zipfian: heavy duplicates exercise the in-run rewrite path
        pids = np.minimum(rng.zipf(1.2, size=total) - 1, n_pages - 1)
    return np.ascontiguousarray(pids, dtype=np.int64)


def _drive_both(scalar_store, batch_store, pids, sizes=None, chunk=97):
    """Same stream through both paths, in identical chunks."""
    for start in range(0, len(pids), chunk):
        part = pids[start : start + chunk]
        part_sizes = None if sizes is None else sizes[start : start + chunk]
        for i, pid in enumerate(part):
            scalar_store.write(
                int(pid), 1 if part_sizes is None else int(part_sizes[i])
            )
        batch_store.write_batch(part, sizes=part_sizes)


def _assert_identical(scalar_store, batch_store):
    assert state_digest(scalar_store) == state_digest(batch_store)
    batch_store.check_invariants()


@pytest.mark.parametrize("policy_name", available_policies())
@pytest.mark.parametrize("dist", ["uniform", "hotcold", "zipfian"])
def test_batch_matches_scalar_all_policies(policy_name, dist):
    cfg, scalar_store, batch_store = _pair(policy_name)
    if policy_name.endswith("-opt"):
        freqs = np.linspace(0.001, 0.2, cfg.user_pages).tolist()
        scalar_store.set_oracle_frequencies(freqs)
        batch_store.set_oracle_frequencies(freqs)
    scalar_store.load_sequential(cfg.user_pages)
    batch_store.load_sequential(cfg.user_pages)
    pids = _stream(dist, cfg.user_pages, 3000)
    _drive_both(scalar_store, batch_store, pids)
    _assert_identical(scalar_store, batch_store)


@pytest.mark.parametrize("policy_name", ["mdc", "greedy"])
def test_batch_matches_scalar_with_sort_buffer(policy_name):
    cfg, scalar_store, batch_store = _pair(policy_name, sort_buffer=2)
    scalar_store.load_sequential(cfg.user_pages)
    batch_store.load_sequential(cfg.user_pages)
    pids = _stream("zipfian", cfg.user_pages, 3000)
    _drive_both(scalar_store, batch_store, pids)
    scalar_store.flush()
    batch_store.flush()
    _assert_identical(scalar_store, batch_store)


def test_batch_matches_scalar_variable_sizes():
    cfg, scalar_store, batch_store = _pair("mdc")
    n = cfg.user_pages // 3
    rng = np.random.default_rng(7)
    init = rng.integers(1, 3, size=n)
    for store in (scalar_store, batch_store):
        for pid in range(n):
            store.write(pid, int(init[pid]))
    pids = _stream("hotcold", n, 2500)
    sizes = rng.integers(1, 5, size=len(pids))
    _drive_both(scalar_store, batch_store, pids, sizes=sizes)
    _assert_identical(scalar_store, batch_store)


def test_batch_matches_scalar_with_interleaved_trims():
    cfg, scalar_store, batch_store = _pair("cost-benefit")
    scalar_store.load_sequential(cfg.user_pages)
    batch_store.load_sequential(cfg.user_pages)
    rng = np.random.default_rng(11)
    for _ in range(25):
        pids = _stream("uniform", cfg.user_pages, 100, seed=int(rng.integers(1 << 30)))
        for i, pid in enumerate(pids):
            scalar_store.write(int(pid))
        batch_store.write_batch(pids)
        victim = int(rng.integers(0, cfg.user_pages))
        assert scalar_store.trim(victim) == batch_store.trim(victim)
    _assert_identical(scalar_store, batch_store)


def test_in_batch_rewrites_match_scalar():
    """Heavy duplication inside single batches (the in-run rewrite path:
    a page's old slot is in the very segment the run is filling)."""
    cfg, scalar_store, batch_store = _pair("greedy")
    scalar_store.load_sequential(cfg.user_pages)
    batch_store.load_sequential(cfg.user_pages)
    rng = np.random.default_rng(3)
    # Batches drawn from a tiny page set: most writes repeat a page that
    # was just written a few positions earlier in the same batch.
    for _ in range(20):
        pids = rng.integers(0, 5, size=64).astype(np.int64)
        for pid in pids:
            scalar_store.write(int(pid))
        batch_store.write_batch(pids)
    _assert_identical(scalar_store, batch_store)


def test_batch_split_at_segment_boundaries():
    """Property: wherever a batch straddles seal/clean boundaries, the
    split must be invisible — any chunking of the same stream produces
    the same final state."""
    cfg = _config()
    pids = _stream("uniform", cfg.user_pages, 2000)
    digests = []
    for chunk in (1, 7, 64, cfg.segment_units, 555, len(pids)):
        store = LogStructuredStore(cfg, make_policy("greedy"))
        store.load_sequential(cfg.user_pages)
        for start in range(0, len(pids), chunk):
            store.write_batch(pids[start : start + chunk])
        digests.append(state_digest(store))
    assert len(set(digests)) == 1


def test_batch_sizes_straddling_capacity():
    """Variable sizes chosen so runs end exactly at, just below, and
    just above the open segment's remaining capacity."""
    cfg, scalar_store, batch_store = _pair("greedy")
    # Few enough pages that even at the maximum size everything still
    # fits on the device with cleaning headroom.
    n = 20
    for store in (scalar_store, batch_store):
        for pid in range(n):
            store.write(pid, 1)
    rng = np.random.default_rng(19)
    u = cfg.segment_units
    sizes = np.array(
        [u, 1, u - 1, 2, u // 2, u // 2, 1, u, 3] * 40, dtype=np.int64
    )
    pids = rng.integers(0, n, size=len(sizes)).astype(np.int64)
    _drive_both(scalar_store, batch_store, pids, sizes=sizes, chunk=9)
    _assert_identical(scalar_store, batch_store)


def test_invalid_size_fails_after_identical_prefix():
    """An oversized page mid-batch must fail exactly where the scalar
    loop fails — with every preceding write applied."""
    cfg, scalar_store, batch_store = _pair("greedy")
    scalar_store.load_sequential(cfg.user_pages)
    batch_store.load_sequential(cfg.user_pages)
    pids = np.arange(10, dtype=np.int64)
    sizes = np.ones(10, dtype=np.int64)
    sizes[6] = cfg.segment_units + 1
    with pytest.raises(PageSizeError):
        for i, pid in enumerate(pids):
            scalar_store.write(int(pid), int(sizes[i]))
    with pytest.raises(PageSizeError):
        batch_store.write_batch(pids, sizes=sizes)
    _assert_identical(scalar_store, batch_store)


@pytest.mark.parametrize("sort_buffer", [0, 2])
def test_negative_id_fails_after_identical_prefix(sort_buffer):
    """A negative page id mid-batch must fail where the scalar loop
    fails instead of aliasing onto the tail of the page table."""
    cfg, scalar_store, batch_store = _pair("mdc", sort_buffer)
    scalar_store.load_sequential(cfg.user_pages)
    batch_store.load_sequential(cfg.user_pages)
    pids = np.arange(10, dtype=np.int64)
    pids[6] = -1
    with pytest.raises(PageIdError):
        for pid in pids:
            scalar_store.write(int(pid))
    with pytest.raises(PageIdError):
        batch_store.write_batch(pids)
    assert scalar_store.clock == cfg.user_pages + 6
    _assert_identical(scalar_store, batch_store)


@pytest.mark.parametrize("entry", ["write", "trim"])
def test_negative_id_rejected_without_side_effects(entry):
    cfg = _config()
    store = LogStructuredStore(cfg, make_policy("greedy"))
    store.load_sequential(cfg.user_pages)
    before = state_digest(store)
    with pytest.raises(PageIdError):
        getattr(store, entry)(-1)
    assert state_digest(store) == before


def _count_calls(store, name):
    """Count calls of a store method through an instance-attribute
    wrapper; returns the list its results are appended to."""
    results = []
    method = getattr(store, name)

    def wrapper(*args, **kwargs):
        result = method(*args, **kwargs)
        results.append(result)
        return result

    setattr(store, name, wrapper)
    return results


def test_buffered_runs_end_only_at_flushes():
    """Run-count guard: under Zipf(0.99) a page id repeats every ~10
    writes, and a run engine that ended runs at repeats would make
    hundreds of numpy-overhead-bound calls for one batch."""
    cfg = StoreConfig(
        n_segments=512,
        segment_units=64,
        fill_factor=0.8,
        clean_trigger=4,
        clean_batch=8,
        sort_buffer_segments=16,
    )
    store = LogStructuredStore(cfg, make_policy("mdc"))
    store.load_sequential(cfg.user_pages)
    warm, batch = ZipfianWorkload.eighty_twenty(cfg.user_pages, seed=0).batches(
        2 * 4096, 4096
    )
    store.write_batch(warm)
    assert np.unique(batch).size < batch.size - 1000  # heavy repeats
    runs = _count_calls(store, "_write_run_buffered")
    flushes = _count_calls(store, "flush")
    boundary_writes = _count_calls(store, "write")
    store.write_batch(batch)
    assert flushes  # the batch crosses at least one buffer fill
    assert len(runs) <= len(flushes) + len(boundary_writes) + 2
    assert sum(runs) + len(boundary_writes) == batch.size


def test_buffered_run_capacity_rules():
    """A repeat that grows a buffered page past capacity does not end
    the run (SortBuffer.replace has no capacity check); a new page that
    does not fit does."""
    cfg, scalar_store, batch_store = _pair("mdc", sort_buffer=2)
    capacity = batch_store.buffer.capacity_units
    u = cfg.segment_units
    assert capacity == 2 * u
    pids = np.array([0, 1, 2, 2, 3, 3, 4], dtype=np.int64)
    sizes = np.array([u, u - 1, 1, u, 1, 1, 1], dtype=np.int64)
    runs = _count_calls(batch_store, "_write_run_buffered")
    _drive_both(scalar_store, batch_store, pids, sizes=sizes)
    # [0, 1, 2, 2-grown] | new page 3 must flush first | [3, 4].
    assert runs == [4, 0, 2]
    _assert_identical(scalar_store, batch_store)


def test_flush_orders_by_key_then_page_id():
    cfg = _config(sort_buffer=2)
    store = LogStructuredStore(cfg, make_policy("mdc"))
    pids = np.array([9, 3, 7, 1, 8, 2, 6], dtype=np.int64)
    store.write_batch(pids)
    keys = np.array([5.0, 2.0, 5.0, 2.0, 0.5, 5.0, 2.0])
    store.pages.carried_up2[pids] = keys
    emitted = []
    route = store.policy.route_user_batch

    def capture(arr):
        emitted.extend(arr.tolist())
        return route(arr)

    store.policy.route_user_batch = capture
    store.flush()
    expected = [pid for _, pid in sorted(zip(keys.tolist(), pids.tolist()))]
    assert emitted == expected == [8, 1, 3, 6, 2, 7, 9]


def test_batch_rejects_bad_shapes():
    cfg = _config()
    store = LogStructuredStore(cfg, make_policy("greedy"))
    with pytest.raises(ValueError):
        store.write_batch(np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        store.write_batch(
            np.arange(4, dtype=np.int64), sizes=np.ones(3, dtype=np.int64)
        )
    with pytest.raises(ValueError):
        # The shape rule does not depend on the batch being non-empty.
        store.write_batch([], sizes=[1, 2])
    store.write_batch(np.empty(0, dtype=np.int64))  # no-op, no error
    store.write_batch([], sizes=[])
    assert store.clock == 0


def test_batch_grows_page_table():
    cfg = _config()
    store = LogStructuredStore(cfg, make_policy("greedy"))
    high = np.array([cfg.user_pages + 100, cfg.user_pages + 500], dtype=np.int64)
    store.write_batch(high)
    assert store.pages.seg[int(high[1])] >= 0


# ----------------------------------------------------------------------
# The direct engine's mechanism: runs that roll
# ----------------------------------------------------------------------


def _roomy_pair(policy_name="greedy"):
    """Two identical steady-state stores whose free pool sits well above
    the reactive trigger, so a run's destinations are recycled (reset)
    segments and several rolls are no-op cleaning opportunities."""
    cfg, scalar_store, batch_store = _pair(policy_name)
    warm = _stream("uniform", cfg.user_pages // 2, 1500)
    for store in (scalar_store, batch_store):
        if policy_name.endswith("-opt"):
            store.set_oracle_frequencies(
                np.linspace(0.001, 0.2, cfg.user_pages).tolist()
            )
        store.load_sequential(cfg.user_pages // 2)
        store.write_batch(warm)
        while store.free_segment_count < store.reactive_trigger() + 8:
            store.clean()
    assert state_digest(scalar_store) == state_digest(batch_store)
    assert scalar_store.stats.clean_cycles > 8
    return cfg, scalar_store, batch_store


def _watch(store):
    """Count the batch store's run calls, scalar steps, seals, and per
    user roll whether its cleaning opportunity cleaned anything."""
    cleaned = []
    inner = store._clean_until_replenished

    def roll():
        before = (store.stats.clean_cycles, store.clean_pending)
        inner()
        cleaned.append((store.stats.clean_cycles, store.clean_pending) != before)

    store._clean_until_replenished = roll
    return (
        _count_calls(store, "_write_run_direct"),
        _count_calls(store, "write"),
        _count_calls(store, "_seal"),
        cleaned,
    )


def _open_segment(store):
    """The user stream's open segment and its remaining room."""
    seg = store.open_segments[0]
    return seg, int(store.segments.capacity - store.segments.used_units[seg])


def _outside(store, seg, count, skip=0):
    """``count`` distinct written pages whose version is not in ``seg``."""
    where = store.pages.seg
    return np.flatnonzero((where >= 0) & (where != seg))[skip : skip + count]


def test_run_rolls_while_the_pool_allows():
    cfg, scalar_store, batch_store = _roomy_pair()
    seg0, room = _open_segment(batch_store)
    pids = _outside(batch_store, seg0, 5 * cfg.segment_units)
    runs, steps, seals, cleaned = _watch(batch_store)
    _drive_both(scalar_store, batch_store, pids, chunk=len(pids))
    assert runs == [len(pids)] and steps == []
    assert len(seals) == 5 and cleaned == [False] * 5
    _assert_identical(scalar_store, batch_store)


def test_scalar_step_only_at_rolls_that_clean():
    """A batch longer than the pool's allowance: the rolls past it each
    clean, and only those go through scalar ``write``."""
    cfg, scalar_store, batch_store = _roomy_pair()
    seg0, _ = _open_segment(batch_store)
    allowance = batch_store.free_segment_count - batch_store.reactive_trigger() + 1
    pids = _outside(batch_store, seg0, (allowance + 6) * cfg.segment_units)
    runs, steps, seals, cleaned = _watch(batch_store)
    _drive_both(scalar_store, batch_store, pids, chunk=len(pids))
    assert len(seals) == len(cleaned) >= allowance + 6
    assert cleaned[:allowance] == [False] * allowance
    assert 0 < sum(cleaned) == len(steps)
    assert runs.count(0) == len(steps)
    _assert_identical(scalar_store, batch_store)


def test_cut_where_the_old_version_lies_in_a_segment_the_run_sealed():
    """Cut rule (a): a page of the run's first open segment, rewritten
    after the write that seals that segment, starts the next run; at
    the sealing write itself it does not (its invalidation precedes the
    roll in the scalar order too)."""
    for offset, expected_runs in ((0, 1), (1, 2), (9, 2)):
        cfg, scalar_store, batch_store = _roomy_pair()
        seg0, room = _open_segment(batch_store)
        assert 0 < room < cfg.segment_units
        resident = int(batch_store.segments.slot_page[seg0, 0])
        assert batch_store.pages.seg[resident] == seg0
        pids = _outside(batch_store, seg0, 3 * cfg.segment_units)
        pids[room + offset] = resident
        runs, steps, _, _ = _watch(batch_store)
        _drive_both(scalar_store, batch_store, pids, chunk=len(pids))
        assert steps == []
        if expected_runs == 1:
            assert runs == [len(pids)]
        else:
            assert runs == [room + offset, len(pids) - room - offset]
        _assert_identical(scalar_store, batch_store)


def test_repeats_across_a_roll_and_inside_a_new_segment():
    """Cut rule (b): a repeat whose previous occurrence landed in an
    earlier segment of the run ends it; repeats inside one segment the
    run has yet to allocate do not (they read its reset zeros)."""
    cfg, scalar_store, batch_store = _roomy_pair("mdc")
    seg0, room = _open_segment(batch_store)
    u = cfg.segment_units
    pids = _outside(batch_store, seg0, 4 * u)
    # Three occurrences inside the run's second destination...
    pids[room + 2] = pids[room + 4] = pids[room + 5] = pids[room + 1]
    # ...and one id on either side of the third roll.
    pids[room + 2 * u + 3] = pids[room + u + 7]
    runs, steps, seals, _ = _watch(batch_store)
    _drive_both(scalar_store, batch_store, pids, chunk=len(pids))
    assert steps == []
    assert runs == [room + 2 * u + 3, len(pids) - (room + 2 * u + 3)]
    assert len(seals) == 4
    _assert_identical(scalar_store, batch_store)


def test_roll_at_position_zero_and_gaps_at_every_segment_end():
    """Variable sizes: the first page does not fit the open segment's
    remainder, and every later segment closes with a unit to spare."""
    cfg, scalar_store, batch_store = _roomy_pair()
    u = cfg.segment_units
    for store in (scalar_store, batch_store):
        store.write(0, u)  # fills a segment to the brim,
        store.write(1, u - 3)  # so this one leaves 3 units in a fresh one
    seg0, room = _open_segment(batch_store)
    assert room == 3
    pids = _outside(batch_store, seg0, 12, skip=2)
    sizes = np.full(12, 5, dtype=np.int64)
    runs, steps, seals, cleaned = _watch(batch_store)
    _drive_both(scalar_store, batch_store, pids, sizes=sizes, chunk=12)
    assert runs == [12] and steps == []
    assert cleaned == [False] * 4  # rolls at positions 0, 3, 6 and 9
    landed = np.unique(batch_store.pages.seg[pids])
    assert landed.size == 4 and seg0 not in landed
    assert (batch_store.segments.used_units[landed] == 15).all()
    _assert_identical(scalar_store, batch_store)


def test_active_cursor_keeps_the_run_inside_the_open_segment():
    cfg, scalar_store, batch_store = _roomy_pair()
    for store in (scalar_store, batch_store):
        store.clean_begin()
        assert store.clean_pending > 0
    seg0, room = _open_segment(batch_store)
    pids = _outside(batch_store, seg0, 3 * cfg.segment_units)
    runs, steps, _, cleaned = _watch(batch_store)
    _drive_both(scalar_store, batch_store, pids, chunk=len(pids))
    # The first roll drains the cursor through the scalar step; with the
    # cycle closed the rest of the batch is one run again.
    assert runs == [room, 0, len(pids) - room - 1]
    assert len(steps) == 1 and cleaned[0] and not any(cleaned[1:])
    assert batch_store.clean_cursor is None
    _assert_identical(scalar_store, batch_store)


def test_oracle_frequencies_follow_per_position_destinations():
    cfg, scalar_store, batch_store = _roomy_pair("mdc-opt")
    seg0, room = _open_segment(batch_store)
    u = cfg.segment_units
    pids = _outside(batch_store, seg0, room + 2 * u + 5)
    pids[room + 3] = pids[room + 1]  # subtract and add on one new segment
    pids[1] = int(batch_store.segments.slot_page[seg0, 0])
    runs, steps, seals, _ = _watch(batch_store)
    _drive_both(scalar_store, batch_store, pids, chunk=len(pids))
    assert runs == [len(pids)] and steps == [] and len(seals) == 3
    assert np.array_equal(
        scalar_store.segments.freq_sum, batch_store.segments.freq_sum
    )
    _assert_identical(scalar_store, batch_store)


def test_runs_end_at_stream_changes():
    """A policy with two user streams: each constant-stream stretch of
    the batch is planned against its own stream's open segment."""
    half = _config().user_pages // 2

    class TwoStreams(GreedyPolicy):
        def route_user(self, page_id):
            return int(page_id < half)

        def route_user_batch(self, page_ids):
            return (page_ids < half).astype(np.int64)

    cfg = _config()
    scalar_store = LogStructuredStore(cfg, TwoStreams())
    batch_store = LogStructuredStore(cfg, TwoStreams())
    scalar_store.load_sequential(cfg.user_pages)
    batch_store.load_sequential(cfg.user_pages)
    # Sorted rows: two stretches of ~25 writes each, longer than a segment.
    pids = np.sort(_stream("uniform", cfg.user_pages, 3000).reshape(-1, 50))
    runs = _count_calls(batch_store, "_write_run_direct")
    _drive_both(scalar_store, batch_store, pids.ravel(), chunk=50)
    assert len(batch_store.open_segments) == 3  # two user streams + GC
    assert max(runs) > cfg.segment_units
    _assert_identical(scalar_store, batch_store)


def test_out_of_space_fails_after_identical_prefix():
    """A batch of new pages that overfills the device: raised at the
    same position, after the same prefix, as the scalar loop."""
    cfg = StoreConfig(n_segments=16, segment_units=8, fill_factor=0.5)
    scalar_store = LogStructuredStore(cfg, make_policy("mdc"))
    batch_store = LogStructuredStore(cfg, make_policy("mdc"))
    pids = np.arange(2 * cfg.n_segments * cfg.segment_units, dtype=np.int64)
    for store in (scalar_store, batch_store):
        # write_batch sizes the page table for the whole batch up front.
        store.pages.ensure(int(pids[-1]))
    with pytest.raises(OutOfSpaceError) as scalar_error:
        for pid in pids:
            scalar_store.write(int(pid))
    with pytest.raises(OutOfSpaceError) as batch_error:
        batch_store.write_batch(pids)
    assert str(scalar_error.value) == str(batch_error.value)
    assert scalar_store.clock == batch_store.clock > cfg.user_pages
    assert state_digest(scalar_store) == state_digest(batch_store)
