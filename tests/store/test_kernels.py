"""The store kernels (``repro.store.kernels``) property-tested against
brute-force oracles: same outputs, same IEEE-754 float bits."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.store import kernels
from repro.store.kernels import (
    ascending_prefix,
    fold_add,
    fold_midpoints,
    fold_rows,
    kernel_info,
    order_by,
    prev_occurrence,
    stable_order,
)
from repro.store.write_path import _first_fit

page_id_arrays = st.lists(
    st.integers(min_value=0, max_value=40), min_size=0, max_size=200
).map(lambda xs: np.asarray(xs, dtype=np.int64))

float_arrays = st.lists(
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    min_size=0,
    max_size=120,
).map(lambda xs: np.asarray(xs, dtype=np.float64))

priority_arrays = st.lists(
    st.floats(
        min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
    ),
    min_size=1,
    max_size=150,
).map(lambda xs: np.asarray(xs, dtype=np.float64))


class TestFallbacksAgainstOracles:
    """The reference implementations vs the dumbest possible model."""

    @given(pids=page_id_arrays)
    @settings(max_examples=100, deadline=None)
    def test_prev_occurrence_matches_linear_scan(self, pids):
        got = prev_occurrence(pids)
        last = {}
        for i, p in enumerate(pids.tolist()):
            assert got[i] == last.get(p, -1)
            last[p] = i

    @given(
        n=st.integers(0, 3 * kernels._SORT_GATE),
        distinct=st.integers(1, 1 << 20),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_prev_occurrence_across_the_sort_gate(self, n, distinct, seed):
        pids = np.random.default_rng(seed).integers(0, distinct, n)
        got = prev_occurrence(pids)
        last = {}
        for i, p in enumerate(pids.tolist()):
            assert got[i] == last.get(p, -1)
            last[p] = i

    @given(current=st.floats(-1e6, 1e6), values=float_arrays)
    @settings(max_examples=100, deadline=None)
    def test_fold_add_is_bit_identical_to_scalar_loop(self, current, values):
        acc = float(current)
        for v in values.tolist():
            acc += v
        # Bit-identity, not approx: the fold feeds accounting that the
        # differential oracle compares with ==.
        assert fold_add(current, values) == acc

    @given(
        rows=st.lists(
            st.tuples(st.floats(-1e6, 1e6), float_arrays.filter(len)),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_fold_rows_is_bit_identical_to_a_loop_per_row(self, rows):
        current = np.asarray([c for c, _ in rows])
        values = np.concatenate([v for _, v in rows])
        counts = np.asarray([v.size for _, v in rows])
        expected = []
        for c, v in rows:
            acc = float(c)
            for x in v.tolist():
                acc += x
            expected.append(acc)
        assert fold_rows(current, values, counts).tolist() == expected

    @given(priorities=priority_arrays, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_ascending_prefix_is_stable_argsort_prefix(
        self, priorities, data
    ):
        need = data.draw(
            st.integers(min_value=1, max_value=priorities.size), label="need"
        )
        got = ascending_prefix(priorities, need)
        full = np.argsort(priorities, kind="stable")
        assert got.size >= need
        np.testing.assert_array_equal(got, full[: got.size])

    def test_nan_priorities_fall_back_to_full_sort(self):
        # Enough NaNs that the need-th smallest is NaN: the cut is
        # undefined and the kernel must hand back the full stable sort.
        priorities = np.array([float(i) for i in range(6)] + [np.nan] * 35)
        got = ascending_prefix(priorities, 10)
        np.testing.assert_array_equal(
            got, np.argsort(priorities, kind="stable")
        )

    def test_nan_outside_the_prefix_is_harmless(self):
        priorities = np.array([np.nan] + [float(i) for i in range(40)])
        got = ascending_prefix(priorities, 2)
        full = np.argsort(priorities, kind="stable")
        np.testing.assert_array_equal(got, full[: got.size])


def midpoints_by_loop(carried, pids, clocks):
    """The scalar write's midpoint rule, one rewrite at a time."""
    out = carried.copy()
    for pid, clk in zip(pids.tolist(), clocks.tolist()):
        c = float(out[pid])
        if c == c:  # not NaN
            out[pid] = c + 0.5 * (clk - c)
    return out


N_CARRIED = 64
carried_arrays = st.lists(
    st.one_of(st.floats(0.0, 1e9), st.just(float("nan"))),
    min_size=N_CARRIED,
    max_size=N_CARRIED,
).map(lambda xs: np.asarray(xs, dtype=np.float64))

#: Runs on both sides of the loop fallback: a mix of cold ids, a few
#: warm ones, and one hot id repeated far past the rank cut-off.
rewrite_runs = st.tuples(
    st.lists(st.integers(0, N_CARRIED - 1), min_size=0, max_size=300),
    st.integers(0, N_CARRIED - 1),
    st.integers(0, 120),
    st.randoms(use_true_random=False),
).map(
    lambda t: np.asarray(
        t[3].sample(t[0] + [t[1]] * t[2], len(t[0]) + t[2]), dtype=np.int64
    )
)


class TestFoldMidpoints:
    """``fold_midpoints`` against the scalar loop, bit for bit."""

    def check(self, carried, pids, clock0=1000, distinct=False):
        clocks = clock0 + 1 + np.arange(pids.size, dtype=np.int64)
        want = midpoints_by_loop(carried, pids, clocks)
        got = carried.copy()
        fold_midpoints(got, pids, clocks, distinct=distinct)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @given(carried=carried_arrays, pids=rewrite_runs, clock0=st.integers(0, 2**40))
    @settings(deadline=None)
    def test_matches_scalar_loop(self, carried, pids, clock0):
        self.check(carried, pids, clock0)

    @given(
        carried=carried_arrays,
        pids=st.lists(
            st.integers(0, N_CARRIED - 1), max_size=N_CARRIED, unique=True
        ).map(lambda xs: np.asarray(xs, dtype=np.int64)),
        clock0=st.integers(0, 2**40),
    )
    @settings(deadline=None)
    def test_distinct_ids_as_one_array_step(self, carried, pids, clock0):
        self.check(carried, pids, clock0, distinct=True)

    def test_distinct_ids_on_both_sides_of_the_fallback(self):
        rng = np.random.default_rng(2)
        carried = rng.random(4 * N_CARRIED) * 1e6
        carried[::5] = np.nan
        carried[1::11] = -np.nan
        cut = kernels._MIDPOINT_LOOP_MAX
        for n in (0, 1, cut - 1, cut, cut + 1, 4 * N_CARRIED):
            for _ in range(20):
                pids = rng.permutation(carried.size)[:n]
                self.check(carried, pids, distinct=True)
                self.check(carried, pids, distinct=False)

    def test_run_sizes_on_both_sides_of_the_fallback(self):
        rng = np.random.default_rng(0)
        carried = rng.random(N_CARRIED) * 1e6
        carried[::7] = np.nan
        cut = kernels._MIDPOINT_LOOP_MAX
        for n in (0, 1, cut - 1, cut, cut + 1, 4 * cut):
            for _ in range(20):
                self.check(carried, rng.integers(0, N_CARRIED, n))

    def test_hot_page_past_the_rank_cut(self):
        # Every page takes part in the first ranks; page 3 alone goes on
        # for 200 more occurrences, through the per-page tail.
        rng = np.random.default_rng(1)
        carried = rng.random(N_CARRIED) * 1e6
        pids = np.concatenate([np.arange(N_CARRIED)] * 2 + [np.full(200, 3)])
        self.check(carried, rng.permutation(pids))
        self.check(carried, pids)

    def test_nan_estimates_stay_nan(self):
        carried = np.full(N_CARRIED, np.nan)
        carried[5] = 10.0
        pids = np.tile(np.arange(N_CARRIED), 3)
        self.check(carried, pids)
        got = carried.copy()
        fold_midpoints(got, pids, 100 + np.arange(pids.size))
        assert np.isnan(np.delete(got, 5)).all()


GATE = kernels._SORT_GATE
#: Sizes on both sides of the sort gate.
SIZES = (0, 1, 2, GATE // 2, GATE - 1, GATE, GATE + 1, 4 * GATE)


def assert_same_order(got, want):
    assert got.dtype == np.int64 or got.dtype == np.intp
    np.testing.assert_array_equal(got, want)


class TestStableOrder:
    """``stable_order`` is ``argsort(kind="stable")``, permutation for
    permutation, on both sides of the gate."""

    @given(
        n=st.integers(0, 3 * GATE),
        distinct=st.integers(1, 1 << 40),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_stable_argsort(self, n, distinct, seed):
        values = np.random.default_rng(seed).integers(0, distinct, n)
        assert_same_order(stable_order(values), values.argsort(kind="stable"))

    def test_shapes_of_input(self):
        rng = np.random.default_rng(3)
        for n in SIZES:
            cases = [
                rng.integers(0, 4, n),  # heavy ties
                np.sort(rng.integers(0, 100, n)),  # presorted
                np.sort(rng.integers(0, 100, n))[::-1].copy(),  # reversed
                np.full(n, 7),  # all tied
                np.arange(n)[::-1].copy(),
            ]
            for values in cases:
                assert_same_order(
                    stable_order(values), values.argsort(kind="stable")
                )

    def test_values_at_the_overflow_guard(self):
        # 1,024 positions take 10 bits: values below 2**53 shift into
        # one int64, larger ones (and negatives) take the stable sort.
        rng = np.random.default_rng(4)
        for n in (GATE, GATE + 1, 4 * GATE):
            top = 1 << (63 - (n - 1).bit_length())
            for high in (top - 1, top, top + 1, (1 << 63) - 1):
                values = rng.integers(0, 3, n) + (high - 2)
                values[::3] = rng.integers(0, 50, values[::3].size)
                assert_same_order(
                    stable_order(values), values.argsort(kind="stable")
                )
            values = rng.integers(-5, 5, n)
            assert_same_order(stable_order(values), values.argsort(kind="stable"))


#: Sort keys with heavy ties, both zeros and both infinities.
KEY_POOL = np.array([-np.inf, -1.5, -0.0, 0.0, 0.5, 3.0, 1e300, np.inf])


class TestOrderBy:
    """``order_by(keys, ids)`` is ``np.lexsort((ids, keys))``."""

    def check(self, keys, ids):
        assert_same_order(order_by(keys, ids), np.lexsort((ids, keys)))

    @given(
        n=st.integers(1, 3 * GATE),
        pool=st.integers(1, KEY_POOL.size),
        id_span=st.integers(1, 1 << 40),
        nan=st.booleans(),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_lexsort(self, n, pool, id_span, nan, seed):
        rng = np.random.default_rng(seed)
        keys = rng.choice(KEY_POOL[:pool], n)
        if nan:
            keys[rng.integers(0, n, 1 + n // 50)] = np.nan
        self.check(keys, rng.integers(0, id_span, n))

    def test_shapes_of_input(self):
        rng = np.random.default_rng(5)
        for n in SIZES[1:]:
            distinct_ids = rng.permutation(10 * n)[:n]
            cases = [
                (rng.random(n), distinct_ids),
                (np.round(rng.random(n) * 4), distinct_ids),  # heavy ties
                (np.full(n, 2.5), distinct_ids),  # a drain of first writes
                (np.full(n, 2.5), np.arange(n)),  # ... in arrival order
                (np.full(n, 2.5), rng.integers(0, 3, n)),  # repeated ids
                (np.sort(rng.random(n)), np.arange(n)),  # presorted
                (np.sort(rng.random(n))[::-1].copy(), np.arange(n)[::-1].copy()),
                (rng.choice([-0.0, 0.0], n), distinct_ids),
                (rng.choice([-np.inf, 1.0, np.inf], n), rng.integers(-9, 9, n)),
                (np.full(n, np.nan), distinct_ids),
                (np.where(np.arange(n) == n // 2, np.nan, rng.random(n)), distinct_ids),
                (rng.integers(0, 5, n), distinct_ids),  # integer keys
            ]
            for keys, ids in cases:
                self.check(keys, ids)

    def test_ids_at_the_overflow_guard(self):
        # Ranks times the id span, shifted past the positions, must fit
        # one int64; a span one wider takes lexsort.
        rng = np.random.default_rng(6)
        for n in (GATE, 4 * GATE):
            limit = (1 << (63 - (n - 1).bit_length())) // n
            for span in (limit - 1, limit, limit + 1, 1 << 62):
                ids = rng.integers(0, 4, n)
                ids[0], ids[1] = 0, span - 1
                keys = rng.choice(KEY_POOL, n)
                self.check(keys, ids)
                self.check(keys, ids + (1 << 62))


def first_fit_by_search(cum, start, stop, room, capacity, rolls):
    """First-fit bounds with one ``searchsorted`` per destination."""
    if cum[stop] - cum[start] <= room:
        return [start, stop]
    bounds = [start]
    pos = start
    while True:
        pos = min(stop, int(cum.searchsorted(cum[pos] + room, "right")) - 1)
        bounds.append(pos)
        if pos == stop or len(bounds) > rolls + 1:
            return bounds
        room = capacity


class TestFirstFit:
    """``_first_fit`` against one search per destination, for unit
    sizes (the arithmetic branch) and mixed ones."""

    @given(
        sizes=st.one_of(
            st.lists(st.just(1), min_size=1, max_size=300),
            st.lists(st.integers(1, 5), min_size=1, max_size=300),
        ),
        capacity=st.integers(5, 40),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_a_search_per_destination(self, sizes, capacity, data):
        cum = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=cum[1:])
        start = data.draw(st.integers(0, len(sizes) - 1), label="start")
        stop = data.draw(st.integers(start + 1, len(sizes)), label="stop")
        room = data.draw(st.integers(0, capacity), label="room")
        rolls = data.draw(st.integers(-1, 12), label="rolls")
        assert _first_fit(cum, start, stop, room, capacity, rolls) == (
            first_fit_by_search(cum, start, stop, room, capacity, rolls)
        )

    def test_no_room_and_no_rolls(self):
        for sizes in ([1] * 50, [1, 2, 3] * 17):
            cum = np.zeros(len(sizes) + 1, dtype=np.int64)
            np.cumsum(sizes, out=cum[1:])
            for room in (0, 1, 8):
                for rolls in (0, 1, 3, 100):
                    got = _first_fit(cum, 2, len(sizes), room, 8, rolls)
                    assert got == first_fit_by_search(
                        cum, 2, len(sizes), room, 8, rolls
                    )
        # Unit sizes, no room, no rolls: an empty first destination.
        cum = np.arange(11, dtype=np.int64)
        assert _first_fit(cum, 0, 10, 0, 4, 0) == [0, 0]
        assert _first_fit(cum, 0, 10, 3, 4, 1) == [0, 3, 7]
        assert _first_fit(cum, 0, 10, 3, 4, 5) == [0, 3, 7, 10]


class TestModeSwitch:
    def test_kernel_info_reports_active_mode(self):
        # benchmarks/stack/compare.py treats a changed env.kernels block
        # as not like-for-like, so the dict is pinned whole.
        assert kernel_info() == {
            "mode": "auto",
            "active": "python",
            "have_numba": False,
        }
