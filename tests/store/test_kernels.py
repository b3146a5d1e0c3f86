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
    prev_occurrence,
)

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


class TestModeSwitch:
    def test_kernel_info_reports_active_mode(self):
        # benchmarks/stack/compare.py treats a changed env.kernels block
        # as not like-for-like, so the dict is pinned whole.
        assert kernel_info() == {
            "mode": "auto",
            "active": "python",
            "have_numba": False,
        }
