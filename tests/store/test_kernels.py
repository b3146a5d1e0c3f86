"""The store kernels (``repro.store.kernels``) property-tested against
brute-force oracles: same outputs, same IEEE-754 float bits."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.store.kernels import (
    ascending_prefix,
    fold_add,
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


class TestModeSwitch:
    def test_kernel_info_reports_active_mode(self):
        # benchmarks/stack/compare.py treats a changed env.kernels block
        # as not like-for-like, so the dict is pinned whole.
        assert kernel_info() == {
            "mode": "auto",
            "active": "python",
            "have_numba": False,
        }
