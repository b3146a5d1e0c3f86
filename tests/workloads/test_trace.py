"""Trace recording, persistence, and replay."""

import numpy as np
import pytest

from repro.workloads import TraceRecorder, TraceWorkload


class TestRecorder:
    def test_records_in_order(self):
        rec = TraceRecorder()
        for pid in (3, 1, 4, 1, 5):
            rec.record(pid)
        assert rec.to_array().tolist() == [3, 1, 4, 1, 5]

    def test_compaction_preserves_order(self):
        rec = TraceRecorder()
        expected = list(range(200_000))  # crosses the compaction chunk
        for pid in expected:
            rec.record(pid)
        assert len(rec) == len(expected)
        rec.record(999_999)
        assert rec.to_array().tolist() == expected + [999_999]

    def test_empty(self):
        assert TraceRecorder().to_array().size == 0


class TestReplay:
    def test_replays_in_order(self):
        wl = TraceWorkload([5, 3, 5, 2])
        out = np.concatenate(list(wl.batches(4)))
        assert out.tolist() == [5, 3, 5, 2]
        assert not wl.wrapped

    def test_wraps_past_end(self):
        wl = TraceWorkload([1, 2])
        out = np.concatenate(list(wl.batches(5)))
        assert out.tolist() == [1, 2, 1, 2, 1]
        assert wl.wrapped

    def test_frequencies_are_empirical(self):
        wl = TraceWorkload([0, 0, 0, 3])
        freqs = wl.frequencies()
        assert freqs[0] == pytest.approx(0.75)
        assert freqs[3] == pytest.approx(0.25)
        assert freqs.sum() == pytest.approx(1.0)

    def test_population_from_max_id(self):
        wl = TraceWorkload([0, 7, 2])
        assert wl.n_pages == 8
        assert wl.distinct_pages() == 3

    def test_rejects_bad_traces(self):
        with pytest.raises(ValueError):
            TraceWorkload([])
        with pytest.raises(ValueError):
            TraceWorkload([1, -2])

    def test_save_load_roundtrip(self, tmp_path):
        wl = TraceWorkload([9, 1, 9, 4])
        path = tmp_path / "trace.npz"
        wl.save(path)
        loaded = TraceWorkload.load(path)
        assert loaded.trace.tolist() == [9, 1, 9, 4]

    def test_reset_rewinds(self):
        wl = TraceWorkload([1, 2, 3])
        list(wl.batches(2))
        wl.reset()
        out = np.concatenate(list(wl.batches(3)))
        assert out.tolist() == [1, 2, 3]
