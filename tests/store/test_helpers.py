"""Public store constants."""

from repro.store.log_store import GC_STREAM


class TestConstants:
    def test_gc_stream_is_not_a_user_stream(self):
        assert GC_STREAM < 0
