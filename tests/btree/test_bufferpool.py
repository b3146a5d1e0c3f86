"""Buffer pool mechanics: LRU order, write-back accounting."""

import pytest

from repro.btree import BufferPool, LEAF
from repro.workloads import TraceRecorder


class TestLru:
    def test_capacity_floor(self):
        with pytest.raises(ValueError):
            BufferPool(3)

    def test_evicts_least_recently_used(self):
        pool = BufferPool(4)
        nodes = [pool.allocate(LEAF) for _ in range(4)]
        pool.get(nodes[0].page_id)  # touch 0: now 1 is the LRU
        assert pool.stats.misses == 0
        pool.allocate(LEAF)  # forces one eviction
        assert pool.stats.evictions == 1
        # Node 1 went to disk; getting it back is a miss.
        misses = pool.stats.misses
        pool.get(nodes[1].page_id)
        assert pool.stats.misses == misses + 1

    def test_get_missing_page_raises(self):
        pool = BufferPool(4)
        with pytest.raises(KeyError):
            pool.get(999)


class TestWriteBack:
    def test_eviction_of_dirty_page_records_trace(self):
        recorder = TraceRecorder()
        pool = BufferPool(4, recorder=recorder)
        first = pool.allocate(LEAF)  # dirty on allocation
        for _ in range(4):
            pool.allocate(LEAF)
        assert first.page_id in recorder.to_array().tolist()

    def test_clean_eviction_writes_nothing(self):
        pool = BufferPool(4)
        node = pool.allocate(LEAF)
        pool.checkpoint()  # node now clean
        writes = pool.stats.page_writes
        for _ in range(4):
            pool.allocate(LEAF)
            pool.checkpoint()
        # Evicting the clean copy of `node` added no extra write for it.
        trace = pool.recorder.to_array().tolist()
        assert trace.count(node.page_id) == 1
        assert pool.stats.page_writes >= writes

    def test_free_drops_everywhere(self):
        pool = BufferPool(4)
        node = pool.allocate(LEAF)
        pool.free(node.page_id)
        with pytest.raises(KeyError):
            pool.get(node.page_id)

    def test_flush_all_round_trips(self):
        pool = BufferPool(8)
        node = pool.allocate(LEAF)
        node.keys.append(5)
        node.values.append("v")
        pool.mark_dirty(node.page_id)
        pool.flush_all()
        misses = pool.stats.misses
        again = pool.get(node.page_id)
        assert pool.stats.misses == misses + 1  # flushed out of the cache
        assert again.keys == [5]
