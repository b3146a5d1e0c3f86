"""The map-based IngestQueue against the list-based queue it replaced.

``ListQueue`` is the queue as it stood before the pending run became a
``key -> last op`` map: per-shard op lists, folded last-write-wins at
flush, scanned backwards for read-your-writes.  Both queues are driven
with the same seeded op streams over recording fake shards; everything
observable must match after every op.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs import PAGES_EDGES, MetricsRegistry
from repro.service import IngestQueue
from repro.service.ingest import BATCH_SIZE_EDGES, OP_DELETE, OP_PUT


class RecordingShard:
    """Logs the calls a flush makes; no store behind it."""

    def __init__(self):
        self.calls = []
        self.store = SimpleNamespace(stats=SimpleNamespace(gc_writes=0))

    def put_many(self, items):
        self.calls.append(("put_many", list(items)))

    def delete(self, key):
        self.calls.append(("delete", key))


class ListQueue:
    """Reference: the list-based queue of the parent commit."""

    def __init__(self, shards, batch_size, flush_interval, max_depth, metrics):
        self.shards = shards
        self.batch_size = batch_size
        self.flush_interval = flush_interval
        self.max_depth = max_depth
        self.metrics = metrics
        self.depth = 0
        self.depth_samples = []
        self._pending = [[] for _ in shards]
        self._oldest_tick = [None for _ in shards]
        self._tick = 0

    def put(self, shard, key, value):
        self._push(shard, (OP_PUT, key, value))

    def delete(self, shard, key):
        self._push(shard, (OP_DELETE, key, None))

    def _push(self, shard, op):
        pending = self._pending[shard]
        if not pending:
            self._oldest_tick[shard] = self._tick
        pending.append(op)
        self.depth += 1
        if len(pending) >= self.batch_size:
            self.flush_shard(shard)
        elif self.depth >= self.max_depth:
            deepest = max(
                range(len(self._pending)), key=lambda s: len(self._pending[s])
            )
            self.metrics.counter("backpressure_flushes").inc()
            self.flush_shard(deepest)

    def tick(self):
        self._tick += 1
        flushed = 0
        for shard in range(len(self._pending)):
            oldest = self._oldest_tick[shard]
            if oldest is not None and self._tick - oldest >= self.flush_interval:
                self.flush_shard(shard)
                flushed += 1
        self.depth_samples.append(self.depth)
        self.metrics.gauge("queue_depth").set(self.depth)
        return flushed

    def flush_shard(self, shard):
        ops = self._pending[shard]
        if not ops:
            return 0
        self._pending[shard] = []
        self._oldest_tick[shard] = None
        n = len(ops)
        self.depth -= n
        kv = self.shards[shard]
        final = {}
        for op in ops:
            final[op[1]] = op
        puts = [(key, op[2]) for key, op in final.items() if op[0] == OP_PUT]
        if puts:
            kv.put_many(puts)
        for key, op in final.items():
            if op[0] == OP_DELETE:
                kv.delete(key)
        self.metrics.counter("batches_flushed").inc()
        self.metrics.counter("ops_flushed").inc(n)
        self.metrics.counter("ops_coalesced").inc(n - len(final))
        self.metrics.counter("shard%d_ops" % shard).inc(n)
        self.metrics.histogram("batch_size", BATCH_SIZE_EDGES).observe(n)
        self.metrics.histogram("flush_stall_pages", PAGES_EDGES).observe(0)
        return n

    def flush_all(self):
        return sum(self.flush_shard(s) for s in range(len(self._pending)))

    def pending_value(self, shard, key):
        for op in reversed(self._pending[shard]):
            if op[1] == key:
                return op
        return None


def op_stream(seed, n_ops, n_shards, keyspace):
    """Puts, deletes, ticks and the odd full drain; few keys, so runs
    repeat keys and hold put-then-delete and delete-then-put pairs."""
    rng = np.random.default_rng(seed)
    for i in range(n_ops):
        roll = rng.random()
        shard = int(rng.integers(0, n_shards))
        key = "k%d" % rng.integers(0, keyspace)
        if roll < 0.08:
            yield ("tick",)
        elif roll < 0.09:
            yield ("flush_all",)
        elif roll < 0.30:
            yield ("delete", shard, key)
        else:
            yield ("put", shard, key, b"v%d" % i)


# batch_size, flush_interval, max_depth, and the flush trigger the shape
# is there to fire.
SHAPES = [
    (4, 100, 64, "size"),
    (64, 2, 64, "age"),
    (8, 100, 9, "backpressure"),
    (6, 3, 12, "all"),
]


@pytest.mark.parametrize("batch_size,flush_interval,max_depth,fires", SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_map_queue_matches_list_queue(
    seed, batch_size, flush_interval, max_depth, fires
):
    n_shards = 3
    queues = []
    for cls in (IngestQueue, ListQueue):
        shards = [RecordingShard() for _ in range(n_shards)]
        metrics = MetricsRegistry()
        queues.append(
            (cls(shards, batch_size, flush_interval, max_depth, metrics), shards, metrics)
        )
    (new, new_shards, new_metrics), (ref, ref_shards, ref_metrics) = queues
    seen = set()
    aged = on_enqueue = 0
    for op in op_stream(seed, 1500, n_shards, keyspace=7):
        kind = op[0]
        if kind in ("put", "delete"):
            seen.add((op[1], op[2]))
        flushed = new_metrics.snapshot().counters.get("batches_flushed", 0)
        got = getattr(new, kind)(*op[1:])
        want = getattr(ref, kind)(*op[1:])
        assert got == want
        if kind == "tick":
            aged += got
        elif kind != "flush_all":
            on_enqueue += (
                new_metrics.snapshot().counters.get("batches_flushed", 0) - flushed
            )
        assert [s.calls for s in new_shards] == [s.calls for s in ref_shards]
        assert new.depth == ref.depth
        assert new.depth_samples == ref.depth_samples
        assert [new.shard_depth(s) for s in range(n_shards)] == [
            len(run) for run in ref._pending
        ]
        assert new_metrics.snapshot() == ref_metrics.snapshot()
        for shard, key in seen:
            assert new.pending_value(shard, key) == ref.pending_value(shard, key)
    snap = new_metrics.snapshot()
    assert snap.counters["ops_coalesced"] > 0
    if fires in ("size", "all"):
        assert on_enqueue > snap.counters.get("backpressure_flushes", 0)
    if fires in ("age", "all"):
        assert aged > 0
    if fires in ("backpressure", "all"):
        assert snap.counters["backpressure_flushes"] > 0
