"""The slot-keyed write path against the list-based queue it replaced.

``RefService`` is the service as it stood before the route memo carried
record slots: per-shard op lists (``ListQueue``), folded last-write-wins
at flush and handed to ``kv.put_many`` / ``kv.delete``, scanned
backwards for read-your-writes, every key resolved through the ring.
Both services are driven with the same op streams over stores of the
same geometry, and after every op what reached each store must match:
the ``write_batch`` slots and sizes in order, then the trims (and,
after a tick or flush, each store's ``state_digest``).  So must
every read, the queue depths and the metrics registry (with ``puts``
the reference counts per put and the service derives); and on the new
service the memo rule holds: an entry names the key's shard and a slot
the key owns there, or no slot while it waits for its first flush.
"""

import numpy as np
import pytest

from repro.obs import PAGES_EDGES, MetricsRegistry
from repro.service import ConsistentHashRouter, Service, StorePool
from repro.service.ingest import BATCH_SIZE_EDGES
from repro.store import OutOfSpaceError, StoreConfig, StoreError
from repro.testkit.trace import state_digest

OP_PUT, OP_DELETE = 0, 1
UNIT_BYTES = 8
ROOMY = StoreConfig(
    n_segments=16, segment_units=8, fill_factor=0.5,
    clean_trigger=2, clean_batch=2,
)


class ListQueue:
    """Reference: the list-based ingest queue."""

    def __init__(self, shards, batch_size, flush_interval, max_depth, metrics):
        self.shards = list(shards)
        self.batch_size = batch_size
        self.flush_interval = flush_interval
        self.max_depth = max_depth
        self.metrics = metrics
        self.depth = 0
        self.depth_samples = []
        self._pending = [[] for _ in shards]
        # Client ops queued: the list's length, but after a refused
        # flush also the coalesced ops of the keys put back.
        self._queued = [0 for _ in shards]
        self._oldest_tick = [None for _ in shards]
        self._tick = 0
        self.after_flush = None

    def push(self, shard, op):
        pending = self._pending[shard]
        if not pending:
            self._oldest_tick[shard] = self._tick
        pending.append(op)
        self._queued[shard] += 1
        self.depth += 1
        if self._queued[shard] >= self.batch_size:
            self.flush_shard(shard)
        elif self.depth >= self.max_depth:
            deepest = max(range(len(self._queued)), key=self.shard_depth)
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
        n = self._queued[shard]
        oldest = self._oldest_tick[shard]
        self._pending[shard] = []
        self._queued[shard] = 0
        self._oldest_tick[shard] = None
        self.depth -= n
        kv = self.shards[shard]
        gc_before = sum(s.store.stats.gc_writes for s in self.shards)
        final = {}
        for op in ops:
            final[op[1]] = op
        puts = [(key, op[2]) for key, op in final.items() if op[0] == OP_PUT]
        deletes = [key for key, op in final.items() if op[0] == OP_DELETE]
        try:
            if puts:
                kv.put_many(puts)
        except StoreError:
            for key in deletes:
                kv.delete(key)
            self._pending[shard] = [op for op in ops if final[op[1]][0] == OP_PUT]
            self._queued[shard] = left = n - len(deletes)
            self._oldest_tick[shard] = oldest
            self.depth += left
            self.metrics.counter("ops_flushed").inc(len(deletes))
            raise
        for key in deletes:
            kv.delete(key)
        self.metrics.counter("batches_flushed").inc()
        self.metrics.counter("ops_flushed").inc(n)
        self.metrics.counter("ops_coalesced").inc(n - len(final))
        self.metrics.counter("shard%d_ops" % shard).inc(n)
        self.metrics.histogram("batch_size", BATCH_SIZE_EDGES).observe(n)
        self.after_flush(shard)
        stall = sum(s.store.stats.gc_writes for s in self.shards) - gc_before
        self.metrics.histogram("flush_stall_pages", PAGES_EDGES).observe(stall)
        return n

    def flush_all(self):
        return sum(self.flush_shard(s) for s in range(len(self._pending)))

    def pending_op(self, shard, key):
        for op in reversed(self._pending[shard]):
            if op[1] == key:
                return op
        return None

    def shard_depth(self, shard):
        return self._queued[shard]


class RefService:
    """Reference: the service over a :class:`ListQueue`, no route memo."""

    def __init__(self, n_shards, config, batch_size, flush_interval, max_depth):
        self.metrics = MetricsRegistry()
        # The instruments the service creates before its first flush.
        for name in ("deletes", "gets", "ops_flushed"):
            self.metrics.counter(name)
        self.router = ConsistentHashRouter(n_shards, seed=0)
        self.pool = StorePool(
            n_shards, config, policy="mdc", unit_bytes=UNIT_BYTES,
            metrics=self.metrics, pages_per_step=4,
        )
        self.queue = ListQueue(
            self.pool.shards, batch_size, flush_interval, max_depth, self.metrics
        )
        self.queue.after_flush = lambda shard: self.pool.maintain()
        self.puts = 0

    def put(self, key, value, tenant=None):
        shard = self.router.shard_for(key, tenant=tenant)
        self.puts += 1
        self.queue.push(shard, (OP_PUT, (tenant, key), value))
        return shard

    def delete(self, key, tenant=None):
        shard = self.router.shard_for(key, tenant=tenant)
        self.metrics.counter("deletes").inc()
        self.queue.push(shard, (OP_DELETE, (tenant, key), None))
        return shard

    def get(self, key, tenant=None, default=None):
        shard = self.router.shard_for(key, tenant=tenant)
        self.metrics.counter("gets").inc()
        op = self.queue.pending_op(shard, (tenant, key))
        if op is not None:
            return op[2] if op[0] == OP_PUT else default
        return self.pool.shards[shard].get((tenant, key), default)

    def tick(self):
        self.queue.tick()
        self.pool.maintain(idle=True)

    def flush(self):
        return self.queue.flush_all()


def record_store_calls(svc, log):
    """Log every ``write_batch`` (slots, sizes) and ``trim`` (slot) that
    reaches a shard's store, per shard; idempotent per store."""
    while len(log) < svc.pool.n_shards:
        store = svc.pool.shards[len(log)].store
        calls = []
        log.append(calls)
        write_batch, trim = store.write_batch, store.trim

        def logged_write(slots, sizes=None, _w=write_batch, _c=calls):
            _c.append(("write_batch", np.asarray(slots).tolist(), np.asarray(sizes).tolist()))
            return _w(slots, sizes)

        def logged_trim(slot, _t=trim, _c=calls):
            _c.append(("trim", int(slot)))
            return _t(slot)

        store.write_batch = logged_write
        store.trim = logged_trim


def apply(svc, op):
    """One op; a refused flush is an outcome, not an error."""
    kind, args = op[0], op[1:]
    try:
        return getattr(svc, kind)(*args)
    except OutOfSpaceError:
        return "refused"


class Pair:
    """The service and its reference, driven in lockstep."""

    def __init__(self, n_shards=3, config=ROOMY, batch_size=8,
                 flush_interval=3, max_depth=64):
        self.new = Service(
            n_shards, config, policy="mdc", unit_bytes=UNIT_BYTES,
            batch_size=batch_size, flush_interval=flush_interval,
            max_depth=max_depth, pages_per_step=4, seed=0,
        )
        self.ref = RefService(
            n_shards, config, batch_size, flush_interval, max_depth
        )
        self.new_log, self.ref_log = [], []
        self.seen = set()

    def step(self, *op):
        if op[0] in ("put", "delete", "get"):
            self.seen.add((op[-1] if op[0] == "put" else op[2], op[1]))
        got, want = apply(self.new, op), apply(self.ref, op)
        assert got == want, op
        self.check(digests=op[0] in ("tick", "flush"))
        return got

    def check(self, digests):
        new, ref = self.new, self.ref
        if digests:
            # Whole store states, cleaning included.
            assert [state_digest(kv.store) for kv in new.pool.shards] == [
                state_digest(kv.store) for kv in ref.pool.shards
            ]
        record_store_calls(new, self.new_log)
        record_store_calls(ref, self.ref_log)
        assert self.new_log == self.ref_log
        assert new.queue.depth == ref.queue.depth
        assert new.queue.depth_samples == ref.queue.depth_samples
        assert [
            new.queue.shard_depth(s) for s in range(new.pool.n_shards)
        ] == ref.queue._queued
        exported = next(r for r in new.rows() if r["type"] == "metrics")
        assert exported["counters"]["puts"] == ref.puts
        # Reads are compared on both, so their counters stay equal.
        for tenant, key in sorted(self.seen, key=repr):
            assert new.get(key, tenant) == ref.get(key, tenant)
        assert new.metrics.snapshot() == ref.metrics.snapshot()
        # The memo rule: an entry names the key's shard and a slot the
        # key owns there, or no slot while it waits for its first flush.
        queue = new.queue
        for tenant, memo in queue.routes.items():
            for key in memo:
                shard, slot = queue.route_of(tenant, key)
                assert shard == new.router.shard_for(key, tenant=tenant)
                if slot is not None:
                    skey = (tenant, key)
                    assert new.pool[shard]._slot_of.get(skey) == slot, skey

    def held(self, tenant, key):
        """The slot the key holds on its shard, or None."""
        shard = self.new.shard_of(key, tenant)
        return self.new.pool[shard]._slot_of.get((tenant, key))


def op_stream(seed, n_ops, keyspace):
    """Puts, deletes, gets, ticks and the odd full drain; few keys, so
    runs repeat keys and hold put-then-delete and delete-then-put pairs,
    and deleted keys come back on other slots."""
    rng = np.random.default_rng(seed)
    for i in range(n_ops):
        roll = rng.random()
        tenant = "t%d" % rng.integers(0, 3)
        key = int(rng.integers(0, keyspace))
        if roll < 0.08:
            yield ("tick",)
        elif roll < 0.09:
            yield ("flush",)
        elif roll < 0.25:
            yield ("delete", key, tenant)
        elif roll < 0.30:
            yield ("get", key, tenant)
        else:
            yield ("put", key, bytes([i % 256]) * (1 + i % 20), tenant)


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
    pair = Pair(
        batch_size=batch_size, flush_interval=flush_interval,
        max_depth=max_depth,
    )
    def flushes():
        return pair.new.metrics.snapshot().counters.get("batches_flushed", 0)

    aged = on_enqueue = 0
    for op in op_stream(seed, 1500, keyspace=7):
        before = flushes()
        pair.step(*op)
        if op[0] == "tick":
            aged += flushes() - before
        elif op[0] in ("put", "delete"):
            on_enqueue += flushes() - before
    pair.step("flush")
    counters = pair.new.metrics.snapshot().counters
    assert counters["ops_coalesced"] > 0
    assert sum(kv.store.stats.trims for kv in pair.new.pool.shards) > 0
    if fires in ("backpressure", "all"):
        assert counters["backpressure_flushes"] > 0
    if fires in ("size", "all"):
        # Flushes fired by a put or delete, beyond the backpressure ones:
        # flush-on-size.
        assert on_enqueue > counters.get("backpressure_flushes", 0)
    if fires in ("age", "all"):
        assert aged > 0


class TestWindowCases:
    """One flush window at a time, on a service with no size trigger in
    reach (``flush`` is the only drain)."""

    def pair(self, **overrides):
        kwargs = dict(batch_size=64, flush_interval=1000, max_depth=64)
        kwargs.update(overrides)
        return Pair(**kwargs)

    def test_delete_then_put_in_one_window_keeps_the_slot(self):
        pair = self.pair()
        pair.step("put", 1, b"old", "t")
        pair.step("flush")
        slot = pair.held("t", 1)
        pair.step("delete", 1, "t")
        pair.step("put", 1, b"new!", "t")
        assert pair.step("get", 1, "t") == b"new!"
        pair.step("flush")
        assert pair.held("t", 1) == slot
        assert pair.new_log[pair.new.shard_of(1, "t")][-1] == (
            "write_batch", [slot], [1]
        )

    def test_put_then_delete_of_a_new_key_allocates_no_slot(self):
        pair = self.pair()
        pair.step("put", 1, b"a", "t")
        pair.step("put", 2, b"b", "t")
        pair.step("delete", 1, "t")
        pair.step("flush")
        assert pair.held("t", 1) is None
        assert pair.held("t", 2) == 0 or pair.new.shard_of(1, "t") != (
            pair.new.shard_of(2, "t")
        )
        assert pair.new.queue.route_of("t", 1)[1] is None

    def test_delete_of_an_absent_key(self):
        pair = self.pair()
        pair.step("delete", 5, "t")
        assert pair.step("get", 5, "t") is None
        pair.step("flush")
        assert pair.held("t", 5) is None
        assert all(calls == [] for calls in pair.new_log)

    def test_reput_after_its_slot_went_to_another_key(self):
        pair = self.pair(n_shards=1)
        pair.step("put", "old", b"1", "t")
        pair.step("flush")
        slot = pair.held("t", "old")
        pair.step("delete", "old", "t")
        pair.step("flush")
        pair.step("put", "taker", b"22", "t")
        pair.step("flush")
        assert pair.held("t", "taker") == slot
        assert pair.step("get", "old", "t") is None
        assert pair.step("get", "old", "t", b"d") == b"d"
        pair.step("put", "old", b"333", "t")
        pair.step("flush")
        assert pair.held("t", "old") not in (None, slot)
        assert pair.step("get", "old", "t") == b"333"
        assert pair.step("get", "taker", "t") == b"22"

    def test_refused_flush(self):
        pair = self.pair(
            n_shards=1,
            config=StoreConfig(n_segments=16, segment_units=8, fill_factor=0.5),
            batch_size=16,
            max_depth=64,
        )
        refused = 0
        for key in range(200):
            if pair.step("put", key, bytes(8), None) == "refused":
                refused += 1
                if refused == 3:
                    break
            if key % 7 == 6:
                pair.step("delete", key - 3, None)
        assert refused == 3
        # The refused run keeps the keys it could not place unslotted.
        assert pair.new.queue.depth > 0
        for key in range(0, 40, 3):
            pair.step("delete", key, None)
        pair.step("tick")
        pair.step("flush")
