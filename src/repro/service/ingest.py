"""Batched ingest: coalescing client writes into per-shard batches.

The service's write path is asynchronous in the batching sense: a
client ``put``/``delete`` is acknowledged into a bounded in-memory
queue and applied to the owning shard later, as part of a coalesced
multi-key batch.  Three mechanisms bound the staleness and the memory:

* **flush-on-size** — a shard whose pending run reaches ``batch_size``
  ops is flushed immediately;
* **flush-on-tick** — the service clock (:meth:`IngestQueue.tick`)
  flushes any shard whose oldest pending op has waited
  ``flush_interval`` ticks;
* **backpressure** — when the queue's *total* depth reaches
  ``max_depth``, the deepest shard is flushed synchronously before the
  op's call returns (counted, so saturated runs are visible in the
  metrics rather than silently slow).

A client op is one call: ``put``, ``delete`` and ``get`` take
``(tenant, key)``, probe the route memo (:attr:`IngestQueue.routes`,
``{tenant: {key: code}}``) and queue or read in place.  A code is one
int: ``slot << bits | shard`` once the key holds a record slot on its
shard, ``~shard`` while it waits for its first flush, ``bits`` being
what the shard count needs.  So the probe for a slotted key builds no
tuple and reaches no object besides the two dicts; a miss asks the
:attr:`~IngestQueue.locate` hook (the service's ring), once per
``(tenant, key)``.  The ring keeps its own memo by key alone, so
tenants sharing a plain key name hash it once between them.

A batch is **coalesced** as it is queued.  A kvstore key keeps one
record slot for life, so each shard's pending run is one ``slot -> last
op`` map, an op being a put's value or a delete's stored key: the last
op per key wins, so ten queued updates of a hot key cost the store one
user write, and the same map answers read-your-writes.  A key keeps its
first-arrival position, so a flush replays the run deterministically:
the puts' slots go down in one ``write_batch`` (keys with no slot yet,
queued under their stored key ``(tenant, key)``, get theirs first, and
the memo learns it), then the deletes as TRIMs, each taking its key's
slot out of the memo; the two groups touch disjoint keys, so the final
shard state is what applying the client ops one by one would leave.
Equal keys are one key (``1``, ``1.0`` and ``True`` under a tenant),
but a key is only queued under its stored form if the ring can encode
that form: the ring's key rule is the one input check on keys, so every
stored key is one the ring accepts, and an alias the ring cannot encode
updates, deletes or reads a record with a slot and creates none.

Beside each map the queue keeps the shard's **raw op count**
(:meth:`IngestQueue.shard_depth`): every trigger and every figure that
means "ops queued" reads it, not the map's size -- ``batch_size``,
``max_depth`` and the backpressure choice of the deepest shard fire on
the op they would fire on if nothing coalesced, and ``ops_flushed`` and
the ``batch_size`` histogram count client ops.
Their difference at flush time is the ``ops_coalesced`` counter: how
many queued ops the map absorbed — on skewed tenant keyspaces this is
the service's second amplification lever, upstream of the cleaner.

A flush the store refuses (out of space) still applies the run's
deletes, which are what can make room on a full shard, unregisters the
keys it had just given slots, and puts the puts back: every op the
queue acknowledged is either applied or still pending and readable.

Everything is synchronous and deterministic: "async" is a property of
the *ordering contract* (acknowledge now, apply on flush), not of
threads, which is what makes harness runs byte-identical under a fixed
seed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.obs import PAGES_EDGES, MetricsRegistry
from repro.service.router import _PLAIN, encode_key
from repro.store import StoreError

#: Batch-size histogram buckets (ops per flushed batch).
BATCH_SIZE_EDGES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class IngestQueue:
    """Bounded, coalescing write queue over a pool of KV shards.

    Args:
        shards: The pool's shard list (``LogStructuredKVStore``-shaped:
            ``register``, ``write_slots``, ``delete``).
        metrics: Service :class:`~repro.obs.MetricsRegistry` for queue
            instrumentation.
        batch_size: Per-shard flush-on-size threshold, in ops.
        flush_interval: Ticks a pending op may wait before flush-on-tick.
        max_depth: Total queued ops across all shards before
            backpressure flushes the deepest shard.
    """

    def __init__(
        self,
        shards: List,
        metrics: MetricsRegistry,
        batch_size: int = 256,
        flush_interval: int = 4,
        max_depth: int = 4096,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if flush_interval < 1:
            raise ValueError("flush_interval must be >= 1")
        if max_depth < batch_size:
            raise ValueError("max_depth must be >= batch_size")
        self.shards = shards
        self.batch_size = batch_size
        self.flush_interval = flush_interval
        self.max_depth = max_depth
        self.metrics = metrics
        self.depth = 0
        #: Queue depth observed at every tick (p95 source for benches).
        self.depth_samples: List[int] = []
        #: Per shard: run key -> its last queued op, in first-arrival order.
        self._pending: List[Dict] = [{} for _ in shards]
        #: Per shard: client ops queued (coalesced ones included).
        self._queued: List[int] = [0 for _ in shards]
        #: Tick at which each shard's oldest pending op was enqueued.
        self._oldest_tick: List[Optional[int]] = [None for _ in shards]
        self._tick = 0
        #: The route memo, tenant -> {key -> code}: ``slot << bits |
        #: shard`` once the key holds a record slot on its shard,
        #: ``~shard`` while it waits for its first flush.
        self.routes: Dict[object, Dict[object, int]] = {}
        self._bits = (len(shards) - 1).bit_length()
        self._mask = (1 << self._bits) - 1
        #: ``locate(tenant, key)``: the shard of a key the memo missed
        #: (the service asks its ring).
        self.locate: Optional[Callable[[object, object], int]] = None
        #: Optional callback fired after any shard flush (the service
        #: uses it to run cleaning governance between batches).
        self.after_flush: Optional[Callable[[int], None]] = None
        #: Optional callback fed each flush's stall pages (the service
        #: routes it into its :class:`~repro.obs.slo.SLOTracker`).
        self.on_stall: Optional[Callable[[float], None]] = None

    # -- client ops ------------------------------------------------------

    def put(self, tenant, key, value) -> int:
        """Queue ``value`` under ``(tenant, key)``, superseding any
        queued op on the key, then flush if a size or depth bound was
        reached; returns the key's shard.  ``value`` is a put's bytes,
        or the stored key :meth:`delete` queues."""
        try:
            code = self.routes[tenant][key]
        except KeyError:
            code = self._miss(tenant, key)
        if code < 0:
            # Queued under its stored form, which a flush stores: it
            # must pass the ring's key rule, the one input check on keys
            # (1.0 or True may update the record 1 holds, not create it).
            if type(key) not in _PLAIN:
                encode_key(key)
            shard, run_key = ~code, (tenant, key)
        else:
            shard, run_key = code & self._mask, code >> self._bits
        pending = self._pending[shard]
        if not pending:
            self._oldest_tick[shard] = self._tick
        pending[run_key] = value
        queued = self._queued[shard] = self._queued[shard] + 1
        self.depth += 1
        if queued >= self.batch_size:
            self.flush_shard(shard)
        elif self.depth >= self.max_depth:
            deepest = max(range(len(self._queued)), key=self.shard_depth)
            self.metrics.counter("backpressure_flushes").inc()
            self.flush_shard(deepest)
        return shard

    def delete(self, tenant, key) -> int:
        """Queue a delete of ``(tenant, key)``, counted in ``deletes``
        once it is known to queue; returns the key's shard."""
        if self.route_of(tenant, key)[1] is None and type(key) not in _PLAIN:
            encode_key(key)  # put's check, made before the count
        self.metrics.counter("deletes").inc()
        return self.put(tenant, key, (tenant, key))

    def get(self, tenant, key, default=None):
        """Read-your-writes fetch of ``(tenant, key)``: the pending run
        first, then the shard."""
        try:
            code = self.routes[tenant][key]
        except KeyError:
            code = self._miss(tenant, key)
        if code < 0:
            shard, skey = ~code, (tenant, key)
            pending = self.pending_value(shard, skey)
            if pending is None:
                return self.shards[shard].get(skey, default)
        else:
            shard, slot = code & self._mask, code >> self._bits
            pending = self.pending_value(shard, slot)
            if pending is None:
                return self.shards[shard].value_at(slot)
        return pending if type(pending) is bytes else default

    def route_of(self, tenant, key) -> tuple:
        """``(shard, slot)`` of ``(tenant, key)``, memoizing it on a
        miss; the slot is None while the key waits for its first flush."""
        try:
            code = self.routes[tenant][key]
        except KeyError:
            code = self._miss(tenant, key)
        if code < 0:
            return ~code, None
        return code & self._mask, code >> self._bits

    def _miss(self, tenant, key) -> int:
        """Memoize a key the memo missed: on the shard :attr:`locate`
        names, with no slot until a flush gives it one there."""
        code = ~self.locate(tenant, key)
        self.routes.setdefault(tenant, {})[key] = code
        return code

    # -- flushing --------------------------------------------------------

    def tick(self) -> int:
        """Advance the queue clock; flush shards whose oldest op aged
        past ``flush_interval``.  Returns the number of shards flushed."""
        self._tick += 1
        flushed = 0
        for shard in range(len(self._pending)):
            oldest = self._oldest_tick[shard]
            if (
                oldest is not None
                and self._tick - oldest >= self.flush_interval
            ):
                self.flush_shard(shard)
                flushed += 1
        self.depth_samples.append(self.depth)
        self.metrics.gauge("queue_depth").set(self.depth)
        return flushed

    def flush_shard(self, shard: int) -> int:
        """Apply ``shard``'s pending ops as one coalesced batch;
        returns the number of queued ops consumed."""
        final = self._pending[shard]
        if not final:
            return 0
        n = self._queued[shard]
        oldest = self._oldest_tick[shard]
        self._pending[shard] = {}
        self._queued[shard] = 0
        self._oldest_tick[shard] = None
        self.depth -= n
        kv = self.shards[shard]
        # Foreground stall accounting: every GC page relocated anywhere
        # in the pool while this flush runs — inline reactive cleaning
        # under the batch *and* governance dispatched by after_flush —
        # is work the client-facing flush waited behind.  Stall-free
        # flushes observe 0 so the histogram's percentiles read over
        # the full flush population.
        gc_before = sum(s.store.stats.gc_writes for s in self.shards)
        slots: List[int] = []
        values: List[bytes] = []
        new: List[tuple] = []  # (key, slot) for the keys that had none
        deletes: List = []
        for slot, op in final.items():
            if type(op) is not bytes:
                deletes.append(op)
                continue
            if type(slot) is not int:
                key, slot = slot, kv.register(slot)
                new.append((key, slot))
            slots.append(slot)
            values.append(op)
        if slots:
            try:
                kv.write_slots(slots, values, [key for key, _ in new])
            except StoreError:
                # Out of space is the refusal a later flush can get
                # past (after deletes or cleaning), and write_slots
                # stored none of the batch.  The deletes (keys disjoint
                # from the puts') go down, so a full shard can be
                # relieved; the puts go back under their run keys.
                self._delete(shard, deletes)
                left = n - len(deletes)
                self._pending[shard] = {
                    slot: op for slot, op in final.items() if type(op) is bytes
                }
                self._queued[shard] = left
                self._oldest_tick[shard] = oldest
                self.depth += left
                self.metrics.counter("ops_flushed").inc(len(deletes))
                raise
            routes, bits = self.routes, self._bits
            for (tenant, key), slot in new:
                routes.setdefault(tenant, {})[key] = slot << bits | shard
        self._delete(shard, deletes)
        metrics = self.metrics
        metrics.counter("batches_flushed").inc()
        metrics.counter("ops_flushed").inc(n)
        metrics.counter("ops_coalesced").inc(n - len(final))
        metrics.counter("shard%d_ops" % shard).inc(n)
        metrics.histogram("batch_size", BATCH_SIZE_EDGES).observe(n)
        if self.after_flush is not None:
            self.after_flush(shard)
        stall = sum(s.store.stats.gc_writes for s in self.shards) - gc_before
        metrics.histogram("flush_stall_pages", PAGES_EDGES).observe(stall)
        if self.on_stall is not None:
            self.on_stall(float(stall))
        return n

    def flush_all(self) -> int:
        """Drain every shard; returns the total ops applied."""
        return sum(self.flush_shard(s) for s in range(len(self._pending)))

    def _delete(self, shard: int, keys: List) -> None:
        """Apply a run's deletes; each key's route loses its slot."""
        kv, routes = self.shards[shard], self.routes
        for skey in keys:
            kv.delete(skey)
            routes.setdefault(skey[0], {})[skey[1]] = ~shard

    def pending_value(self, shard: int, slot):
        """The last op queued under run key ``slot`` on ``shard`` (a
        put's value or a delete's stored key), or None."""
        return self._pending[shard].get(slot)

    def shard_depth(self, shard: int) -> int:
        """Client ops queued on ``shard``, coalesced ones included."""
        return self._queued[shard]
