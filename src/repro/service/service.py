"""The in-process service object: routed, batched, observable.

:class:`Service` is the store front-end the concurrent harness and the
``repro serve`` CLI drive: a :class:`~repro.service.pool.StorePool` of
KV shards behind a :class:`~repro.service.router.ConsistentHashRouter`,
with client writes coalesced by an
:class:`~repro.service.ingest.IngestQueue` and cleaning metered by the
pool's global slack budget.

Keys are namespaced per tenant — the stored key is the ``(tenant,
key)`` pair — so tenants never collide and rebalancing can re-route
every record from its stored form alone.  Reads are read-your-writes:
a ``get`` consults the owning shard's pending queue before the shard
itself, so an acknowledged-but-unflushed ``put`` is already visible.

Observability rides the existing ``repro.obs`` machinery: every shard
carries a :class:`~repro.obs.StoreObserver` (per-shard Wamp/fill time
series, cleaning decisions, seal/clean events), the service keeps its
own :class:`~repro.obs.MetricsRegistry` (ingest queue depth, batch-size
histogram, per-shard op counters, rebalance counts), and
:meth:`Service.export_rows` emits one schema block for the service
plus one per shard — a file ``repro obs report`` and ``repro obs
validate`` consume unchanged.

Three trace-plane extensions sit on top (all optional, all off by
default so the metrics export stays byte-deterministic):

* :meth:`attach_tracer` wires one :class:`~repro.obs.Tracer` through
  the queue, pool, and every shard observer, so a ``service.put`` and
  the flush/maintain/clean work it triggers form one causal span tree.
* Every flush's stall pages feed an :class:`~repro.obs.SLOTracker`
  (``service.slo``) — multi-window burn rates over the flush-stall
  stream, embedded in the ``repro bench latency`` report.
* :meth:`telemetry_to` appends one ``telemetry`` row per tick (wall
  time, per-shard Wamp/fill/queue/stall, SLO state) — the file
  ``repro top`` tails.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union

from repro.kvstore import check_value
from repro.obs import (
    PAGES_EDGES,
    MetricsRegistry,
    MetricsWriter,
    SLOTracker,
    StoreObserver,
)
from repro.obs.clock import now_s
from repro.obs.export import SCHEMA_VERSION
from repro.service.ingest import OP_DELETE, OP_PUT, IngestQueue
from repro.service.pool import StorePool
from repro.service.router import ConsistentHashRouter
from repro.store import StoreConfig

Key = Union[str, bytes, int, tuple]


class Service:
    """Sharded key-value service over one :class:`StorePool`.

    Args:
        n_shards: Shard count.
        config: Per-shard store geometry.
        policy: Cleaning-policy name (per-shard instances).
        unit_bytes: KV record granularity.
        batch_size / flush_interval / max_depth: Ingest queue knobs.
        gc_budget / pages_per_step: Cleaning governor knobs (see
            :class:`StorePool`).
        seed: Ring seed (the service itself draws no randomness).
        sample_interval: Per-shard time-series spacing in update ticks.
    """

    def __init__(
        self,
        n_shards: int,
        config: StoreConfig,
        policy: str = "mdc",
        unit_bytes: int = 64,
        batch_size: int = 256,
        flush_interval: int = 4,
        max_depth: int = 4096,
        gc_budget: Optional[int] = None,
        pages_per_step: int = 32,
        seed: int = 0,
        sample_interval: Optional[int] = None,
    ) -> None:
        self.metrics = MetricsRegistry()
        self.router = ConsistentHashRouter(n_shards, seed=seed)
        self.pool = StorePool(
            n_shards,
            config,
            policy=policy,
            unit_bytes=unit_bytes,
            gc_budget=gc_budget,
            metrics=self.metrics,
            pages_per_step=pages_per_step,
        )
        self.queue = IngestQueue(
            self.pool.shards,
            batch_size=batch_size,
            flush_interval=flush_interval,
            max_depth=max_depth,
            metrics=self.metrics,
        )
        self.queue.after_flush = self._after_flush
        #: Every shard has the same geometry, so one record limit.
        self._max_value_bytes = self.pool.shards[0].max_value_bytes
        #: Flush-stall SLO: a flush stalling behind more than one
        #: cleaner step's worth of GC pages is a bad event.
        self.slo = SLOTracker(threshold=float(pages_per_step))
        self.queue.on_stall = self.slo.record
        #: Trace plane — ``None`` until :meth:`attach_tracer`.
        self.tracer = None
        #: Telemetry sink — ``None`` until :meth:`telemetry_to`.
        self.telemetry: Optional[MetricsWriter] = None
        self.seed = seed
        self._sample_interval = sample_interval
        # The keyspace a service sees is bounded (tenants x keys), so
        # memoizing ring lookups turns the per-op blake2b hash into a
        # dict hit; scale_to() invalidates it when the ring changes.
        self._routes: Dict[tuple, int] = {}
        self._c_puts = self.metrics.counter("puts")
        self._c_deletes = self.metrics.counter("deletes")
        self._c_gets = self.metrics.counter("gets")
        self.observers: List[StoreObserver] = [
            StoreObserver(
                kv.store,
                sample_interval=sample_interval,
                capture_failpoints=False,
            ).attach()
            for kv in self.pool.shards
        ]

    # -- internals -------------------------------------------------------

    def shard_of(self, key: Key, tenant: Optional[Key] = None) -> int:
        """The shard index owning ``key`` under ``tenant``.  The client
        ops probe the route memo inline and come here on a miss."""
        skey = (tenant, key)
        shard = self._routes.get(skey)
        if shard is None:
            # Only a memo miss does real ring work, so only a miss
            # opens a router span.
            tracer = self.tracer
            span = tracer.start("router.route") if tracer is not None else None
            shard = self.router.shard_for(key, tenant=tenant)
            self._routes[skey] = shard
            if span is not None:
                tracer.finish(span, shard=shard)
        return shard

    def _after_flush(self, shard: int) -> None:
        """Post-batch governance: one budgeted maintenance round."""
        self.pool.maintain()

    # -- client API ------------------------------------------------------

    def put(self, key: Key, value: bytes, tenant: Optional[Key] = None) -> int:
        """Acknowledge an upsert into the ingest queue; returns the
        owning shard index.

        A value the shard would refuse raises :class:`~repro.kvstore.
        KVError` here, before anything is queued: an acknowledged put is
        one its flush can apply (a flush that raised would lose the run
        queued behind it)."""
        if type(value) is not bytes or len(value) > self._max_value_bytes:
            value = check_value(value, self._max_value_bytes)
        tracer = self.tracer
        if tracer is not None:
            span = tracer.start("service.put")
        skey = (tenant, key)  # the stored (namespaced) form of the key
        shard = self._routes.get(skey)
        try:
            if shard is None:
                shard = self.shard_of(key, tenant)
            self._c_puts.value += 1
            self.queue.enqueue(shard, (OP_PUT, skey, value))
        finally:
            # Also when the op's own flush is refused: an open span
            # would adopt every later one.
            if tracer is not None:
                tracer.finish(span, shard=shard)
        return shard

    def delete(self, key: Key, tenant: Optional[Key] = None) -> int:
        """Acknowledge a delete; returns the owning shard index."""
        tracer = self.tracer
        if tracer is not None:
            span = tracer.start("service.delete")
        skey = (tenant, key)
        shard = self._routes.get(skey)
        try:
            if shard is None:
                shard = self.shard_of(key, tenant)
            self._c_deletes.value += 1
            self.queue.enqueue(shard, (OP_DELETE, skey, None))
        finally:
            if tracer is not None:
                tracer.finish(span, shard=shard)
        return shard

    def get(
        self,
        key: Key,
        tenant: Optional[Key] = None,
        default: Optional[bytes] = None,
    ) -> Optional[bytes]:
        """Read-your-writes fetch: pending queue first, then the shard."""
        skey = (tenant, key)
        shard = self._routes.get(skey)
        if shard is None:
            shard = self.shard_of(key, tenant)
        self._c_gets.value += 1
        pending = self.queue.pending_value(shard, skey)
        if pending is not None:
            return pending[2] if pending[0] == OP_PUT else default
        return self.pool.shards[shard].get(skey, default)

    def __contains__(self, key: Key) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        live = sum(len(kv) for kv in self.pool.shards)
        # Pending ops shift the count only once applied; flush for an
        # exact figure.
        return live

    # -- service clock ---------------------------------------------------

    def tick(self) -> None:
        """One service-clock step: age the queue (flush-on-tick), run a
        maintenance round, and advance the per-shard samplers.

        The tick is the service's idle edge: the maintenance round here
        runs in *idle* mode (every needy shard gets proactive steps up
        to the budget), whereas the rounds fired from inside a flush
        are loaded and defer all non-urgent work to this one."""
        tracer = self.tracer
        span = tracer.start("service.tick") if tracer is not None else None
        self.queue.tick()
        self.pool.maintain(idle=True)
        for observer in self.observers:
            observer.maybe_sample()
        if span is not None:
            tracer.finish(span)
        if self.telemetry is not None:
            self.telemetry.write_row(self.telemetry_row())

    def flush(self) -> int:
        """Drain the ingest queue; returns ops applied."""
        return self.queue.flush_all()

    # -- elasticity ------------------------------------------------------

    def scale_to(self, n_shards: int) -> int:
        """Grow the pool to ``n_shards``, migrating only the keys whose
        route changed; returns the number of keys moved.

        Consistent hashing guarantees moved keys always land on the
        *new* shards, so pre-existing shards only lose records.
        """
        if n_shards < self.pool.n_shards:
            raise ValueError(
                "cannot shrink a pool from %d to %d shards"
                % (self.pool.n_shards, n_shards)
            )
        if n_shards == self.pool.n_shards:
            return 0
        self.flush()
        old_n = self.pool.n_shards
        for _ in range(old_n, n_shards):
            shard = self.pool.add_shard()
            self.queue.add_shard(shard)
            observer = StoreObserver(
                shard.store,
                sample_interval=self._sample_interval,
                capture_failpoints=False,
            ).attach()
            observer.tracer = self.tracer
            self.observers.append(observer)
        self.router = self.router.grown(n_shards)
        self._routes.clear()
        moved = 0
        for src in range(old_n):
            kv = self.pool[src]
            moves: Dict[int, List[tuple]] = {}
            for skey in list(kv.keys()):
                tenant, key = skey
                dst = self.router.shard_for(key, tenant=tenant)
                if dst != src:
                    moves.setdefault(dst, []).append(skey)
            for dst in sorted(moves):
                batch = [(skey, kv.get(skey)) for skey in moves[dst]]
                self.pool[dst].put_many(batch)
                for skey in moves[dst]:
                    kv.delete(skey)
                moved += len(batch)
        self.metrics.counter("rebalances").inc()
        self.metrics.counter("keys_migrated").inc(moved)
        self.pool.maintain()
        return moved

    # -- observability ---------------------------------------------------

    def attach_tracer(self, tracer):
        """Wire one :class:`~repro.obs.Tracer` through the whole stack:
        service ops, queue flushes, pool maintenance, and the per-shard
        store hooks (via each observer's ``tracer`` slot).  Returns the
        tracer for chaining; pass ``None`` to detach."""
        self.tracer = tracer
        self.queue.tracer = tracer
        self.pool.tracer = tracer
        for observer in self.observers:
            observer.tracer = tracer
        return tracer

    def telemetry_to(
        self,
        sink: Union[str, MetricsWriter],
        meta: Optional[Dict] = None,
    ) -> MetricsWriter:
        """Start appending one ``telemetry`` row per tick to ``sink``.

        Writes the schema meta header immediately, so the file is valid
        (and ``repro top``-tailable) from the first tick.
        """
        writer = sink if isinstance(sink, MetricsWriter) else MetricsWriter(str(sink))
        run = dict(meta) if meta else {}
        run.setdefault("component", "telemetry")
        run.setdefault("policy", self.pool.policy_name)
        run.setdefault("shards", self.pool.n_shards)
        run.setdefault("seed", self.seed)
        writer.write_row({"type": "meta", "schema": SCHEMA_VERSION, "run": run})
        self.telemetry = writer
        return writer

    def telemetry_row(self) -> Dict:
        """One live-state row: wall time on the shared clock, service
        clock/queue/SLO state, and per-shard Wamp/fill/free pool/
        buffered units/queue/stall."""
        flush_hist = self.metrics.histogram("flush_stall_pages", PAGES_EDGES)
        shards = []
        for i, kv in enumerate(self.pool.shards):
            store = kv.store
            observer = self.observers[i] if i < len(self.observers) else None
            stall_p99 = 0.0
            stalls = 0
            if observer is not None:
                stall_p99 = observer.metrics.histogram(
                    "write_stall_pages", PAGES_EDGES
                ).percentile(0.99)
                stalls = observer.metrics.counter("write_stalls").value
            shards.append(
                {
                    "shard": i,
                    "wamp": round(kv.write_amplification, 4),
                    "fill": round(store.fill_factor_now(), 4),
                    "free_segments": store.free_segment_count,
                    # What the next drain will put on the device: a
                    # flush that stalls is one that drained.
                    "buffered_units": (
                        0 if store.buffer is None else store.buffer.used_units
                    ),
                    "queue_depth": self.queue.shard_depth(i),
                    "write_stalls": stalls,
                    "stall_p99_pages": round(stall_p99, 2),
                }
            )
        return {
            "type": "telemetry",
            "t_s": round(now_s(), 6),
            "clock": sum(kv.store.clock for kv in self.pool.shards),
            "tick": self.queue._tick,
            "queue_depth": self.queue.depth,
            "flush_stall_p99_pages": round(flush_hist.percentile(0.99), 2),
            "slo": self.slo.report(),
            "shards": shards,
        }

    def queue_depth_p95(self) -> int:
        """95th percentile of the queue depth across all ticks so far."""
        samples = sorted(self.queue.depth_samples)
        if not samples:
            return 0
        return samples[min(len(samples) - 1, int(0.95 * len(samples)))]

    def rows(self, meta: Optional[Dict] = None) -> Iterator[Dict]:
        """Schema-v1 rows: one service-level block (meta + metrics),
        then one block per shard from its :class:`StoreObserver`."""
        header = {"type": "meta", "schema": SCHEMA_VERSION}
        header["run"] = dict(meta) if meta else {}
        header["run"].setdefault("component", "service")
        header["run"].setdefault("policy", self.pool.policy_name)
        header["run"].setdefault("shards", self.pool.n_shards)
        header["run"].setdefault("seed", self.seed)
        yield header
        row = self.metrics.snapshot().to_dict()
        row["type"] = "metrics"
        row["clock"] = sum(kv.store.clock for kv in self.pool.shards)
        row["queue_depth_p95"] = self.queue_depth_p95()
        yield row
        for i, observer in enumerate(self.observers):
            observer.sample_now()
            shard_meta = dict(meta) if meta else {}
            shard_meta["component"] = "shard"
            shard_meta["shard"] = i
            shard_meta["shards"] = self.pool.n_shards
            shard_meta["seed"] = self.seed
            for row in observer.rows(shard_meta):
                yield row

    def export_rows(
        self,
        sink: Union[str, MetricsWriter],
        meta: Optional[Dict] = None,
    ) -> int:
        """Write :meth:`rows` to a JSONL path or shared writer; returns
        the row count."""
        writer = sink if isinstance(sink, MetricsWriter) else MetricsWriter(str(sink))
        return writer.write_rows(self.rows(meta))

    def close(self) -> None:
        """Flush pending writes and detach the shard observers."""
        self.flush()
        for observer in self.observers:
            observer.detach()

    def __repr__(self) -> str:
        return "<Service shards=%d queued=%d keys=%d>" % (
            self.pool.n_shards,
            self.queue.depth,
            len(self),
        )
