"""The in-process service object: routed, batched, observable.

:class:`Service` is the store front-end the concurrent harness and the
``repro serve`` CLI drive: a :class:`~repro.service.pool.StorePool` of
KV shards behind a :class:`~repro.service.router.ConsistentHashRouter`,
with client writes coalesced by an
:class:`~repro.service.ingest.IngestQueue` and cleaning metered by the
pool's global slack budget.

The shard count is fixed for the service's life.  Keys are namespaced
per tenant — the stored key is the ``(tenant, key)`` pair — so tenants
never collide on a shard.  A client op is a put's value check or a
get's counter here, then one call into the queue, which resolves the
key through its route memo to its shard and the record slot it keeps
there for life, and queues or reads it; a memo miss asks this
service's ring.  Reads are read-your-writes: a ``get`` consults the
pending run before the shard, so an acknowledged-but-unflushed ``put``
is already visible.

Observability rides the existing ``repro.obs`` machinery: every shard
carries a :class:`~repro.obs.StoreObserver` (per-shard Wamp/fill time
series, cleaning decisions, seal/clean/stall counters), the service
keeps its own :class:`~repro.obs.MetricsRegistry` (ingest queue depth,
batch-size histogram, per-shard op counters), and
:meth:`Service.export_rows` emits one schema block for the service
plus one per shard — a file ``repro obs report`` and ``repro obs
validate`` consume unchanged.

Every flush's stall pages also feed an :class:`~repro.obs.SLOTracker`
(``service.slo``) — multi-window burn rates over the flush-stall
stream, embedded in the ``repro bench latency`` report.  Nothing here
reads a clock, so the metrics export is byte-deterministic; causal
spans are recorded from outside, by
:class:`~repro.obs.trace.SpanRecorder`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union

from repro.kvstore import check_value
from repro.obs import MetricsRegistry, MetricsWriter, SLOTracker, StoreObserver
from repro.obs.export import SCHEMA_VERSION
from repro.service.ingest import IngestQueue
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
            self.metrics,
            batch_size=batch_size,
            flush_interval=flush_interval,
            max_depth=max_depth,
        )
        # Post-batch governance: one budgeted maintenance round.
        self.queue.after_flush = lambda shard: self.pool.maintain()
        #: Every shard has the same geometry, so one record limit.
        self._max_value_bytes = self.pool.shards[0].max_value_bytes
        #: Flush-stall SLO: a flush stalling behind more than one
        #: cleaner step's worth of GC pages is a bad event.
        self.slo = SLOTracker(threshold=float(pages_per_step))
        self.queue.on_stall = self.slo.record
        self.seed = seed
        # A miss in the queue's route memo asks this service's ring.
        self.queue.locate = lambda tenant, key: self.router.shard_for(
            key, tenant=tenant
        )
        self._c_deletes = self.metrics.counter("deletes")
        self._c_gets = self.metrics.counter("gets")
        self._c_flushed = self.metrics.counter("ops_flushed")
        self.observers: List[StoreObserver] = [
            StoreObserver(kv.store, sample_interval=sample_interval).attach()
            for kv in self.pool.shards
        ]

    # -- internals -------------------------------------------------------

    def shard_of(self, key: Key, tenant: Optional[Key] = None) -> int:
        """The shard index owning ``key`` under ``tenant``."""
        return self.queue.route_of(tenant, key)[0]

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
        return self.queue.put(tenant, key, value)

    def delete(self, key: Key, tenant: Optional[Key] = None) -> int:
        """Acknowledge a delete; returns the owning shard index."""
        return self.queue.delete(tenant, key)

    def get(
        self,
        key: Key,
        tenant: Optional[Key] = None,
        default: Optional[bytes] = None,
    ) -> Optional[bytes]:
        """Read-your-writes fetch: pending run first, then the shard."""
        value = self.queue.get(tenant, key, default)
        self._c_gets.value += 1
        return value

    def _puts(self) -> int:
        """Client puts acknowledged: the acknowledged ops less deletes."""
        return self._c_flushed.value + self.queue.depth - self._c_deletes.value

    def __len__(self) -> int:
        # Queued ops count once applied; flush for an exact figure.
        return sum(len(kv) for kv in self.pool.shards)

    # -- service clock ---------------------------------------------------

    def tick(self) -> None:
        """One service-clock step: age the queue (flush-on-tick), run a
        maintenance round, and advance the per-shard samplers.

        The tick is the service's idle edge: the maintenance round here
        runs in *idle* mode (every needy shard gets proactive steps up
        to the budget), whereas the rounds fired from inside a flush
        are loaded and defer all non-urgent work to this one."""
        self.queue.tick()
        self.pool.maintain(idle=True)
        for observer in self.observers:
            observer.maybe_sample()

    def flush(self) -> int:
        """Drain the ingest queue; returns ops applied."""
        return self.queue.flush_all()

    # -- observability ---------------------------------------------------

    def queue_depth_p95(self) -> int:
        """95th percentile of the queue depth across all ticks so far."""
        samples = sorted(self.queue.depth_samples)
        if not samples:
            return 0
        return samples[min(len(samples) - 1, int(0.95 * len(samples)))]

    def rows(self, meta: Optional[Dict] = None) -> Iterator[Dict]:
        """Export rows: one service-level block (meta + metrics),
        then one block per shard from its :class:`StoreObserver`."""
        header = {"type": "meta", "schema": SCHEMA_VERSION}
        header["run"] = dict(meta) if meta else {}
        header["run"].setdefault("component", "service")
        header["run"].setdefault("policy", self.pool.policy_name)
        header["run"].setdefault("shards", self.pool.n_shards)
        header["run"].setdefault("seed", self.seed)
        yield header
        row = self.metrics.snapshot().to_dict()
        row["counters"]["puts"] = self._puts()
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
