"""Concurrent client harness: many tenants, skewed keyspaces, one pool.

The "million-user" scenario scaled down to a deterministic simulation:
``n_clients`` simulated clients, each bound to a tenant, issue puts and
deletes against a sharded :class:`~repro.service.Service`.  Every
tenant owns a private keyspace of ``keys_per_tenant`` keys, and each
client samples it through one of the repository's workload generators
(Zipfian, hot-cold, uniform) — so tenants have realistic skew, and
different tenants' hot sets land on different shards.

Concurrency is *simulated interleaving*: a seeded RNG picks which
client issues each successive op, so the op stream, the exported obs
metrics and the :class:`HarnessResult` are pure functions of the
:class:`HarnessConfig`.  The harness keeps no clock: time is measured
by ``benchmarks/stack`` alone.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.obs import MetricsWriter, SpanRecorder, write_spans
from repro.service.router import ConsistentHashRouter
from repro.service.service import Service
from repro.store import StoreConfig
from repro.workloads import (
    HotColdWorkload,
    UniformWorkload,
    Workload,
    ZipfianWorkload,
)

#: Distribution names the harness accepts.
HARNESS_DISTS = ("uniform", "zipf-80-20", "zipf-90-10", "hotcold")

#: Ops drawn from the interleaving RNG per chunk.
_CHUNK = 4096


@dataclasses.dataclass(frozen=True)
class HarnessConfig:
    """Everything that determines a harness run (op stream + service).

    Two runs with equal configs produce byte-identical obs exports.
    """

    n_shards: int = 4
    n_clients: int = 8
    n_tenants: int = 4
    ops: int = 200_000
    keys_per_tenant: int = 4096
    dist: str = "zipf-80-20"
    value_bytes: int = 96
    delete_frac: float = 0.03
    policy: str = "mdc"
    unit_bytes: int = 32
    segment_units: int = 32
    target_fill: float = 0.55
    clean_trigger: int = 2
    clean_batch: int = 4
    batch_size: int = 256
    flush_interval: int = 4
    max_depth: int = 4096
    tick_every: int = 512
    gc_budget: Optional[int] = None
    pages_per_step: int = 32
    sample_interval: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dist not in HARNESS_DISTS:
            raise ValueError(
                "dist must be one of %s, got %r" % (",".join(HARNESS_DISTS), self.dist)
            )
        if self.n_clients < 1 or self.n_tenants < 1:
            raise ValueError("n_clients and n_tenants must be >= 1")
        if self.n_tenants > self.n_clients:
            raise ValueError("every tenant needs at least one client")
        if self.ops < 1:
            raise ValueError("ops must be >= 1")
        if self.keys_per_tenant < 1:
            raise ValueError("keys_per_tenant must be >= 1")
        # A value has to fit one record, and a record one segment.
        limit = self.segment_units * self.unit_bytes
        if not 1 <= self.value_bytes <= limit:
            raise ValueError(
                "value_bytes must be in [1, %d], got %d" % (limit, self.value_bytes)
            )
        if not 0.0 <= self.delete_frac < 1.0:
            raise ValueError("delete_frac must be in [0, 1)")
        if self.tick_every < 1:
            raise ValueError("tick_every must be >= 1")

    def scaled(self, **overrides) -> "HarnessConfig":
        """A copy with some fields replaced."""
        return dataclasses.replace(self, **overrides)

    @classmethod
    def quick(cls, **overrides) -> "HarnessConfig":
        """The CI smoke shape: 4 shards, 8 clients, a small page budget."""
        base = dict(
            ops=24_000,
            keys_per_tenant=1024,
            tick_every=256,
            sample_interval=2048,
        )
        base.update(overrides)
        return cls(**base)


def _tenant_of(client: int, cfg: HarnessConfig) -> str:
    return "t%d" % (client % cfg.n_tenants)


def _client_workload(client: int, cfg: HarnessConfig) -> Workload:
    """The per-client sampler over its tenant's keyspace.

    Clients of one tenant share the keyspace *shape* (same tenant-keyed
    construction seed, so e.g. the Zipfian hot ranks are the tenant's)
    but draw independently (client-keyed stream seed).
    """
    tenant = client % cfg.n_tenants
    # Zipfian/hot-cold membership keys off the construction seed; keep
    # it per-tenant so a tenant's clients agree on which keys are hot.
    shape_seed = cfg.seed * 1_000_003 + tenant
    if cfg.dist == "uniform":
        wl = UniformWorkload(cfg.keys_per_tenant, seed=shape_seed)
    elif cfg.dist == "zipf-80-20":
        wl = ZipfianWorkload.eighty_twenty(cfg.keys_per_tenant, seed=shape_seed)
    elif cfg.dist == "zipf-90-10":
        wl = ZipfianWorkload.ninety_ten(cfg.keys_per_tenant, seed=shape_seed)
    else:
        wl = HotColdWorkload(cfg.keys_per_tenant, seed=shape_seed)
    # Distinct clients must not replay each other's draw sequence.
    wl._rng = np.random.default_rng(cfg.seed * 7_368_787 + client + 1)
    return wl


#: One harness op: ("put"|"delete", tenant, key, value_size_bytes).
HarnessOp = Tuple[str, str, int, int]


def ops_stream(cfg: HarnessConfig) -> Iterator[HarnessOp]:
    """The deterministic interleaved op stream of a harness run."""
    rng = np.random.default_rng(cfg.seed)
    workloads = [_client_workload(c, cfg) for c in range(cfg.n_clients)]
    tenants = [_tenant_of(c, cfg) for c in range(cfg.n_clients)]
    buffers: List[List[int]] = [[] for _ in range(cfg.n_clients)]
    remaining = cfg.ops
    while remaining > 0:
        take = min(_CHUNK, remaining)
        picks = rng.integers(0, cfg.n_clients, size=take)
        deletes = rng.random(take) < cfg.delete_frac
        sizes = rng.integers(1, cfg.value_bytes + 1, size=take)
        for i in range(take):
            client = int(picks[i])
            buf = buffers[client]
            if not buf:
                buf.extend(workloads[client]._sample(256)[::-1].tolist())
            key = buf.pop()
            if deletes[i]:
                yield ("delete", tenants[client], key, 0)
            else:
                yield ("put", tenants[client], key, int(sizes[i]))
        remaining -= take


def _mean_units(cfg: HarnessConfig) -> float:
    """Expected record size in store units for a uniform 1..value_bytes
    value-size draw."""
    total = sum(
        max(1, math.ceil(size / cfg.unit_bytes))
        for size in range(1, cfg.value_bytes + 1)
    )
    return total / cfg.value_bytes


def shard_config(cfg: HarnessConfig, n_shards: Optional[int] = None) -> StoreConfig:
    """Per-shard store geometry sized for the harness keyspace.

    Routes the full ``(tenant, key)`` population through the run's
    router to find the most-loaded shard, then sizes every shard so
    that shard sits at ``target_fill`` — guaranteeing headroom on the
    rest without over-provisioning the pool into a cleaning-free toy.
    """
    n = n_shards if n_shards is not None else cfg.n_shards
    router = ConsistentHashRouter(n, seed=cfg.seed)
    load = [0 for _ in range(n)]
    for tenant_idx in range(cfg.n_tenants):
        tenant = "t%d" % tenant_idx
        for key in range(cfg.keys_per_tenant):
            load[router.shard_for(key, tenant=tenant)] += 1
    worst = max(load)
    mean_units = _mean_units(cfg)
    live_units = worst * mean_units * 1.15  # routing/size-draw margin
    n_segments = int(
        math.ceil(live_units / (cfg.segment_units * cfg.target_fill))
    ) + cfg.clean_trigger + 4
    n_segments = max(n_segments, 12)
    return StoreConfig(
        n_segments=n_segments,
        segment_units=cfg.segment_units,
        fill_factor=cfg.target_fill,
        clean_trigger=cfg.clean_trigger,
        clean_batch=cfg.clean_batch,
    )


def build_service(cfg: HarnessConfig) -> Service:
    """The service a harness run drives, sized per :func:`shard_config`."""
    return Service(
        cfg.n_shards,
        shard_config(cfg),
        policy=cfg.policy,
        unit_bytes=cfg.unit_bytes,
        batch_size=cfg.batch_size,
        flush_interval=cfg.flush_interval,
        max_depth=cfg.max_depth,
        gc_budget=cfg.gc_budget,
        pages_per_step=cfg.pages_per_step,
        seed=cfg.seed,
        sample_interval=cfg.sample_interval,
    )


@dataclasses.dataclass(frozen=True)
class HarnessResult:
    """Outcome of one harness run."""

    label: str
    shards: int
    ops: int
    puts: int
    deletes: int
    wamp_per_shard: List[float]
    wamp_aggregate: float
    wamp_spread: float
    queue_depth_p95: int
    ops_per_shard: List[int]
    batches_flushed: int
    backpressure_flushes: int
    keys_live: int

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    def report(self) -> str:
        lines = [
            "%s: %d ops (%d puts, %d deletes) over %d shard(s)"
            % (self.label, self.ops, self.puts, self.deletes, self.shards),
            "  aggregate Wamp=%.4f  spread=%.4f  queue p95=%d  batches=%d"
            % (
                self.wamp_aggregate,
                self.wamp_spread,
                self.queue_depth_p95,
                self.batches_flushed,
            ),
        ]
        for i, (wamp, ops) in enumerate(zip(self.wamp_per_shard, self.ops_per_shard)):
            lines.append("  shard %d: ops=%-8d Wamp=%.4f" % (i, ops, wamp))
        return "\n".join(lines)


def drive(
    service: Service,
    ops: Iterable[HarnessOp],
    tick_every: int,
) -> Tuple[int, int]:
    """The client drive loop — the one place harness ops become
    :class:`Service` calls: apply each op, tick the service clock every
    ``tick_every`` applied ops, then drain the queue.

    Returns ``(puts, deletes)``.
    """
    puts = deletes = 0
    for op, tenant, key, size in ops:
        if op == "put":
            service.put(key, bytes(size), tenant=tenant)
            puts += 1
        else:
            service.delete(key, tenant=tenant)
            deletes += 1
        if (puts + deletes) % tick_every == 0:
            service.tick()
    service.flush()
    service.tick()
    return puts, deletes


def run_harness(
    cfg: HarnessConfig,
    metrics_out: Union[None, str, MetricsWriter] = None,
    meta: Optional[Dict] = None,
    trace_out: Optional[str] = None,
    trace_sample: float = 1.0,
) -> HarnessResult:
    """Drive the config's own deterministic :func:`ops_stream` through
    a fresh service built from it; optionally export obs rows.

    The result and the metrics export contain no wall-clock data, so
    both are identical across runs with the same config.  ``trace_out``
    adds the wall-clocked causal span file, in a *separate* file: a
    :class:`SpanRecorder` installed on the built service, head-sampled
    at ``trace_sample``.
    """
    service = build_service(cfg)
    recorder = None
    if trace_out is not None:
        recorder = SpanRecorder(sample=trace_sample, seed=cfg.seed)
        recorder.install_service(service)
    puts, deletes = drive(service, ops_stream(cfg), cfg.tick_every)
    result = _result_from_service(
        "service[%d shards]" % cfg.n_shards, service, puts, deletes
    )
    if metrics_out is not None:
        service.export_rows(metrics_out, _run_meta(cfg, meta))
    if recorder is not None:
        recorder.remove()
        write_spans(trace_out, recorder, _run_meta(cfg, meta, component="trace"))
    service.close()
    return result


def _run_meta(cfg: HarnessConfig, meta: Optional[Dict] = None, **extra) -> Dict:
    """Meta-row payload for an exported run (config only — never
    timing, which would break byte-identical exports), overlaid with
    the caller's ``meta`` and the file's own ``extra`` keys."""
    run = dataclasses.asdict(cfg)
    run["workload"] = cfg.dist
    if meta:
        run.update(meta)
    run.update(extra)
    return run


def _result_from_service(
    label: str,
    service: Service,
    puts: int,
    deletes: int,
) -> HarnessResult:
    counters = service.metrics.snapshot().counters
    wamps = service.pool.wamp_per_shard()
    summary = service.pool.stats_summary()
    ops_per_shard = [
        counters.get("shard%d_ops" % i, 0) for i in range(service.pool.n_shards)
    ]
    return HarnessResult(
        label=label,
        shards=service.pool.n_shards,
        ops=puts + deletes,
        puts=puts,
        deletes=deletes,
        wamp_per_shard=wamps,
        wamp_aggregate=summary["wamp_aggregate"],
        wamp_spread=summary["wamp_spread"],
        queue_depth_p95=service.queue_depth_p95(),
        ops_per_shard=ops_per_shard,
        batches_flushed=counters.get("batches_flushed", 0),
        backpressure_flushes=counters.get("backpressure_flushes", 0),
        keys_live=int(summary["keys"]),
    )
