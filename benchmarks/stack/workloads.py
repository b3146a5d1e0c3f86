"""The four workloads: what each builds, feeds and why.

Op counts are stated for ``--seconds FULL_SECONDS``; ``run.py`` scales
them by ``seconds / FULL_SECONDS`` and never changes anything else, so
two runs with equal ``--seconds`` and ``--seed`` do identical work.

Services are built with the default cleaning governance (no
``cleaner`` / ``pages_per_step`` / ``gc_budget`` arguments): the
benchmark measures whatever the program's default is, and keeps
running when ROADMAP item 3 removes those knobs.  The ring seed is
fixed; ``--seed`` reaches only :mod:`gen`.
"""

import math
from typing import NamedTuple, Optional, Union

import gen
from repro.policies import make_policy
from repro.service.router import ConsistentHashRouter
from repro.service.service import Service
from repro.store import LogStructuredStore, StoreConfig

#: ``--seconds`` at which the op counts below apply unscaled.
FULL_SECONDS = 40

N_SHARDS = 4
UNIT_BYTES = 32
RING_SEED = 0


class StoreSpec(NamedTuple):
    """Raw ``LogStructuredStore`` driven with ``write_batch``."""

    why: str
    config: StoreConfig
    writes: int
    theta: float
    batch: int = 4096


class ServiceSpec(NamedTuple):
    """4-shard ``Service`` driven one client call at a time."""

    why: str
    n_tenants: int
    keys_per_tenant: int
    theta: Optional[float]
    max_value_bytes: int
    delete_frac: float
    get_frac: float
    segment_units: int
    fill: float
    ops: int


Spec = Union[StoreSpec, ServiceSpec]

_INGEST = dict(
    n_tenants=4,
    keys_per_tenant=4096,
    theta=0.99,
    max_value_bytes=96,
    delete_frac=0.03,
    segment_units=32,
    fill=0.55,
)

WORKLOADS = {
    "sim-mdc-zipf": StoreSpec(
        why="the paper's Figure 5 cell on the raw store: large write_batch "
        "calls, so store.write, store.clean and policies do all the work "
        "and kvstore/service none",
        config=StoreConfig(
            n_segments=512,
            segment_units=64,
            fill_factor=0.8,
            clean_trigger=4,
            clean_batch=8,
            sort_buffer_segments=16,
        ),
        writes=600_000,
        theta=0.99,
    ),
    "svc-ingest-zipf": ServiceSpec(
        why="skewed writes at low fill: cleaning is cheap and a third of "
        "the ops coalesce, so per-op Python in service/ingest and the "
        "small-batch fixed cost of write_batch dominate",
        get_frac=0.0,
        ops=300_000,
        **_INGEST,
    ),
    "svc-clean-uniform": ServiceSpec(
        why="uniform one-unit puts at worst-shard fill 0.90: nothing "
        "coalesces and Wamp is high, so store.clean and policies are the "
        "fattest layers and the put tail is the cleaning stall",
        n_tenants=4,
        keys_per_tenant=16384,
        theta=None,
        max_value_bytes=32,
        delete_frac=0.0,
        get_frac=0.0,
        segment_units=64,
        fill=0.90,
        ops=250_000,
    ),
    "svc-mixed-read": ServiceSpec(
        why="the svc-ingest-zipf service with half the ops reads: get pays "
        "the ingest queue's pending scan, so speeding one use of the queue "
        "at the other's cost shows here",
        get_frac=0.50,
        ops=400_000,
        **_INGEST,
    ),
}


def scaled_ops(spec: Spec, seconds: float) -> int:
    """The measured-phase op count at ``--seconds``; whole chunks for
    the store workload so every ``write_batch`` call is full."""
    scale = seconds / FULL_SECONDS
    if isinstance(spec, StoreSpec):
        return max(2, round(spec.writes * scale / spec.batch)) * spec.batch
    return max(1024, round(spec.ops * scale))


def make_inputs(spec: Spec, seed: int, seconds: float):
    """The workload's generated inputs (see :mod:`gen`)."""
    n_ops = scaled_ops(spec, seconds)
    if isinstance(spec, StoreSpec):
        return gen.store_inputs(seed, spec.config.user_pages, n_ops, spec.theta)
    return gen.service_inputs(
        seed,
        spec.n_tenants,
        spec.keys_per_tenant,
        n_ops,
        spec.theta,
        spec.max_value_bytes,
        spec.delete_frac,
        spec.get_frac,
    )


def shard_config(spec: ServiceSpec) -> StoreConfig:
    """Per-shard geometry that puts the most-loaded shard at
    ``spec.fill``: the whole key population is routed through the ring
    the service will use, and the device is sized for that shard's keys
    at the mean record size.  Cleaning trigger and batch are the
    ``StoreConfig`` defaults."""
    router = ConsistentHashRouter(N_SHARDS, seed=RING_SEED)
    load = [0] * N_SHARDS
    for t in range(spec.n_tenants):
        tenant = "t%d" % t
        for key in range(spec.keys_per_tenant):
            load[router.shard_for(key, tenant=tenant)] += 1
    mean_units = sum(
        math.ceil(size / UNIT_BYTES) for size in range(1, spec.max_value_bytes + 1)
    ) / spec.max_value_bytes
    n_segments = math.ceil(
        max(load) * mean_units / (spec.segment_units * spec.fill)
    )
    return StoreConfig(
        n_segments=n_segments,
        segment_units=spec.segment_units,
        fill_factor=spec.fill,
    )


def build_service(config: StoreConfig) -> Service:
    """A fresh service, default governance."""
    return Service(
        N_SHARDS,
        config,
        policy="mdc",
        unit_bytes=UNIT_BYTES,
        batch_size=256,
        flush_interval=4,
        max_depth=4096,
        seed=RING_SEED,
    )


def build_store(spec: StoreSpec) -> LogStructuredStore:
    """A fresh raw store with its own MDC policy instance."""
    return LogStructuredStore(spec.config, make_policy("mdc"))
