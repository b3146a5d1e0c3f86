"""Service-grade front-end over the log-structured store.

The package turns the single-store simulator into the system the
paper's deployment context implies (Section 1's "cloud data
management"-scale stores): ``n`` independent store shards behind a
consistent-hash router, client writes coalesced by a batched ingest
queue, cleaning metered across shards by a global slack budget, and
everything observable through the ``repro.obs`` JSONL schema.

Entry points:

* :class:`Service` — the in-process front-end (put/get/delete,
  ``tick``, obs export) over a fixed number of shards.
* :mod:`repro.service.harness` — the deterministic concurrent client
  harness behind ``repro serve``.
* :mod:`repro.service.latency` — the flush-stall benchmark behind
  ``repro bench latency`` (``BENCH_latency.json``).
"""

from repro.service.harness import (
    HARNESS_DISTS,
    HarnessConfig,
    HarnessResult,
    build_service,
    ops_stream,
    run_harness,
    shard_config,
)
from repro.service.ingest import IngestQueue
from repro.service.pool import StorePool
from repro.service.router import ConsistentHashRouter, RouterError, encode_key
from repro.service.service import Service

__all__ = [
    "HARNESS_DISTS",
    "ConsistentHashRouter",
    "HarnessConfig",
    "HarnessResult",
    "IngestQueue",
    "RouterError",
    "Service",
    "StorePool",
    "build_service",
    "encode_key",
    "ops_stream",
    "run_harness",
    "shard_config",
]
