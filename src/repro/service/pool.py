"""A pool of KV shards with globally-budgeted cleaning.

Each shard is a complete :class:`~repro.kvstore.LogStructuredKVStore`
— its own device, page table, and cleaning-policy instance (policies
bind to exactly one store, so the pool always constructs per-shard
policies from the policy *name*).

The shard's sorting buffer
--------------------------

A shard runs the policy the paper evaluates, not its ablation: Section
5.3 sorts user writes by carried ``up2`` in a RAM buffer before they
reach a segment, and ``mdc`` without that buffer *is* Figure 3's
``mdc-no-sep-user``.  So a config that names no buffer gets one, sized
from the shard's own geometry (:func:`with_sort_buffer`): ``min(K,
n_segments // K)`` segments with ``K`` =
:data:`~repro.store.config.DEFAULT_SORT_BUFFER`, Figure 4's knee — the
knee where the device affords it, never more RAM than 1/K of the
device, and none at all under ``K`` segments.  An explicit non-zero
``sort_buffer_segments`` is honoured, and a policy that takes no buffer
(``uses_sort_buffer`` false) builds none whatever the config says.

Cleaning governance
-------------------

Left alone, every shard cleans reactively: the store runs cleaning
cycles inline the moment its free pool dips below ``clean_trigger``,
stalling whatever write triggered it.  The pool adds a *proactive*
layer: :meth:`StorePool.maintain` runs between ingest batches, tops up
any shard whose free pool fell below its floor — one segment above the
reactive trigger plus the segments one drain of the shard's buffer
allocates, the one rule of :mod:`repro.store.cleaner` — and meters the
work with a **global slack budget**: at most ``gc_budget`` page
relocations per maintenance round across the whole pool.

Fairness is most-starved-first, re-sorted on every pass: each pass
ranks the needy shards by free deficit (largest first, ties toward the
lower shard id) and gives each at most one step, so the ordering is
deterministic and need-driven.  A shard that stays the most starved
after its step leads the next pass too; a lone needy shard may
therefore take a whole idle round's budget, which is what it needs.

Reactive cleaning stays enabled underneath as the correctness
backstop: the budget shapes *when* cleaning happens, never whether a
write can complete.

Step granularity
----------------

Every shard is driven by an :class:`~repro.store.IncrementalCleaner`,
so the governor dispatches bounded *steps*, never whole cycles: a needy
shard gets at most ``pages_per_step`` relocations per visit (still
under the global budget), so the stall any single maintenance round
injects into the ingest path is bounded by pages, not by victim
liveness.  Rounds run in two modes:

* **loaded** (``maintain()``, fired after every flush): only shards
  *behind* — free pool below the reactive trigger, meaning the very
  next allocating write would clean inline — get a step; merely-needy
  shards are deferred, and counted in ``gc_deferred_shards``.
* **idle** (``maintain(idle=True)``, fired from the service tick):
  every needy shard gets steps, repeatedly, until the round budget is
  spent or nobody is below its floor — the idle-triggered cleaning that
  keeps the proactive headroom topped up between bursts, so that a
  drain lands in segments these rounds already freed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.kvstore import LogStructuredKVStore
from repro.obs import MetricsRegistry
from repro.policies.base import CleaningPolicy
from repro.store import IncrementalCleaner, StoreConfig
from repro.store.config import DEFAULT_SORT_BUFFER


def with_sort_buffer(config: StoreConfig) -> StoreConfig:
    """The geometry a shard is built with: ``config``, given the
    paper's sorting buffer when it names none (module docstring)."""
    if config.sort_buffer_segments:
        return config
    return config.scaled(
        sort_buffer_segments=min(
            DEFAULT_SORT_BUFFER, config.n_segments // DEFAULT_SORT_BUFFER
        )
    )


class StorePool:
    """``n_shards`` independent KV shards plus the cleaning governor.

    Args:
        n_shards: Number of shards (>= 1).
        config: Per-shard device geometry (every shard gets the same,
            through :func:`with_sort_buffer`).
        policy: Cleaning-policy *name* (each shard binds its own
            instance; a shared policy object is rejected).
        unit_bytes: KV record granularity, passed to every shard.
        gc_budget: Page relocations allowed per maintenance round,
            pool-wide (default: two segments' worth).
        metrics: Service metrics registry for governor counters.
        pages_per_step: Relocation budget per cleaner step.
    """

    def __init__(
        self,
        n_shards: int,
        config: StoreConfig,
        policy: Union[str, CleaningPolicy] = "mdc",
        unit_bytes: int = 64,
        gc_budget: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        pages_per_step: int = 32,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1, got %d" % n_shards)
        if not isinstance(policy, str):
            raise TypeError(
                "StorePool needs a policy name; policy instances bind to "
                "exactly one store and cannot be shared across shards"
            )
        self.config = config = with_sort_buffer(config)
        self.policy_name = policy
        self.unit_bytes = unit_bytes
        self.shards: List[LogStructuredKVStore] = [
            LogStructuredKVStore(config, policy=policy, unit_bytes=unit_bytes)
            for _ in range(n_shards)
        ]
        self.gc_budget = (
            gc_budget if gc_budget is not None else 2 * config.segment_units
        )
        if self.gc_budget < 1:
            raise ValueError("gc_budget must be >= 1")
        self.metrics = metrics
        self.pages_per_step = int(pages_per_step)
        #: One step driver per shard, index-aligned with ``shards``.
        self.cleaners: List[IncrementalCleaner] = [
            IncrementalCleaner(kv.store, self.pages_per_step)
            for kv in self.shards
        ]
        #: Optional :class:`~repro.obs.trace.Tracer`; when set, each
        #: maintenance round opens a ``pool.maintain`` span (shard-level
        #: clean_begin/clean_step spans nest under it via the store
        #: observers' tracer).
        self.tracer = None

    # -- shape -----------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def __len__(self) -> int:
        return len(self.shards)

    def __getitem__(self, shard: int) -> LogStructuredKVStore:
        return self.shards[shard]

    def add_shard(self) -> LogStructuredKVStore:
        """Append one fresh, empty shard (service-level rebalancing
        moves the keys)."""
        shard = LogStructuredKVStore(
            self.config, policy=self.policy_name, unit_bytes=self.unit_bytes
        )
        self.shards.append(shard)
        self.cleaners.append(
            IncrementalCleaner(shard.store, self.pages_per_step)
        )
        return shard

    # -- cleaning governance --------------------------------------------

    def maintain(self, idle: bool = False) -> int:
        """One budgeted maintenance round; returns pages relocated.

        Dispatches bounded cleaner steps most-starved-first until the
        round budget is spent — see the module docstring for the
        loaded/idle split.
        """
        tracer = self.tracer
        span = (
            tracer.start("pool.maintain", idle=idle)
            if tracer is not None
            else None
        )
        cleaners = self.cleaners
        budget = self.gc_budget
        spent_total = 0
        deferred = 0
        capped = False
        try:
            # Repeated passes only when idle; a loaded round injects at
            # most one step per urgent shard into the foreground path.
            while spent_total < budget:
                needy = [
                    (cleaner.floor - cleaner.store.free_segment_count, i)
                    for i, cleaner in enumerate(cleaners)
                    if cleaner.needs_cleaning()
                ]
                if not needy:
                    break
                needy.sort(key=lambda pair: (-pair[0], pair[1]))
                progressed = False
                for _deficit, i in needy:
                    if spent_total >= budget:
                        capped = True
                        break
                    cleaner = cleaners[i]
                    if not idle and not cleaner.behind():
                        # Loaded round: this shard still has headroom
                        # above the reactive trigger — defer its
                        # proactive work to the next idle round.
                        deferred += 1
                        continue
                    moved = cleaner.step(
                        min(self.pages_per_step, budget - spent_total)
                    )
                    if moved:
                        spent_total += moved
                        progressed = True
                        if self.metrics is not None:
                            self.metrics.counter("gc_governed_steps").inc()
                if not idle or not progressed:
                    break
        finally:
            if span is not None:
                tracer.finish(span, pages=spent_total)
        if self.metrics is not None:
            if spent_total:
                self.metrics.counter("gc_governed_pages").inc(spent_total)
            if deferred:
                self.metrics.counter("gc_deferred_shards").inc(deferred)
            if capped:
                self.metrics.counter("gc_budget_capped_rounds").inc()
        return spent_total

    # -- aggregate introspection ----------------------------------------

    def free_segments(self) -> List[int]:
        """Per-shard free-pool depth."""
        return [kv.store.free_segment_count for kv in self.shards]

    def wamp_per_shard(self) -> List[float]:
        """Per-shard cumulative write amplification."""
        return [kv.write_amplification for kv in self.shards]

    def stats_summary(self) -> Dict[str, float]:
        """Pool-wide counters: user writes, GC writes, keys, and the
        per-shard Wamp spread (max - min over shards that saw writes)."""
        user = sum(kv.store.stats.user_writes for kv in self.shards)
        gc = sum(kv.store.stats.gc_writes for kv in self.shards)
        wamps = [
            kv.write_amplification
            for kv in self.shards
            if kv.store.stats.user_writes
        ]
        return {
            "shards": float(len(self.shards)),
            "keys": float(sum(len(kv) for kv in self.shards)),
            "user_writes": float(user),
            "gc_writes": float(gc),
            "wamp_aggregate": gc / user if user else 0.0,
            "wamp_spread": (max(wamps) - min(wamps)) if wamps else 0.0,
            "cleaner_pending": float(sum(c.pending for c in self.cleaners)),
        }

    def check_consistency(self) -> None:
        """Every shard's index/store agreement (test aid)."""
        for kv in self.shards:
            kv.check_consistency()

    def __repr__(self) -> str:
        return "<StorePool shards=%d policy=%s free=%s>" % (
            len(self.shards),
            self.policy_name,
            self.free_segments(),
        )
