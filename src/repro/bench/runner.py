"""Simulation driver shared by benchmarks, examples, and the CLI.

Mirrors the paper's measurement procedure (Section 6.2): load the store
to its fill factor, stream many multiples of the device size worth of
updates so write amplification stabilizes, and report Wamp over the tail
window.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Union

import numpy as np

from repro.policies import make_policy
from repro.policies.base import CleaningPolicy
from repro.store import LogStructuredStore, StoreConfig, WindowStats
from repro.workloads import Workload


@dataclasses.dataclass(frozen=True)
class SimulationResult:
    """Outcome of one policy/workload/config simulation."""

    policy: str
    workload: str
    config: StoreConfig
    total_user_writes: int
    window: WindowStats
    extras: Dict[str, float]

    @property
    def wamp(self) -> float:
        """The paper's metric: cleaning writes per logical user write."""
        return self.window.write_amplification

    @property
    def device_wamp(self) -> float:
        """Cleaning writes per user write that reached the device."""
        return self.window.device_write_amplification

    @property
    def mean_cleaned_emptiness(self) -> float:
        """Average segment emptiness ``E`` at cleaning time."""
        return self.window.mean_cleaned_emptiness

    def summary(self) -> str:
        """One-line human-readable result."""
        return "%-22s %-18s Wamp=%.3f  E_cleaned=%.3f" % (
            self.policy,
            self.workload,
            self.wamp,
            self.mean_cleaned_emptiness,
        )


def _needs_oracle(policy: CleaningPolicy) -> bool:
    """The ``-opt`` variants consume exact frequencies."""
    return (
        getattr(policy, "estimator", None) == "exact"
        or getattr(policy, "exact", False) is True
    )


def prepare_store(
    config: StoreConfig,
    policy: Union[str, CleaningPolicy],
    workload: Workload,
) -> LogStructuredStore:
    """Build a store, install the oracle if the policy needs one, and run
    the initial sequential load of the workload's page population."""
    if isinstance(policy, str):
        policy = make_policy(policy)
    store = LogStructuredStore(config, policy)
    if _needs_oracle(policy):
        store.set_oracle_frequencies(workload.frequencies())
    store.load_sequential(workload.n_pages)
    return store


def drive(store: LogStructuredStore, workload: Workload, n_writes: int) -> None:
    """Apply ``n_writes`` workload updates to the store.

    Each workload batch goes through the vectorized
    :meth:`~repro.store.LogStructuredStore.write_batch` engine, which is
    state-identical to per-page :meth:`~repro.store.LogStructuredStore.write`
    (the testkit's differential tests pin this down) but several times
    faster.
    """
    remaining = n_writes
    obs = store.obs
    for batch in workload.batches(n_writes):
        store.write_batch(np.asarray(batch, dtype=np.int64))
        remaining -= len(batch)
        if obs is not None:
            obs.maybe_sample()
    assert remaining == 0


def run_simulation(
    config: StoreConfig,
    policy: Union[str, CleaningPolicy],
    workload: Workload,
    total_writes: Optional[int] = None,
    write_multiplier: float = 30.0,
    measure_fraction: float = 0.5,
    observe: Union[None, str, "MetricsWriter"] = None,
    sample_interval: Optional[int] = None,
) -> SimulationResult:
    """Fixed-length run: warm up, then measure Wamp over the tail.

    Args:
        total_writes: Updates to apply after the initial load; defaults
            to ``write_multiplier`` times the page population (the paper
            writes 100x the device size at full scale).
        measure_fraction: Fraction of the run, at the tail, over which
            write amplification is measured.
        observe: Attach a :class:`~repro.obs.StoreObserver` for the
            measured run and export its rows — a JSONL path, or anything
            with ``write_rows``: a shared :class:`~repro.obs.MetricsWriter`
            (so an experiment's runs concatenate into one
            ``metrics.jsonl``) or a sweep job's in-memory row list.
        sample_interval: Time-series sample spacing in update ticks
            (default: a quarter of the page population).
    """
    if not 0.0 < measure_fraction <= 1.0:
        raise ValueError("measure_fraction must be in (0, 1]")
    if isinstance(policy, str):
        policy = make_policy(policy)
    store = prepare_store(config, policy, workload)
    observer = None
    writer = None
    if observe is not None:
        from repro.obs import MetricsWriter, StoreObserver

        writer = (
            observe
            if hasattr(observe, "write_rows")
            else MetricsWriter(str(observe))
        )
        observer = StoreObserver(store, sample_interval=sample_interval)
        observer.attach()
        observer.sample_now()  # the post-load baseline row
    total = total_writes if total_writes is not None else int(
        write_multiplier * workload.n_pages
    )
    warmup = int(total * (1.0 - measure_fraction))
    try:
        drive(store, workload, warmup)
        mark = store.stats.snapshot()
        drive(store, workload, total - warmup)
        window = store.stats.window_since(mark)
        if observer is not None:
            observer.sample_now()  # the final row, whatever the clock
            run_meta = {
                "policy": policy.name,
                "workload": workload.name,
                "fill_factor": config.fill_factor,
                "n_segments": config.n_segments,
                "segment_units": config.segment_units,
                "total_writes": total,
                "wamp": window.write_amplification,
            }
            writer.write_rows(observer.rows(run_meta))
    finally:
        if observer is not None:
            observer.detach()
    return SimulationResult(
        policy=policy.name,
        workload=workload.name,
        config=config,
        total_user_writes=store.stats.user_writes,
        window=window,
        extras=_policy_extras(policy),
    )


def _policy_extras(policy: CleaningPolicy) -> Dict[str, float]:
    extras: Dict[str, float] = {}
    n_logs = getattr(policy, "n_logs", None)
    if n_logs is not None:
        extras["n_logs"] = float(n_logs)
    return extras
