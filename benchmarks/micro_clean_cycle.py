"""A cleaning cycle's and a write run's fixed cost, timed as a run
makes them.

Builds one shard at ``svc-ingest-zipf``'s geometry (the stack
benchmark's most-loaded shard: 525 segments of 32 units, fill 0.55,
4,620 keys of 1-96 byte values at 32 bytes a unit) behind the service's
cleaning governor and observer, drives Zipf(0.99) puts through it in
flush-sized batches, and times every ``write_batch``,
``_invalidate_run`` (the run engine's invalidation, inside
``write_batch``), ``select_victims``, ``clean_begin`` and
``clean_step`` call the run makes.  It prints q1 / median / q3 per
call, in microseconds of this machine.

The shard is driven twice, once per placement of the run engine: under
MDC, with the sorting buffer :func:`repro.service.pool.with_sort_buffer`
gives it (buffered runs and drains), and under greedy, which takes no
buffer (direct runs that roll into fresh segments).  No stack benchmark
workload drives the direct runs.

Each drive is then made twice more from the same seed, so the timed
run carries no check:

* with every selection checked against a reference built from a full
  stable ``argsort`` of
  :meth:`~repro.policies.base.CleaningPolicy.rank_columns` and the batch
  rule of ``select_victims`` written out per segment;
* with every ``write_batch`` of the drive replayed through the scalar
  :meth:`~repro.store.LogStructuredStore.write`, one page at a time,
  whose final :func:`~repro.testkit.trace.state_digest` must equal the
  timed run's.

The script exits 1 if, in either drive, any selection differs from its
reference or from the timed run's, or the scalar replay ends in another
state; it gates no time and writes no file.

    python3 benchmarks/micro_clean_cycle.py                 # 300,000 puts a drive, ~20 s
    python3 benchmarks/micro_clean_cycle.py --ops 20000 --seed 3

The program measured is ``src/repro`` of the same checkout.
"""

import argparse
import gc
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs import StoreObserver  # noqa: E402
from repro.service.pool import StorePool  # noqa: E402
from repro.store import StoreConfig  # noqa: E402
from repro.testkit.trace import state_digest  # noqa: E402

CONFIG = StoreConfig(n_segments=525, segment_units=32, fill_factor=0.55)
KEYS = 4620
UNIT_BYTES = 32
MAX_VALUE_BYTES = 96
THETA = 0.99
#: Records per ``put_many``: a 256-record service flush over 4 shards.
FLUSH = 64
#: Flushes per idle maintenance round (the service ticks every 512
#: writes, 128 a shard).
TICK = 2


def reference_selection(policy, candidates, n, deficit, page_cap) -> List[int]:
    """``select_victims``'s batch rule over a full stable argsort of
    ``rank_columns``, one segment at a time."""
    segs = policy.store.segments
    ids = np.asarray(candidates, dtype=np.int64)
    n = policy.store.config.clean_batch if n is None else n
    need = max(1, deficit) * segs.capacity
    order = np.argsort(policy.rank_columns(segs, ids), kind="stable")
    keep: List[int] = []
    reclaim = live = 0
    for seg in ids[order].tolist():
        avail = segs.capacity - int(segs.live_units[seg])
        if avail <= 0:
            continue
        live += int(segs.live_count[seg])
        if page_cap is not None and len(keep) >= n and live > page_cap:
            break
        keep.append(seg)
        reclaim += avail
        if len(keep) >= n and reclaim >= need:
            break
    return keep


class Timers:
    """Instance-attribute wrappers that time each call in microseconds
    and keep every selection's victims."""

    def __init__(self) -> None:
        self.us: Dict[str, List[float]] = {
            "write_batch": [],
            "_invalidate_run": [],
            "select_victims": [],
            "clean_begin": [],
            "clean_step": [],
        }
        self.selections: List[List[int]] = []

    def install(self, store) -> None:
        self.time(store, "write_batch")
        self.time(store, "_invalidate_run")
        self.time(store.policy, "select_victims")
        self.time(store, "clean_begin")
        self.time(store, "clean_step")

    def time(self, obj, name: str) -> None:
        inner = getattr(obj, name)
        out = self.us[name]
        selections = self.selections if name == "select_victims" else None

        def timed(*args, **kwargs):
            t0 = perf_counter()
            result = inner(*args, **kwargs)
            out.append((perf_counter() - t0) * 1e6)
            if selections is not None:
                selections.append(result)
            return result

        setattr(obj, name, timed)


class Checks:
    """A ``select_victims`` wrapper that compares each selection with
    :func:`reference_selection` at the same instant."""

    def __init__(self) -> None:
        self.selections: List[List[int]] = []
        self.mismatches = 0

    def install(self, store) -> None:
        policy = store.policy
        inner = policy.select_victims

        def checked(candidates, n=None, deficit=0, page_cap=None):
            expected = reference_selection(policy, candidates, n, deficit, page_cap)
            victims = [int(v) for v in inner(candidates, n, deficit, page_cap=page_cap)]
            self.mismatches += victims != expected
            self.selections.append(victims)
            return victims

        policy.select_victims = checked


class ScalarWrites:
    """A ``write_batch`` replacement that feeds each page through the
    scalar ``write``, the write engine's reference."""

    def install(self, store) -> None:
        write = store.write

        def scalar(page_ids, sizes=None):
            for i, pid in enumerate(page_ids.tolist()):
                write(pid, 1 if sizes is None else int(sizes[i]))

        store.write_batch = scalar


def zipf_keys(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` keys, P(rank r) ~ 1/(r+1)**THETA, ranks scattered over
    the key space by a permutation."""
    cdf = np.cumsum(1.0 / np.arange(1, KEYS + 1, dtype=np.float64) ** THETA)
    cdf /= cdf[-1]
    ranks = np.minimum(np.searchsorted(cdf, rng.random(count), side="right"), KEYS - 1)
    return rng.permutation(KEYS)[ranks]


#: The two drives: the buffered run engine, then the direct one.
POLICIES = ("mdc", "greedy")


def run(ops: int, seed: int, policy: str, probe):
    """Drive one ``policy`` shard with ``ops`` puts from ``seed``,
    ``probe`` installed on its store; returns the store."""
    rng = np.random.default_rng(seed)
    pool = StorePool(1, CONFIG, policy=policy, unit_bytes=UNIT_BYTES)
    kv = pool[0]
    StoreObserver(kv.store).attach()
    lengths = rng.integers(1, MAX_VALUE_BYTES + 1, size=KEYS + ops).tolist()
    kv.put_many((key, b"x" * lengths[key]) for key in range(KEYS))
    keys = zipf_keys(rng, ops).tolist()
    probe.install(kv.store)
    gc.collect()
    gc.disable()
    try:
        for i, start in enumerate(range(0, ops, FLUSH)):
            kv.put_many(
                (keys[j], b"x" * lengths[KEYS + j])
                for j in range(start, min(start + FLUSH, ops))
            )
            pool.maintain()
            if i % TICK == TICK - 1:
                pool.maintain(idle=True)
    finally:
        gc.enable()
    kv.store.check_invariants()
    return kv.store


def quartiles(values: List[float]) -> str:
    if not values:
        return "%8s %9s %8s" % ("-", "-", "-")
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return "%8.1f %9.1f %8.1f" % (q1, q2, q3)


def drive(ops: int, seed: int, policy: str) -> bool:
    """Time one drive under ``policy`` and check it; prints its rows and
    returns whether both checks passed."""
    timers, checks = Timers(), Checks()
    store = run(ops, seed, policy, timers)
    timed = state_digest(store)
    run(ops, seed, policy, checks)
    scalar = state_digest(run(ops, seed, policy, ScalarWrites()))
    print(
        "one svc-ingest-zipf shard (%d segments x %d units, fill %.2f, %s, %s), "
        "seed %d, %d puts" % (
            CONFIG.n_segments, CONFIG.segment_units, CONFIG.fill_factor, policy,
            "buffered runs" if store.buffer is not None else "direct runs",
            seed, ops,
        )
    )
    print("%-15s %6s %8s %9s %8s" % ("call", "calls", "q1_us", "median_us", "q3_us"))
    for name, values in timers.us.items():
        print("%-15s %6d %s" % (name, len(values), quartiles(values)))
    selections = len(checks.selections)
    same = checks.selections == [[int(v) for v in s] for s in timers.selections]
    print(
        "reference selection: %d of %d equal; the timed run's selections %s"
        % (
            selections - checks.mismatches,
            selections,
            "are the same" if same else "DIFFER",
        )
    )
    print(
        "scalar write reference: final state %s"
        % ("the same" if scalar == timed else "DIFFERS")
    )
    return not checks.mismatches and same and scalar == timed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ops", type=int, default=300_000, help="puts to drive")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    passed = [drive(args.ops, args.seed, policy) for policy in POLICIES]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
