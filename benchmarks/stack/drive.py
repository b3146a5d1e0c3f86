"""One rep of one workload: set up, drive, check.

Timing protocol (every time metric): single process, single thread,
closed loop with one client -- the service is an in-process synchronous
library, so there is no arrival process to model.  Python's ``gc`` is
collected, then disabled, around each timed section.  The drive loop
runs in chunks of 4096 client write ops (one ``write_batch`` call per
chunk on the raw store); ``calib.cal()`` runs before the first chunk
and after every chunk, and chunk *i*'s time is divided by ``f_i =
mean(cal_before, cal_after) / CAL_REF_S``.  A rep returns raw and
calibrated times side by side, and every timed call's raw latency
with the factor of its chunk (``run.py`` applies it).

The correctness check runs after the timed section: the ops are
replayed into a plain dict model and compared with what the program
returned and holds.
"""

import contextlib
import gc
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, Iterator, List, Optional

import numpy as np

from calib import CAL_REF_S, cal
from gen import DELETE, GET, PUT, ServiceInputs, StoreInputs
from trace import SpanRecorder
from workloads import Spec, StoreSpec, build_service, build_store

#: Client write ops between ``Service.tick()`` calls.
TICK_EVERY = 512
#: Ticks per timed chunk (one calibration sample after each): 4096
#: write ops, like one ``write_batch`` call on the raw store.
CHUNK_TICKS = 8

#: Rep modes.
PLAIN, LATENCY, TRACED = "plain", "latency", "traced"

#: One rep's measurements, filled in as the rep proceeds.
Rep = SimpleNamespace


@contextlib.contextmanager
def _gc_paused() -> Iterator[None]:
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class _Clock:
    """Chunk times and the calibration samples around them."""

    def __init__(self) -> None:
        self.cals = [cal()]
        self.raw: List[float] = []

    def chunk_done(self, seconds: float) -> None:
        self.raw.append(seconds)
        self.cals.append(cal())

    def factors(self) -> np.ndarray:
        c = np.asarray(self.cals)
        return (c[:-1] + c[1:]) / (2.0 * CAL_REF_S)


@contextlib.contextmanager
def _setup_timed(rep: Rep) -> Iterator[None]:
    """Times the set-up block between two calibration samples, each the
    median of three kernel runs: set-up is one short interval, so one
    preempted kernel run would skew its whole factor."""
    with _gc_paused():
        before = sorted(cal() for _ in range(3))
        t0 = perf_counter()
        yield
        t1 = perf_counter()
        after = sorted(cal() for _ in range(3))
    rep.setup_raw_s = t1 - t0
    rep.setup_s = (t1 - t0) / ((before[1] + after[1]) / (2.0 * CAL_REF_S))
    rep.setup_window = (t0, t1)
    rep.cals = before + after


def _finish_timing(rep: Rep, clock: _Clock, t_begin: float) -> np.ndarray:
    """Records the measured phase's times; returns the chunk factors."""
    factors = clock.factors()
    raw = np.asarray(clock.raw)
    rep.measured_window = (t_begin, perf_counter())
    rep.elapsed_raw_s = float(raw.sum())
    rep.elapsed_s = float((raw / factors).sum())
    rep.cals += clock.cals
    return factors


_COUNTERS = (
    "user_writes",
    "user_device_writes",
    "gc_writes",
    "segments_cleaned",
    "cleaned_emptiness_sum",
)


def _stats_totals(stores) -> Dict[str, float]:
    snaps = [store.stats.snapshot() for store in stores]
    return {c: sum(getattr(s, c) for s in snaps) for c in _COUNTERS}


def _window(before: Dict, after: Dict) -> Dict:
    return {c: after[c] - before[c] for c in _COUNTERS}


# -- service workloads ---------------------------------------------------


def _tick_blocks(ops: List) -> List[List[slice]]:
    """The op stream cut where a tick falls due, grouped into chunks.

    The service clock is paced by writes: were it paced by all ops, a
    half-read mix would queue 256 writes a shard in exactly the four
    ticks after which the queue flushes by age, and whether a put or
    a tick then pays for the flush -- the put tail -- would turn on
    each seed's shard balance (its spread over ten seeds was 16 %)."""
    written = np.cumsum([op[0] != GET for op in ops])
    due = np.arange(TICK_EVERY, written[-1] + 1, TICK_EVERY)
    ends = (np.searchsorted(written, due) + 1).tolist()
    if ends[-1] != len(ops):
        ends.append(len(ops))
    blocks = [slice(a, b) for a, b in zip([0] + ends, ends)]
    return [blocks[i : i + CHUNK_TICKS] for i in range(0, len(blocks), CHUNK_TICKS)]


def _per_call(factors: np.ndarray, marks: List[int]) -> np.ndarray:
    """Each timed call's factor: that of the chunk it ran in;
    ``marks[i]`` is the number of calls timed when chunk *i* ended."""
    return np.repeat(factors, np.diff([0] + marks))


def run_service_rep(
    config,
    inputs: ServiceInputs,
    mode: str,
    recorder: Optional[SpanRecorder] = None,
) -> Rep:
    """Build a service, preload every key, drive ``inputs.ops``, check."""
    rep = Rep(mode=mode)
    with _setup_timed(rep):
        svc = build_service(config)
        if recorder is not None:
            recorder.install_service(svc)
        put = svc.put
        for tenant, key, value in inputs.preload:
            put(key, value, tenant)
        svc.flush()
    stores = [kv.store for kv in svc.pool.shards]
    before = _stats_totals(stores)

    ops = inputs.ops
    n = len(ops)
    chunks = _tick_blocks(ops)
    reads: List[Optional[bytes]] = []
    w_lat: List[float] = []
    g_lat: List[float] = []
    w_marks: List[int] = []
    g_marks: List[int] = []
    raised = 0
    put, delete, get, tick = svc.put, svc.delete, svc.get, svc.tick
    got, w_add, g_add = reads.append, w_lat.append, g_lat.append
    pc = perf_counter
    with _gc_paused():
        t_begin = pc()
        clock = _Clock()
        for chunk in chunks:
            t0 = pc()
            for span in chunk:
                block = ops[span]
                # A call that raises still counts its time and, for a
                # get, a (wrong) result: every rep records one sample
                # per call, so reps line up call by call.
                if mode == LATENCY:
                    for kind, tenant, key, value in block:
                        seen = None
                        a = pc()
                        try:
                            if kind == PUT:
                                put(key, value, tenant)
                            elif kind == GET:
                                seen = get(key, tenant)
                            else:
                                delete(key, tenant)
                        except Exception:
                            raised += 1
                        b = pc()
                        if kind == GET:
                            g_add(b - a)
                            got(seen)
                        else:
                            w_add(b - a)
                else:
                    for kind, tenant, key, value in block:
                        try:
                            if kind == PUT:
                                put(key, value, tenant)
                            elif kind == GET:
                                got(get(key, tenant))
                            else:
                                delete(key, tenant)
                        except Exception:
                            raised += 1
                            if kind == GET:
                                got(None)
                tick()
            if chunk is chunks[-1]:
                svc.flush()
            clock.chunk_done(pc() - t0)
            w_marks.append(len(w_lat))
            g_marks.append(len(g_lat))
        factors = _finish_timing(rep, clock, t_begin)
    if recorder is not None:
        recorder.remove()

    rep.window = _window(before, _stats_totals(stores))
    rep.ops = n
    rep.get_ops = sum(1 for op in ops if op[0] == GET)
    rep.write_ops = n - rep.get_ops
    if mode == LATENCY:
        rep.write_lat_raw_s = np.asarray(w_lat)
        rep.write_lat_factor = _per_call(factors, w_marks)
        rep.get_lat_raw_s = np.asarray(g_lat)
        rep.get_lat_factor = _per_call(factors, g_marks)
    rep.failed = raised + _check_service(svc, inputs, reads)
    svc.close()
    return rep


def _check_service(svc, inputs: ServiceInputs, reads: List[Optional[bytes]]) -> int:
    """Wrong reads + wrong final keys + failed structural checks."""
    model: Dict[tuple, bytes] = {}
    for tenant, key, value in inputs.preload:
        model[(tenant, key)] = value
    expected: List[Optional[bytes]] = []
    for kind, tenant, key, value in inputs.ops:
        if kind == PUT:
            model[(tenant, key)] = value
        elif kind == DELETE:
            model.pop((tenant, key), None)
        else:
            expected.append(model.get((tenant, key)))
    failed = abs(len(reads) - len(expected))
    failed += sum(1 for seen, want in zip(reads, expected) if seen != want)
    get = svc.get
    failed += sum(
        1
        for tenant, key, _ in inputs.preload
        if get(key, tenant) != model.get((tenant, key))
    )
    if len(svc) != len(model):
        failed += 1
    try:
        svc.pool.check_consistency()
    except AssertionError:
        failed += 1
    return failed


# -- raw store workload --------------------------------------------------


def run_store_rep(
    spec: StoreSpec,
    inputs: StoreInputs,
    mode: str,
    recorder: Optional[SpanRecorder] = None,
) -> Rep:
    """Build a store, load every page, drive ``inputs.pages`` through
    ``write_batch``; the counts are taken over the second half, once
    the initial load's placement has been cleaned away."""
    rep = Rep(mode=mode)
    n_pages = spec.config.user_pages
    with _setup_timed(rep):
        store = build_store(spec)
        if recorder is not None:
            recorder.install_store(store)
        store.load_sequential(n_pages)

    pages = inputs.pages
    n = len(pages)
    batch = spec.batch
    half = (n // batch // 2) * batch
    raised = 0
    with _gc_paused():
        t_begin = perf_counter()
        clock = _Clock()
        for start in range(0, n, batch):
            if start == half:
                before = _stats_totals([store])
            chunk = pages[start : start + batch]
            t0 = perf_counter()
            try:
                store.write_batch(chunk)
            except Exception:
                raised += 1
            clock.chunk_done(perf_counter() - t0)
        factors = _finish_timing(rep, clock, t_begin)
    if recorder is not None:
        recorder.remove()

    rep.window = _window(before, _stats_totals([store]))
    rep.ops = n
    rep.get_ops = 0
    rep.write_ops = rep.window["user_writes"]
    # The client call here is one write_batch, so the chunk times are
    # the write latencies (in every mode).
    rep.write_lat_raw_s = np.asarray(clock.raw)
    rep.write_lat_factor = factors
    rep.failed = raised + _check_store(store, n_pages, pages)
    return rep


def _check_store(store, n_pages: int, pages: np.ndarray) -> int:
    """Pages whose last-write clock disagrees with a replay + failed
    structural checks."""
    expected = np.arange(1, n_pages + 1, dtype=np.int64)
    np.maximum.at(
        expected, pages, n_pages + 1 + np.arange(len(pages), dtype=np.int64)
    )
    failed = int((store.pages.last_write != expected).sum())
    if store.live_page_count() != n_pages:
        failed += 1
    if store.stats.user_writes != n_pages + len(pages):
        failed += 1
    try:
        store.check_invariants()
    except AssertionError:
        failed += 1
    return failed


def run_rep(spec: Spec, config, inputs, mode: str, recorder=None) -> Rep:
    """One rep of either kind of workload."""
    if isinstance(spec, StoreSpec):
        return run_store_rep(spec, inputs, mode, recorder)
    return run_service_rep(config, inputs, mode, recorder)
