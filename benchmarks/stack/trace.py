"""Span tracing from outside the program, and the per-layer metrics.

:class:`SpanRecorder` installs timing wrappers as *instance attributes*
over public methods of the objects the benchmark built -- nothing in
``src/`` is edited or monkeypatched at class level, and ``remove()``
deletes the attributes again.  Each call records a span (method, start,
end, parent) in memory; the file is written after the rep.

A layer's self time is its spans' durations minus the part their child
spans cover; what is left of the traced elapsed time after all root
spans is the benchmark's own loop, reported as ``driver``.  Wrapper
cost lands in the caller's self time, so shares of thin, often-called
layers read high; ``trace.overhead_frac`` says by how much the traced
rep ran slower than the plain ones.
"""

from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Layers, named after the modules, and the public methods that are
#: their boundaries.
LAYER_METHODS = {
    "service": ("Service.put", "Service.delete", "Service.get", "Service.tick"),
    "router": ("ConsistentHashRouter.shard_for",),
    "ingest": ("IngestQueue.flush_shard", "IngestQueue.pending_value"),
    "pool": ("StorePool.maintain",),
    "kvstore": ("LogStructuredKVStore.put_many", "LogStructuredKVStore.delete"),
    "store.write": ("LogStructuredStore.write_batch", "LogStructuredStore.trim"),
    "store.clean": ("LogStructuredStore.clean_begin", "LogStructuredStore.clean_step"),
    "policies": (
        "policy.select_victims",
        "policy.route_user_batch",
        "policy.user_sort_key",
        "policy.place_gc_batch",
    ),
}
LAYERS = tuple(LAYER_METHODS)
NAMES = tuple(name for methods in LAYER_METHODS.values() for name in methods)
_NAME_ID = {name: i for i, name in enumerate(NAMES)}
_LAYER_OF_NAME = np.asarray(
    [li for li, methods in enumerate(LAYER_METHODS.values()) for _ in methods]
)

#: What a wrapper records besides the times: the call's size.
_RET = "ret"  # the return value (ops flushed, pages relocated)
_LEN = "len"  # len() of the first argument (records, pages)
_SIZED = {
    "IngestQueue.flush_shard": _RET,
    "StorePool.maintain": _RET,
    "LogStructuredStore.clean_step": _RET,
    "LogStructuredKVStore.put_many": _LEN,
    "LogStructuredStore.write_batch": _LEN,
}


class SpanRecorder:
    """In-memory span log plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: One ``[name_id, parent, start, end, size]`` per call, in
        #: start order; ``parent`` indexes this list (-1 for a root).
        self.spans: List[list] = []
        self._stack = [-1]
        self.installed: List[Tuple[object, str]] = []

    def _wrap(self, obj: object, name: str) -> None:
        method = name.split(".")[1]
        inner = getattr(obj, method)
        name_id = _NAME_ID[name]
        sized = _SIZED.get(name)
        spans, stack, pc = self.spans, self._stack, perf_counter

        def wrapper(*args, **kwargs):
            rec = [name_id, stack[-1], 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = pc()
            try:
                ret = inner(*args, **kwargs)
            finally:
                rec[3] = pc()
                stack.pop()
            if sized is not None:
                rec[4] = ret if sized is _RET else len(args[0])
            return ret

        setattr(obj, method, wrapper)
        self.installed.append((obj, method))

    def install_service(self, svc) -> None:
        """Wrap every layer boundary of a built ``Service``."""
        for name in LAYER_METHODS["service"]:
            self._wrap(svc, name)
        self._wrap(svc.router, "ConsistentHashRouter.shard_for")
        for name in LAYER_METHODS["ingest"]:
            self._wrap(svc.queue, name)
        self._wrap(svc.pool, "StorePool.maintain")
        for kv in svc.pool.shards:
            for name in LAYER_METHODS["kvstore"]:
                self._wrap(kv, name)
            self.install_store(kv.store)

    def install_store(self, store) -> None:
        """Wrap the store and its policy."""
        for name in LAYER_METHODS["store.write"] + LAYER_METHODS["store.clean"]:
            self._wrap(store, name)
        for name in LAYER_METHODS["policies"]:
            self._wrap(store.policy, name)

    def remove(self) -> None:
        """Delete every wrapper; the objects are as built again."""
        for obj, method in self.installed:
            delattr(obj, method)
        self.installed.clear()

    def write(self, path, origin: float) -> None:
        """One JSON object per span; a span's id is its line number and
        times are seconds since ``origin``."""
        with open(path, "w") as out:
            for name_id, parent, start, end, size in self.spans:
                out.write(
                    '{"name":"%s","start":%.7f,"end":%.7f,"parent":%d,"size":%d}\n'
                    % (NAMES[name_id], start - origin, end - origin, parent, size)
                )


class Spans:
    """Column view of a recorder's spans with self times resolved."""

    def __init__(self, spans: List[list]) -> None:
        table = np.asarray(spans, dtype=np.float64).reshape(-1, 5)
        self.name = table[:, 0].astype(np.int64)
        self.parent = table[:, 1].astype(np.int64)
        self.start = table[:, 2]
        self.end = table[:, 3]
        self.size = table[:, 4]
        self.dur = self.end - self.start
        nested = self.parent >= 0
        covered = np.bincount(
            self.parent[nested], weights=self.dur[nested], minlength=len(table)
        )
        self.self_s = self.dur - covered
        self.layer = _LAYER_OF_NAME[self.name]

    def within(self, window: Tuple[float, float]) -> np.ndarray:
        return (self.start >= window[0]) & (self.end <= window[1])

    def of(self, name: str, mask: np.ndarray) -> np.ndarray:
        return mask & (self.name == _NAME_ID[name])

    def layer_self_s(self, mask: np.ndarray) -> np.ndarray:
        return np.bincount(
            self.layer[mask], weights=self.self_s[mask], minlength=len(LAYERS)
        )

    def layer_calls(self, mask: np.ndarray) -> np.ndarray:
        return np.bincount(self.layer[mask], minlength=len(LAYERS))

    def root_s(self, mask: np.ndarray) -> float:
        return float(self.dur[mask & (self.parent < 0)].sum())

    def enclosing(self, inner: np.ndarray, outer_name: str) -> np.ndarray:
        """For each span index in ``inner``, the index of its nearest
        ancestor named ``outer_name`` (-1 when there is none)."""
        target = _NAME_ID[outer_name]
        out = np.full(len(inner), -1, dtype=np.int64)
        for j, i in enumerate(inner.tolist()):
            p = self.parent[i]
            while p >= 0 and self.name[p] != target:
                p = self.parent[p]
            out[j] = p
        return out


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(rep, spans: Spans, plain_elapsed_s: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced rep, as ``name -> (value,
    unit)``.  Times are calibrated by the rep's mean factor (raw over
    calibrated elapsed); metrics of a layer the workload never enters
    read 0."""
    m: Dict[str, Tuple[float, str]] = {}
    measured = spans.within(rep.measured_window)
    setup = spans.within(rep.setup_window)
    elapsed = rep.elapsed_raw_s
    to_us = 1e6 / (elapsed / rep.elapsed_s)  # raw seconds -> calibrated us
    setup_to_us = 1e6 / (rep.setup_raw_s / rep.setup_s)

    self_s = spans.layer_self_s(measured)
    calls = spans.layer_calls(measured)
    for li, layer in enumerate(LAYERS):
        m[layer + ".calls"] = (float(calls[li]), "count")
        m[layer + ".self_us_per_op"] = (self_s[li] * to_us / rep.ops, "us")
        m[layer + ".share"] = (self_s[li] / elapsed, "ratio")
    # The ring is consulted only while the preload fills the route memo,
    # so the router's row is taken over the set-up window, per key.
    router = LAYERS.index("router")
    n_keys = int(spans.of("Service.put", setup).sum())
    m["router.calls"] = (float(spans.layer_calls(setup)[router]), "count")
    m["router.self_us_per_op"] = (
        _ratio(spans.layer_self_s(setup)[router] * setup_to_us, n_keys),
        "us",
    )
    m["router.share"] = (
        _ratio(spans.layer_self_s(setup)[router], rep.setup_raw_s),
        "ratio",
    )
    client_calls = sum(
        int(spans.of(name, measured | setup).sum())
        for name in ("Service.put", "Service.delete", "Service.get")
    )
    m["router.memo_miss_ratio"] = (
        _ratio(m["router.calls"][0] + calls[router], client_calls),
        "ratio",
    )
    m["driver.share"] = ((elapsed - spans.root_s(measured)) / elapsed, "ratio")
    m["trace.overhead_frac"] = (rep.elapsed_s / plain_elapsed_s - 1.0, "ratio")

    flushes = np.flatnonzero(
        spans.of("IngestQueue.flush_shard", measured) & (spans.size > 0)
    )
    put_many = spans.of("LogStructuredKVStore.put_many", measured)
    kv_delete = spans.of("LogStructuredKVStore.delete", measured)
    queued = spans.size[flushes].sum()
    m["ingest.ops_per_flush"] = (_ratio(queued, len(flushes)), "ops")
    m["ingest.coalesce_ratio"] = (
        _ratio(spans.size[put_many].sum() + kv_delete.sum(), queued),
        "ratio",
    )
    m["ingest.flush_p50_us"] = (_pct(spans.dur[flushes], 50) * to_us, "us")
    m["ingest.flush_p99_us"] = (_pct(spans.dur[flushes], 99) * to_us, "us")
    steps = np.flatnonzero(spans.of("LogStructuredStore.clean_step", measured))
    stall = np.zeros(len(spans.dur))
    owner = spans.enclosing(steps, "IngestQueue.flush_shard")
    np.add.at(stall, owner[owner >= 0], spans.size[steps][owner >= 0])
    m["ingest.flush_stall_p99_pages"] = (_pct(stall[flushes], 99), "pages")
    scans = spans.of("IngestQueue.pending_value", measured)
    m["ingest.pending_scan_us_per_get"] = (
        _ratio(spans.dur[scans].sum() * to_us, rep.get_ops),
        "us",
    )

    rounds = spans.of("StorePool.maintain", measured)
    m["pool.rounds"] = (float(rounds.sum()), "count")
    m["pool.gc_pages_per_round"] = (
        _ratio(spans.size[rounds].sum(), rounds.sum()),
        "pages",
    )
    m["kvstore.records_per_put_many"] = (
        _ratio(spans.size[put_many].sum(), put_many.sum()),
        "records",
    )

    writes = spans.of("LogStructuredStore.write_batch", measured)
    pages = spans.size[writes].sum()
    store_write = LAYERS.index("store.write")
    m["store.write.pages_per_call"] = (_ratio(pages, writes.sum()), "pages")
    m["store.write.us_per_page"] = (_ratio(self_s[store_write] * to_us, pages), "us")

    gc_pages = spans.size[steps].sum()
    store_clean = LAYERS.index("store.clean")
    window = rep.window
    m["store.clean.cycles"] = (
        float(spans.of("LogStructuredStore.clean_begin", measured).sum()),
        "count",
    )
    m["store.clean.gc_pages"] = (float(gc_pages), "pages")
    m["store.clean.us_per_gc_page"] = (
        _ratio(self_s[store_clean] * to_us, gc_pages),
        "us",
    )
    m["store.clean.emptiness_mean"] = (
        _ratio(window["cleaned_emptiness_sum"], window["segments_cleaned"]),
        "ratio",
    )
    m["store.clean.step_p99_us"] = (_pct(spans.dur[steps], 99) * to_us, "us")

    selections = spans.of("policy.select_victims", measured)
    m["policies.selections"] = (float(selections.sum()), "count")
    m["policies.us_per_selection"] = (
        _ratio(spans.dur[selections].sum() * to_us, selections.sum()),
        "us",
    )
    return m
