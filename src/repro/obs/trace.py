"""Causal spans for the sharded service, recorded from outside the code.

:class:`SpanRecorder` installs timing wrappers as *instance attributes*
over the boundary methods of the objects a run built (a ``Service``,
its router, queue, pool, shards and stores) — the same design as the
stack benchmark's recorder in ``benchmarks/stack/trace.py``, and the
same ``Class.method`` names.  Nothing in ``store/``, ``service/`` or
``kvstore/`` knows it exists: a run without it pays nothing, and
:meth:`SpanRecorder.remove` leaves every object as built.  An instance
attribute shadows its method for ``self.`` calls too, so a private
boundary such as ``LogStructuredStore._clean_until_replenished`` (the
inline cleaning a write stalls behind) is wrapped the same way.

A span is one wrapped call: its name, start and end on the shared
process clock (:func:`now_s`), its parent (the wrapped
call it ran inside) and its size (what the call returned or was handed:
ops flushed, pages relocated, slots written).  A call that raised is
marked with the exception's class name.

* **Head sampling.**  The keep/drop decision is made once per root
  span, from a :class:`random.Random` seeded with the run's seed, so
  two identical runs keep the same roots.  A dropped root records
  nothing below it: a kept child always has its parent.
* **A bound.**  At most :data:`CAPACITY` spans are held.  A span past it
  evicts the oldest whole root trees, counted in the file's header.

Spans export as JSONL rows (``type: "span"``) under a meta
header, so ``repro obs validate`` works on span files unchanged.  A
row's ``parent`` is the index of its parent among the file's span rows
(-1 for a root).  A Chrome trace-event exporter makes the same spans
loadable in Perfetto, and :func:`critical_path_report` attributes
flush-stall tail samples to their dominant child span.
"""

from __future__ import annotations

import json
import random
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

__all__ = [
    "CAPACITY",
    "SpanRecorder",
    "write_spans",
    "load_spans",
    "chrome_trace",
    "write_chrome_trace",
    "critical_path_report",
]

#: Spans a recorder holds at most; past it, the oldest root trees go.
CAPACITY = 65_536

#: The process clock's origin, captured once at first import: every
#: span of a run is stamped against it, so spans line up across files.
_EPOCH = time.perf_counter()

#: What a row's ``size`` records besides the times.
_RET = "ret"  # the return value (ops flushed, pages relocated)
_LEN = "len"  # len() of the first argument (slots written)

#: A stack entry below every recorded span's: the call runs inside a
#: root that was sampled out (or evicted), so nothing is recorded.
_SKIP = -2


def now_s() -> float:
    """Monotonic seconds since the process epoch (first import)."""
    return time.perf_counter() - _EPOCH


class SpanRecorder:
    """Bounded in-memory span log plus the wrappers that feed it.

    Args:
        sample: Head-sampling probability in ``[0, 1]``.
        seed: Seeds the per-root keep/drop draws.
    """

    def __init__(self, sample: float = 1.0, seed: int = 0) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ValueError("sample must be within [0, 1]")
        self.sample = sample
        self._draw = random.Random(seed).random
        #: ``[name, parent, start, end, size, shard, error]`` per span,
        #: in start order; ``parent`` is the parent's sequence number
        #: (-1 for a root), and ``spans[0]`` has sequence number
        #: :attr:`base`.
        self.spans: "deque[list]" = deque()
        self.base = 0
        #: Root trees evicted by the bound.
        self.trees_dropped = 0
        self._stack = [-1]
        self.installed: List[tuple] = []

    # -- wrappers ------------------------------------------------------

    def wrap(
        self,
        obj: object,
        name: str,
        size: Optional[str] = None,
        shard: Union[int, str, None] = None,
    ) -> None:
        """Time every call of ``obj``'s method named after ``name``'s
        last part, as span ``name``.  ``size`` is ``"ret"`` (the row's
        size is the return value), ``"len"`` (the first argument's
        length) or None (0).  ``shard`` is the lane the span shows in;
        ``"arg"`` takes it from the call's first argument."""
        method = name.rsplit(".", 1)[1]
        inner = getattr(obj, method)
        spans, stack, sample, draw = self.spans, self._stack, self.sample, self._draw

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent == -1:
                keep = sample >= 1.0 or draw() < sample
            else:
                keep = parent >= self.base
            if not keep:
                stack.append(_SKIP)
                try:
                    return inner(*args, **kwargs)
                finally:
                    stack.pop()
            lane = args[0] if shard == "arg" else shard
            row = [name, parent, now_s(), None, 0, lane, None]
            stack.append(self.base + len(spans))
            spans.append(row)
            if len(spans) > CAPACITY:
                self._evict()
            try:
                ret = inner(*args, **kwargs)
            except BaseException as exc:
                row[6] = type(exc).__name__
                raise
            finally:
                row[3] = now_s()
                stack.pop()
            if size is not None:
                row[4] = ret if size == _RET else len(args[0])
            return ret

        self.installed.append((obj, method, obj.__dict__.get(method)))
        setattr(obj, method, wrapper)

    def install_service(self, svc) -> "SpanRecorder":
        """Wrap the boundaries of a built ``Service``: its client ops and
        tick, the ring's lookup (memo misses only), the queue's flush,
        the pool's maintenance round, each shard's batch write and its
        store's drain, write stall and cleaning.  Returns ``self``."""
        for method in ("put", "delete", "tick"):
            self.wrap(svc, "Service." + method)
        self.wrap(svc.router, "ConsistentHashRouter.shard_for")
        self.wrap(svc.queue, "IngestQueue.flush_shard", _RET, shard="arg")
        self.wrap(svc.pool, "StorePool.maintain", _RET)
        for i, kv in enumerate(svc.pool.shards):
            self.wrap(kv, "LogStructuredKVStore.write_slots", _LEN, shard=i)
            for method in ("flush", "_clean_until_replenished", "clean_begin"):
                self.wrap(kv.store, "LogStructuredStore." + method, shard=i)
            self.wrap(kv.store, "LogStructuredStore.clean_step", _RET, shard=i)
        return self

    def remove(self) -> None:
        """Undo every wrapper, newest first; the objects are as built."""
        for obj, method, before in reversed(self.installed):
            if before is None:
                delattr(obj, method)
            else:
                setattr(obj, method, before)
        self.installed.clear()

    def _evict(self) -> None:
        """Drop the oldest root trees until the bound holds.  A tree is
        a root and the spans after it up to the next root; a call still
        running inside an evicted tree records nothing more."""
        spans = self.spans
        while len(spans) > CAPACITY:
            spans.popleft()
            self.base += 1
            while spans and spans[0][1] != -1:
                spans.popleft()
                self.base += 1
            self.trees_dropped += 1

    # -- export --------------------------------------------------------

    def rows(self) -> List[Dict[str, Any]]:
        """The held spans as export rows, in start order.  A span
        still running ends the list: every span after it runs inside it."""
        out: List[Dict[str, Any]] = []
        base = self.base
        for name, parent, start, end, size, shard, error in self.spans:
            if end is None:
                break
            row: Dict[str, Any] = {
                "type": "span",
                "name": name,
                "start": round(start, 7),
                "end": round(end, 7),
                "parent": parent - base if parent >= 0 else -1,
                "size": size,
            }
            if shard is not None:
                row["shard"] = shard
            if error is not None:
                row["error"] = error
            out.append(row)
        return out


# -- span file I/O ---------------------------------------------------


def write_spans(
    path: str,
    source: Any,
    meta: Optional[Mapping[str, Any]] = None,
) -> int:
    """Write a span JSONL file: one schema meta header, then span rows.

    ``source`` is a :class:`SpanRecorder` (its drops and bound go in the
    header) or an iterable of already-built span rows.  Returns the
    number of span rows written.
    """
    from .export import SCHEMA_VERSION  # local import: export imports nothing from here

    run: Dict[str, Any] = dict(meta) if meta else {}
    run.setdefault("component", "trace")
    if isinstance(source, SpanRecorder):
        rows: Iterable[Mapping[str, Any]] = source.rows()
        run.setdefault("trace_sample", source.sample)
        run.setdefault("ring_capacity", CAPACITY)
        run.setdefault("trees_dropped", source.trees_dropped)
    else:
        rows = source
    header = {"type": "meta", "schema": SCHEMA_VERSION, "run": run}
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
            count += 1
    return count


def _spans(rows: Iterable[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """The span rows of a file's rows, in file order (``parent`` indexes
    this list)."""
    return [dict(row) for row in rows if row.get("type") == "span"]


def load_spans(path: str) -> List[Dict[str, Any]]:
    """Load the span rows (``type: "span"``) from a span JSONL file."""
    from .export import load_rows

    return _spans(load_rows(path))


# -- Chrome trace-event export ---------------------------------------


def chrome_trace(rows: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Span rows as a Chrome trace-event JSON object (Perfetto-loadable).

    Complete (``ph: "X"``) events; ``ts``/``dur`` are microseconds on
    the shared process clock.  One lane (``tid``) per shard: a span on a
    shard's object is in lane ``shard + 1``, the service's own spans
    (client ops, ticks, ring lookups, maintenance rounds) in lane 0.
    """
    events: List[Dict[str, Any]] = []
    for i, row in enumerate(_spans(rows)):
        name = str(row["name"])
        args: Dict[str, Any] = {"span": i, "parent": row["parent"], "size": row["size"]}
        if "error" in row:
            args["error"] = row["error"]
        shard = row.get("shard")
        events.append(
            {
                "ph": "X",
                "name": name,
                "cat": name.split(".", 1)[0],
                "ts": int(round(row["start"] * 1_000_000)),
                "dur": max(int(round((row["end"] - row["start"]) * 1_000_000)), 1),
                "pid": 0,
                "tid": shard + 1 if isinstance(shard, int) else 0,
                "args": args,
            }
        )
    events.sort(key=lambda event: (event["ts"], event["tid"], event["name"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, rows: Iterable[Mapping[str, Any]]) -> int:
    """Write the Chrome trace-event form; returns the event count."""
    trace = chrome_trace(rows)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, sort_keys=True)
        handle.write("\n")
    return len(trace["traceEvents"])


# -- critical-path analysis ------------------------------------------


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile over an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(int(len(sorted_values) * q) - 1, 0)
    rank = min(rank, len(sorted_values) - 1)
    return sorted_values[rank]


def _dur(span: Mapping[str, Any]) -> float:
    return span["end"] - span["start"]


def _dominant_path(
    index: int,
    spans: Sequence[Mapping[str, Any]],
    children: Mapping[int, List[int]],
) -> List[int]:
    """Follow the longest-running child repeatedly; the drilled chain."""
    path: List[int] = []
    while children.get(index):
        index = max(children[index], key=lambda kid: (_dur(spans[kid]), -kid))
        path.append(index)
    return path


def critical_path_report(
    rows: Iterable[Mapping[str, Any]],
    tail_quantile: float = 0.99,
) -> Dict[str, Any]:
    """Attribute flush-stall tail samples to their dominant child span.

    A flush's (``IngestQueue.flush_shard``) stall pages are the summed
    ``size`` (pages relocated) of the ``LogStructuredStore.clean_step``
    spans under it — every GC page is written inside one, so this is
    the pool's GC writes while the flush ran.  The flushes at or above
    the ``tail_quantile`` of the nonzero stalls are the tail; each one's
    dominant-child chain is walked, and the deepest span on it is the
    *cause* (e.g. ``LogStructuredStore.clean_begin`` for an inline
    clean).  A sample is *attributed* when the flush's longest child
    ran at least as long as the flush's own code (its duration less its
    children's); otherwise its cause is ``(self)``.  Each sample carries
    its stall in time as well as pages: ``stall_us`` is the flush span's
    duration in microseconds.
    """
    spans = _spans(rows)
    children: Dict[int, List[int]] = {}
    for i, span in enumerate(spans):
        if 0 <= span["parent"] < i:  # a parent starts first
            children.setdefault(span["parent"], []).append(i)
    stall: Dict[int, float] = {
        i: 0.0
        for i, span in enumerate(spans)
        if span["name"] == "IngestQueue.flush_shard"
    }
    for i, span in enumerate(spans):
        if span["name"] != "LogStructuredStore.clean_step":
            continue
        owner, below = span["parent"], i
        while 0 <= owner < below and owner not in stall:
            owner, below = spans[owner]["parent"], owner
        if 0 <= owner < below:
            stall[owner] += float(span["size"])
    nonzero = sorted(value for value in stall.values() if value > 0)
    threshold = _quantile(nonzero, tail_quantile)
    tail = [i for i, value in stall.items() if value > 0 and value >= threshold]
    by_cause: Dict[str, int] = {}
    attributed = 0
    samples: List[Dict[str, Any]] = []
    for i in tail:
        path = _dominant_path(i, spans, children)
        own = _dur(spans[i]) - sum(_dur(spans[kid]) for kid in children.get(i, ()))
        if path and _dur(spans[path[0]]) >= own:
            cause = str(spans[path[-1]]["name"])
            attributed += 1
        else:
            cause = "(self)"
        by_cause[cause] = by_cause.get(cause, 0) + 1
        samples.append(
            {
                "span": i,
                "stall_pages": stall[i],
                "stall_us": _dur(spans[i]) * 1e6,
                "cause": cause,
                "chain": [str(spans[step]["name"]) for step in path],
            }
        )
    fraction = (attributed / len(tail)) if tail else 1.0
    return {
        "spans": len(spans),
        "flushes": len(stall),
        "stalled_flushes": len(nonzero),
        "tail_quantile": tail_quantile,
        "tail_threshold_pages": threshold,
        "tail_samples": len(tail),
        "attributed": attributed,
        "attribution_fraction": fraction,
        "by_cause": dict(sorted(by_cause.items(), key=lambda kv: (-kv[1], kv[0]))),
        "samples": samples[:32],
    }
