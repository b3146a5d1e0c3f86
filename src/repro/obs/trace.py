"""Hierarchical causal spans for the sharded service.

A *span* is one timed region of work — a ``Service.put``, an ingest
flush, an inline clean — with a parent link, so a stalled flush can be
decomposed into the child that caused the stall instead of vanishing
into a histogram bucket.  The machinery follows the same discipline as
the rest of ``repro.obs``:

* **Deterministic IDs.**  Span and trace IDs are blake2b digests of
  ``(seed, kind, counter)`` — two identical seeded runs produce the
  same ID sequence, so span files diff cleanly and tests can assert on
  IDs.  Wall times come from :mod:`repro.obs.clock` and are *not* part
  of the identity.
* **Head-based sampling.**  The keep/drop decision is made once, at the
  root of each trace, and inherited by every descendant — a sampled-out
  trace drops atomically, so a retained child can never be orphaned.
* **Detached cost.**  Every hook site guards with
  ``tracer is not None`` (one attribute test), matching the observer
  budget: no allocation, no call, when tracing is off.

Finished spans land in a ring-buffered :class:`SpanCollector` (oldest
dropped and counted, like :class:`~repro.obs.events.EventBus`) and
export as schema-v2 JSONL rows (``type: "span"``) with their own meta
header, so ``repro obs validate`` works on span files unchanged.  A
Chrome trace-event exporter makes the same spans loadable in Perfetto,
and :func:`critical_path_report` attributes flush-stall tail samples to
their dominant child span.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from .clock import now_s

__all__ = [
    "Span",
    "SpanCollector",
    "Tracer",
    "write_spans",
    "load_spans",
    "chrome_trace",
    "write_chrome_trace",
    "critical_path_report",
]

#: Sentinel: ``start(parent=_STACK)`` means "parent is the current top
#: of the span stack" (the common, nested case).  Passing an explicit
#: span (or ``None`` for a detached root) bypasses the stack — for
#: work that overlaps, where stack discipline would lie.
_STACK = object()


def _det_id(seed: int, kind: str, counter: int) -> str:
    """A 16-hex-char deterministic ID from (seed, kind, counter)."""
    raw = ("%d:%s:%d" % (seed, kind, counter)).encode("ascii")
    return hashlib.blake2b(raw, digest_size=8).hexdigest()


class Span:
    """One timed region: identity, causal links, wall interval, attrs.

    ``start_s``/``end_s`` are seconds on the shared process clock
    (:func:`repro.obs.clock.now_s`); ``clock`` optionally records the
    store's logical update clock for joining against metrics rows.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start_s",
        "end_s",
        "clock",
        "attrs",
        "sampled",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        start_s: float,
        sampled: bool = True,
        clock: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.clock = clock
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}
        self.sampled = sampled

    @property
    def duration_s(self) -> float:
        """Wall duration; 0.0 while the span is still open."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def to_row(self) -> Dict[str, Any]:
        """The schema-v2 JSONL row form (``type: "span"``)."""
        row: Dict[str, Any] = {
            "type": "span",
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_us": int(round(self.start_s * 1_000_000)),
            "dur_us": int(round(self.duration_s * 1_000_000)),
        }
        if self.clock is not None:
            row["clock"] = self.clock
        if self.attrs:
            row["attrs"] = dict(self.attrs)
        return row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Span(%s %s parent=%s dur=%.6fs)" % (
            self.name,
            self.span_id,
            self.parent_id,
            self.duration_s,
        )


class SpanCollector:
    """Ring buffer of finished spans, oldest dropped and counted."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._ring: "deque[Span]" = deque(maxlen=capacity)
        #: Finished, sampled spans pushed out of the ring by newer ones.
        self.dropped = 0

    def add(self, span: Span) -> None:
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(span)

    def spans(self) -> List[Span]:
        """Retained spans, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)


class Tracer:
    """Causal span factory: deterministic IDs, a span stack, head sampling.

    Args:
        seed: Folded into every ID so identical seeded runs produce
            identical ID sequences.
        capacity: Ring size of the backing :class:`SpanCollector`.
        sample: Head-sampling probability in ``[0, 1]``.  Decided once
            per trace (at the root), deterministically from the trace
            counter, and inherited by all descendants.
    """

    def __init__(
        self,
        seed: int = 0,
        capacity: int = 65536,
        sample: float = 1.0,
        collector: Optional[SpanCollector] = None,
    ) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ValueError("sample must be within [0, 1]")
        self.seed = seed
        self.sample = sample
        self.collector = collector if collector is not None else SpanCollector(capacity)
        self._stack: List[Span] = []
        self._span_counter = 0
        self._trace_counter = 0

    # -- sampling ---------------------------------------------------

    def _head_sample(self, trace_counter: int) -> bool:
        if self.sample >= 1.0:
            return True
        if self.sample <= 0.0:
            return False
        digest = hashlib.blake2b(
            ("%d:sample:%d" % (self.seed, trace_counter)).encode("ascii"),
            digest_size=8,
        ).digest()
        fraction = int.from_bytes(digest, "big") / float(1 << 64)
        return fraction < self.sample

    # -- span lifecycle ---------------------------------------------

    def start(
        self,
        name: str,
        clock: Optional[int] = None,
        parent: Any = _STACK,
        **attrs: Any,
    ) -> Span:
        """Open a span.

        With the default ``parent`` the span nests under the current
        top of the stack (and is pushed, so later ``start`` calls nest
        under it).  An explicit ``parent`` span — or ``None`` for a
        detached root — bypasses the stack entirely; that is the form
        for overlapping work.
        """
        on_stack = parent is _STACK
        parent_span: Optional[Span]
        if on_stack:
            parent_span = self._stack[-1] if self._stack else None
        else:
            parent_span = parent
        if parent_span is None:
            self._trace_counter += 1
            trace_id = _det_id(self.seed, "t", self._trace_counter)
            parent_id = None
            sampled = self._head_sample(self._trace_counter)
        else:
            trace_id = parent_span.trace_id
            parent_id = parent_span.span_id
            sampled = parent_span.sampled
        self._span_counter += 1
        span = Span(
            trace_id=trace_id,
            span_id=_det_id(self.seed, "s", self._span_counter),
            parent_id=parent_id,
            name=name,
            start_s=now_s(),
            sampled=sampled,
            clock=clock,
            attrs=dict(attrs) if attrs else None,
        )
        if on_stack:
            self._stack.append(span)
        return span

    def finish(self, span: Span, **attrs: Any) -> Span:
        """Close a span; sampled spans enter the collector ring."""
        span.end_s = now_s()
        if attrs:
            span.attrs.update(attrs)
        try:
            self._stack.remove(span)
        except ValueError:
            pass  # detached span, or already popped
        if span.sampled:
            self.collector.add(span)
        return span

    @contextmanager
    def span(
        self, name: str, clock: Optional[int] = None, **attrs: Any
    ) -> Iterator[Span]:
        """Context-manager form for non-hot-path call sites."""
        opened = self.start(name, clock=clock, **attrs)
        try:
            yield opened
        finally:
            self.finish(opened)

    # -- export ------------------------------------------------------

    @property
    def dropped(self) -> int:
        return self.collector.dropped

    def rows(self) -> List[Dict[str, Any]]:
        """Finished sampled spans as schema-v2 rows, oldest first."""
        return [span.to_row() for span in self.collector.spans()]


# -- span file I/O ---------------------------------------------------


def write_spans(
    path: str,
    source: Any,
    meta: Optional[Mapping[str, Any]] = None,
) -> int:
    """Write a span JSONL file: one schema meta header, then span rows.

    ``source`` is a :class:`Tracer`, a :class:`SpanCollector`, or an
    iterable of already-built span rows (dicts).  The header makes the
    file self-describing, so ``repro obs validate`` accepts it.
    Returns the number of span rows written.
    """
    from .export import SCHEMA_VERSION  # local import: export imports nothing from here

    if isinstance(source, Tracer):
        rows: Iterable[Dict[str, Any]] = source.rows()
        dropped = source.collector.dropped
        capacity = source.collector.capacity
    elif isinstance(source, SpanCollector):
        rows = [span.to_row() for span in source.spans()]
        dropped = source.dropped
        capacity = source.capacity
    else:
        rows = [dict(row) for row in source]
        dropped = None
        capacity = None
    run: Dict[str, Any] = dict(meta) if meta else {}
    run.setdefault("component", "trace")
    if dropped is not None:
        run.setdefault("spans_dropped", dropped)
    if capacity is not None:
        run.setdefault("ring_capacity", capacity)
    header = {"type": "meta", "schema": SCHEMA_VERSION, "run": run}
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
            count += 1
    return count


def load_spans(path: str) -> List[Dict[str, Any]]:
    """Load the span rows (``type: "span"``) from a span JSONL file."""
    from .export import load_rows

    return [row for row in load_rows(path) if row.get("type") == "span"]


# -- Chrome trace-event export ---------------------------------------


def chrome_trace(rows: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Span rows as a Chrome trace-event JSON object (Perfetto-loadable).

    Complete (``ph: "X"``) events; ``ts``/``dur`` are microseconds on
    the shared process clock.  The ``tid`` lane is the span's ``shard``
    attribute when present, so per-shard work separates visually.
    """
    events: List[Dict[str, Any]] = []
    for row in rows:
        if row.get("type") not in (None, "span"):
            continue
        if "span" not in row or "start_us" not in row:
            continue
        attrs = dict(row.get("attrs") or {})
        args: Dict[str, Any] = {
            "trace": row.get("trace"),
            "span": row.get("span"),
            "parent": row.get("parent"),
        }
        if "clock" in row:
            args["clock"] = row["clock"]
        args.update(attrs)
        name = str(row.get("name", "span"))
        tid = attrs.get("shard", 0)
        if not isinstance(tid, int):
            tid = 0
        events.append(
            {
                "ph": "X",
                "name": name,
                "cat": name.split(".", 1)[0],
                "ts": int(row["start_us"]),
                "dur": max(int(row.get("dur_us", 0)), 1),
                "pid": 0,
                "tid": tid,
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


def _dominant_path(
    row: Mapping[str, Any],
    children: Mapping[Optional[str], List[Dict[str, Any]]],
) -> List[Dict[str, Any]]:
    """Follow the longest-duration child repeatedly; the drilled chain."""
    path: List[Dict[str, Any]] = []
    current = row
    seen = set()
    while True:
        span_id = current.get("span")
        if span_id in seen:  # defensive: malformed cyclic input
            break
        seen.add(span_id)
        kids = children.get(span_id)
        if not kids:
            break
        dominant = max(kids, key=lambda kid: (kid.get("dur_us", 0), kid.get("span", "")))
        path.append(dominant)
        current = dominant
    return path


def critical_path_report(
    rows: Iterable[Mapping[str, Any]],
    flush_name: str = "queue.flush",
    stall_key: str = "stall_pages",
    tail_quantile: float = 0.99,
) -> Dict[str, Any]:
    """Attribute flush-stall tail samples to their dominant child span.

    Selects the flush spans whose ``stall_pages`` attribute sits at or
    above the ``tail_quantile`` of the (nonzero-stall) flush
    distribution, then walks each one's dominant-child chain — the
    deepest span on that chain is the *cause* (e.g. ``store.clean_step``
    for an inline clean, ``pool.maintain`` for governance work).
    """
    spans = [dict(row) for row in rows if row.get("type") in (None, "span")]
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for span in spans:
        children.setdefault(span.get("parent"), []).append(span)
    flushes = [span for span in spans if span.get("name") == flush_name]
    stalls = sorted(
        float((span.get("attrs") or {}).get(stall_key, 0.0)) for span in flushes
    )
    nonzero = [value for value in stalls if value > 0]
    threshold = _quantile(nonzero, tail_quantile) if nonzero else 0.0
    tail = [
        span
        for span in flushes
        if float((span.get("attrs") or {}).get(stall_key, 0.0)) >= threshold
        and float((span.get("attrs") or {}).get(stall_key, 0.0)) > 0
    ]
    by_cause: Dict[str, int] = {}
    attributed = 0
    samples: List[Dict[str, Any]] = []
    for span in tail:
        path = _dominant_path(span, children)
        if path:
            cause = str(path[-1].get("name"))
            attributed += 1
        else:
            cause = "(self)"
        by_cause[cause] = by_cause.get(cause, 0) + 1
        samples.append(
            {
                "span": span.get("span"),
                "stall_pages": float((span.get("attrs") or {}).get(stall_key, 0.0)),
                "cause": cause,
                "chain": [str(step.get("name")) for step in path],
            }
        )
    fraction = (attributed / len(tail)) if tail else 1.0
    return {
        "spans": len(spans),
        "flushes": len(flushes),
        "stalled_flushes": len(nonzero),
        "tail_quantile": tail_quantile,
        "tail_threshold_pages": threshold,
        "tail_samples": len(tail),
        "attributed": attributed,
        "attribution_fraction": fraction,
        "by_cause": dict(sorted(by_cause.items(), key=lambda kv: (-kv[1], kv[0]))),
        "samples": samples[:32],
    }
