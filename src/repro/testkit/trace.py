"""Record / replay of store operation streams as compact JSONL traces.

A trace is the full recipe for one store run: the first line carries the
config, policy name, and (optionally) oracle frequencies; every
following line is one operation, encoded as a small JSON array::

    {"kind": "trace", "version": 1, "config": {...}, "policy": "mdc"}
    ["w", 17]          <- write page 17, size 1
    ["w", 3, 2]        <- write page 3, size 2
    ["t", 17]          <- trim page 17
    {"kind": "end", "ops": 3, "digest": "1f2e...", "user_writes": 2}

Replaying a trace rebuilds the store from scratch and re-applies the
operations; since the simulator is deterministic given its op stream,
the final state — captured by :func:`state_digest`, a hash over *every*
store table — is byte-identical run to run.  That is what makes a trace
a self-verifying repro case: the ``end`` record freezes the digest the
recorder observed, and ``repro replay`` recomputes and compares it.

The differential harness (:mod:`repro.testkit.differential`) records the
op stream it drives; on divergence it minimizes and saves the trace
here, so every found bug ships with a one-command reproduction.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.policies import make_policy
from repro.store.config import StoreConfig
from repro.store.errors import StoreError
from repro.store.log_store import LogStructuredStore

__all__ = ["OpTrace", "TraceError", "state_digest"]

TRACE_VERSION = 1

#: Op kinds: ("w", page_id, size) and ("t", page_id).
WRITE = "w"
TRIM = "t"


class TraceError(StoreError):
    """A trace file is malformed or does not replay as recorded."""


def state_digest(store: LogStructuredStore) -> str:
    """Deterministic digest of the complete store state.

    Covers every table the simulator owns — page table, segment table
    (including slot logs), free pool, open segments, sorting buffer,
    clock, and statistics — so two stores with equal digests are
    behaviorally indistinguishable.  Floats hash via ``repr`` (shortest
    round-trip form, stable across CPython runs and platforms).
    """
    h = hashlib.sha256()

    def feed(tag: str, value: Any) -> None:
        h.update(tag.encode())
        h.update(b"=")
        h.update(repr(value).encode())
        h.update(b";")

    feed("config", sorted(dataclasses.asdict(store.config).items()))
    feed("policy", getattr(store.policy, "name", "?"))
    feed("clock", store.clock)
    stats = store.stats
    feed(
        "stats",
        (
            stats.user_writes,
            stats.user_device_writes,
            stats.gc_writes,
            stats.trims,
            stats.segments_cleaned,
            stats.cleaned_emptiness_sum,
            stats.clean_cycles,
        ),
    )
    # Numpy columns hash via ``.tolist()``: the repr of a list of Python
    # scalars is what the digest covered when the tables were plain
    # lists, so digests stay comparable across storage layouts.
    pages = store.pages
    feed("page_seg", pages.seg.tolist())
    feed("page_slot", pages.slot.tolist())
    feed("page_carried_up2", pages.carried_up2.tolist())
    feed("page_last_write", pages.last_write.tolist())
    feed("page_size", pages.size.tolist())
    feed("page_oracle", pages.oracle_freq.tolist())
    segs = store.segments
    feed("seg_state", segs.state.tolist())
    feed("seg_live_count", segs.live_count.tolist())
    feed("seg_live_units", segs.live_units.tolist())
    feed("seg_used_units", segs.used_units.tolist())
    feed("seg_seal_time", segs.seal_time.tolist())
    feed("seg_up1", segs.up1.tolist())
    feed("seg_up2", segs.up2.tolist())
    feed("seg_up2_sum", segs.up2_sum.tolist())
    feed("seg_freq_sum", segs.freq_sum.tolist())
    feed("seg_erase_count", segs.erase_count.tolist())
    n_segs = len(segs)
    feed("slots", [segs.slot_list(s) for s in range(n_segs)])
    feed("slot_sizes", [segs.slot_size_list(s) for s in range(n_segs)])
    feed("free_list", list(store.free_list))
    feed("open_segments", sorted(store.open_segments.items()))
    if store.buffer is not None:
        order = store.buffer.order()
        sizes = store.pages.size[order]
        feed("buffer", list(zip(order.tolist(), sizes.tolist())))
    return h.hexdigest()


class OpTrace:
    """A recorded operation stream plus everything needed to replay it."""

    def __init__(
        self,
        config: StoreConfig,
        policy: str,
        frequencies: Optional[Sequence[float]] = None,
    ) -> None:
        self.config = config
        self.policy = policy
        #: Exact per-page frequencies for ``-opt`` policies (optional).
        self.frequencies = list(frequencies) if frequencies is not None else None
        self.ops: List[Tuple] = []

    # -- recording -----------------------------------------------------

    def record_write(self, page_id: int, size: int = 1) -> None:
        """Append one user write to the trace."""
        if size == 1:
            self.ops.append((WRITE, page_id))
        else:
            self.ops.append((WRITE, page_id, size))

    def record_trim(self, page_id: int) -> None:
        """Append one trim to the trace."""
        self.ops.append((TRIM, page_id))

    def __len__(self) -> int:
        return len(self.ops)

    def subset(self, ops: Sequence[Tuple]) -> "OpTrace":
        """A new trace with the same header but a different op list
        (used by divergence minimization)."""
        out = OpTrace(self.config, self.policy, self.frequencies)
        out.ops = list(ops)
        return out

    # -- replay --------------------------------------------------------

    def build_store(self) -> LogStructuredStore:
        """Fresh store exactly as the recorder configured it."""
        store = LogStructuredStore(self.config, make_policy(self.policy))
        if self.frequencies is not None:
            store.set_oracle_frequencies(self.frequencies)
        return store

    @staticmethod
    def apply(store: LogStructuredStore, op: Tuple) -> None:
        """Apply one decoded op to ``store``."""
        kind = op[0]
        if kind == WRITE:
            store.write(op[1], op[2] if len(op) > 2 else 1)
        elif kind == TRIM:
            store.trim(op[1])
        else:
            raise TraceError("unknown op kind %r" % (kind,))

    def replay(
        self,
        store: Optional[LogStructuredStore] = None,
        upto: Optional[int] = None,
    ) -> LogStructuredStore:
        """Re-apply the first ``upto`` ops (all by default); returns the
        store (a fresh one unless the caller supplied one)."""
        if store is None:
            store = self.build_store()
        ops = self.ops if upto is None else self.ops[:upto]
        apply = self.apply
        for op in ops:
            apply(store, op)
        return store

    # -- persistence ---------------------------------------------------

    def save(
        self,
        path: Union[str, pathlib.Path],
        end: Optional[Dict[str, Any]] = None,
    ) -> pathlib.Path:
        """Write the trace as JSONL; ``end`` extras (digest, counters)
        land in the trailing ``end`` record."""
        path = pathlib.Path(path)
        header = {
            "kind": "trace",
            "version": TRACE_VERSION,
            "config": dataclasses.asdict(self.config),
            "policy": self.policy,
        }
        if self.frequencies is not None:
            header["frequencies"] = self.frequencies
        footer = {"kind": "end", "ops": len(self.ops)}
        if end:
            footer.update(end)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for op in self.ops:
                fh.write(json.dumps(list(op)) + "\n")
            fh.write(json.dumps(footer, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(
        cls, path: Union[str, pathlib.Path]
    ) -> "Tuple[OpTrace, Dict[str, Any]]":
        """Read a saved trace; returns ``(trace, end_record)`` — the end
        record is empty for a trace truncated before its footer."""
        path = pathlib.Path(path)
        trace: Optional[OpTrace] = None
        end: Dict[str, Any] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(_nonempty(fh), start=1):
                try:
                    record = json.loads(line)
                except ValueError:
                    raise TraceError(
                        "corrupt trace line %d in %s" % (lineno, path)
                    ) from None
                if isinstance(record, list):
                    if trace is None:
                        raise TraceError(
                            "%s: op before trace header (line %d)" % (path, lineno)
                        )
                    trace.ops.append(tuple(record))
                elif isinstance(record, dict) and record.get("kind") == "trace":
                    if record.get("version") != TRACE_VERSION:
                        raise TraceError(
                            "unsupported trace version %r in %s"
                            % (record.get("version"), path)
                        )
                    trace = cls(
                        StoreConfig(**record["config"]),
                        record["policy"],
                        record.get("frequencies"),
                    )
                elif isinstance(record, dict) and record.get("kind") == "end":
                    end = record
                else:
                    raise TraceError(
                        "unknown record on line %d of %s" % (lineno, path)
                    )
        if trace is None:
            raise TraceError("%s contains no trace header" % path)
        if end and end.get("ops") != len(trace.ops):
            raise TraceError(
                "%s: end record says %r ops but %d were read"
                % (path, end.get("ops"), len(trace.ops))
            )
        return trace, end


def _nonempty(fh) -> Iterator[str]:
    for line in fh:
        line = line.strip()
        if line:
            yield line
