"""`repro top`: a live terminal view over a telemetry JSONL file.

A running service (``repro serve --telemetry-out``) appends one
``type: "telemetry"`` row per tick — per-shard Wamp/fill/free pool/
buffered units/queue depth/stall plus the SLO burn state.  ``repro
top`` tails that file and renders the latest row as a fixed-width
frame, like ``top`` over a procfile.

The file-following primitive (:func:`follow_lines`) is poll-based with
bounded exponential backoff — no inotify dependency — and is shared
with ``repro obs tail --follow``.  It tolerates partial trailing lines
(a writer mid-append) by buffering until the newline arrives, and
resets from the top if the file is truncated or replaced.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, TextIO

__all__ = ["follow_lines", "render_top", "run_top"]


def follow_lines(
    path: str,
    poll_s: float = 0.2,
    max_poll_s: float = 2.0,
    idle_timeout_s: Optional[float] = None,
    from_start: bool = True,
    sleep: Callable[[float], None] = time.sleep,
) -> Iterator[str]:
    """Yield complete lines from ``path`` as they are appended.

    Polls with exponential backoff from ``poll_s`` up to ``max_poll_s``
    while idle, resetting to ``poll_s`` whenever data arrives.  With an
    ``idle_timeout_s`` the generator stops after that much idle wall
    time (tests and ``--follow-for``); ``None`` follows forever.
    A shrinking file (truncate/replace) restarts from offset 0.
    """
    offset = 0 if from_start else _size_of(path)
    buffer = ""
    delay = poll_s
    idle = 0.0
    while True:
        size = _size_of(path)
        if size < offset:  # truncated or replaced: start over
            offset = 0
            buffer = ""
        chunk = ""
        if size > offset:
            with open(path, "r", encoding="utf-8") as handle:
                handle.seek(offset)
                chunk = handle.read()
                offset = handle.tell()
        if chunk:
            buffer += chunk
            lines = buffer.split("\n")
            buffer = lines.pop()  # partial trailing line (or "")
            got_line = False
            for line in lines:
                if line.strip():
                    got_line = True
                    yield line
            if got_line:
                delay = poll_s
                idle = 0.0
                continue
        if idle_timeout_s is not None and idle >= idle_timeout_s:
            return
        sleep(delay)
        idle += delay
        delay = min(delay * 2, max_poll_s)


def _size_of(path: str) -> int:
    import os

    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# -- frame rendering --------------------------------------------------


def _bar(fraction: float, width: int = 10) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def render_top(row: Mapping[str, Any]) -> str:
    """Render one telemetry row as a fixed-width text frame."""
    lines: List[str] = []
    slo = row.get("slo") or {}
    burning = bool(slo.get("burning"))
    lines.append(
        "repro top  t=%0.1fs  clock=%s  tick=%s  queue=%s  flush_p99=%s pg"
        % (
            float(row.get("t_s", 0.0)),
            row.get("clock", "?"),
            row.get("tick", "?"),
            row.get("queue_depth", "?"),
            row.get("flush_stall_p99_pages", "?"),
        )
    )
    lines.append(
        "SLO  objective=%.2f  threshold=%.0f pg  bad=%s/%s  worst_burn=%.2f  "
        "sustained_burn=%.2f  %s"
        % (
            float(slo.get("objective", 0.0)),
            float(slo.get("threshold", 0.0)),
            slo.get("bad", 0),
            slo.get("samples", 0),
            float(slo.get("worst_burn", 0.0)),
            float(slo.get("sustained_burn", 0.0)),
            "BURNING" if burning else "ok",
        )
    )
    windows = slo.get("windows") or []
    if windows:
        lines.append(
            "     burn by window: "
            + "  ".join(
                "%d:%0.2f" % (stats.get("window", 0), float(stats.get("burn_rate", 0.0)))
                for stats in windows
            )
        )
    lines.append("")
    lines.append(
        "%5s  %7s  %-16s  %6s  %6s  %7s  %6s  %10s"
        % ("shard", "wamp", "fill", "free", "buf", "queue", "stall", "stall_p99")
    )
    for shard in row.get("shards") or []:
        fill = float(shard.get("fill", 0.0))
        lines.append(
            "%5s  %7.4f  %s %0.2f  %6s  %6s  %7s  %6s  %10.1f"
            % (
                shard.get("shard", "?"),
                float(shard.get("wamp", 0.0)),
                _bar(fill),
                fill,
                shard.get("free_segments", "?"),
                shard.get("buffered_units", "?"),
                shard.get("queue_depth", "?"),
                shard.get("write_stalls", 0),
                float(shard.get("stall_p99_pages", 0.0)),
            )
        )
    return "\n".join(lines)


def run_top(
    path: str,
    refresh_s: float = 1.0,
    iterations: Optional[int] = None,
    out: Optional[TextIO] = None,
    clear: bool = True,
    idle_timeout_s: Optional[float] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Tail ``path`` and render each new telemetry row; returns frames drawn.

    ``iterations`` bounds the number of frames (tests, ``--frames``);
    ``None`` runs until the follower stops (idle timeout) or Ctrl-C.
    """
    stream = out if out is not None else sys.stdout
    frames = 0
    try:
        for line in follow_lines(
            path,
            poll_s=min(refresh_s, 0.25),
            max_poll_s=max(refresh_s, 1.0),
            idle_timeout_s=idle_timeout_s,
            sleep=sleep,
        ):
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if row.get("type") != "telemetry":
                continue
            frame = render_top(row)
            if clear:
                stream.write("\x1b[2J\x1b[H")
            stream.write(frame + "\n")
            stream.flush()
            frames += 1
            if iterations is not None and frames >= iterations:
                break
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return frames
