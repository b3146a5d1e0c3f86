"""Checkpointed run journal: one JSONL file per sweep.

The first line is a header identifying the grid; every subsequent line
records one finished job::

    {"kind": "sweep", "version": 1, "experiment": "fig5-zipf-80-20",
     "grid_digest": "ab12..."}
    {"kind": "job", "digest": "9f3c...", "label": "mdc/zipfian-0.99/...",
     "attempts": 1, "result": {...}}

A record holds no clock reading, so two runs of one grid journal the
same lines.  Older manifests also carry a per-job ``elapsed`` and one
``run`` record per executor invocation; loading ignores both.

Appends are flushed and fsynced, so after a crash or kill at most the
line being written is lost.  :meth:`Manifest.load` therefore tolerates a
torn *final* line (the kill case) but refuses corruption anywhere else,
which would mean something other than an interrupted append happened to
the file.

Job identity is the spec's content digest: any change to policy, seed,
config, or run length produces a different digest, so a resumed sweep
can never serve a stale result for a changed job.  The header's
``grid_digest`` (hash of all job digests) additionally rejects resuming
a manifest that belongs to a different grid outright.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, Optional, Union

from repro.sweep.spec import SweepError
from repro.testkit.failpoints import failpoint

#: File name used inside a sweep output directory.
MANIFEST_NAME = "manifest.jsonl"

_VERSION = 1


class Manifest:
    """Append-only journal of completed sweep jobs."""

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)
        self._fh = None
        self._completed: Optional[Dict[str, Dict[str, Any]]] = None
        self._header: Optional[Dict[str, Any]] = None
        #: Byte offset to truncate to before the first append, set when
        #: :meth:`load` found a torn final line.  Appending after a torn
        #: tail without truncating would glue the new record onto the
        #: partial line, corrupting the file for every later load.
        self._truncate_to: Optional[int] = None

    @classmethod
    def in_dir(cls, out_dir: Union[str, pathlib.Path]) -> "Manifest":
        """The conventional manifest location inside an output dir."""
        return cls(pathlib.Path(out_dir) / MANIFEST_NAME)

    def exists(self) -> bool:
        return self.path.exists()

    # -- reading -------------------------------------------------------

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Parse the journal; returns completed jobs keyed by digest.

        A torn final line (interrupted append) is dropped silently;
        malformed content elsewhere raises :class:`SweepError`.
        """
        completed: Dict[str, Dict[str, Any]] = {}
        header: Optional[Dict[str, Any]] = None
        self._truncate_to = None
        if not self.path.exists():
            self._completed, self._header = completed, header
            return completed
        raw = self.path.read_text()
        lines = raw.splitlines()
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                if index == len(lines) - 1:
                    # Torn tail from a mid-append kill: drop it, and
                    # remember where it starts so the next append
                    # truncates it away instead of gluing onto it.
                    tail = len(line.encode("utf-8"))
                    if raw.endswith("\n"):
                        tail += 1
                    self._truncate_to = len(raw.encode("utf-8")) - tail
                    break
                raise SweepError(
                    "corrupt manifest line %d in %s" % (index + 1, self.path)
                )
            kind = record.get("kind")
            if kind == "sweep":
                header = record
            elif kind == "job":
                completed[record["digest"]] = record
            elif kind != "run":  # an older executor's record; ignored
                raise SweepError(
                    "unknown record kind %r in %s" % (kind, self.path)
                )
        self._completed, self._header = completed, header
        return completed

    def completed(self) -> Dict[str, Dict[str, Any]]:
        """Completed job records (loads the file on first use)."""
        if self._completed is None:
            self.load()
        return self._completed

    # -- writing -------------------------------------------------------

    def ensure_header(self, experiment: str, grid_digest: str) -> None:
        """Write the header, or verify an existing one matches.

        A mismatched ``grid_digest`` means the manifest was produced by
        a different grid (other parameters, other seed, other
        ``--quick``) — resuming would silently merge unrelated runs, so
        it is an error.
        """
        if self._completed is None:
            self.load()
        if self._header is not None:
            if self._header.get("grid_digest") != grid_digest:
                raise SweepError(
                    "manifest %s belongs to grid %s of experiment %r, not "
                    "the requested grid %s; use a fresh --out directory"
                    % (
                        self.path,
                        self._header.get("grid_digest"),
                        self._header.get("experiment"),
                        grid_digest,
                    )
                )
            return
        self._append(
            {
                "kind": "sweep",
                "version": _VERSION,
                "experiment": experiment,
                "grid_digest": grid_digest,
            }
        )
        self._header = {
            "kind": "sweep",
            "version": _VERSION,
            "experiment": experiment,
            "grid_digest": grid_digest,
        }

    def record(
        self,
        digest: str,
        label: str,
        result: Dict[str, Any],
        attempts: int,
    ) -> None:
        """Journal one finished job (durable before returning)."""
        record = {
            "kind": "job",
            "digest": digest,
            "label": label,
            "attempts": attempts,
            "result": result,
        }
        self._append(record)
        if self._completed is not None:
            self._completed[digest] = record

    def _append(self, record: Dict[str, Any]) -> None:
        failpoint("sweep.manifest.pre_append", record=record, path=self.path)
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self._truncate_to is not None and self.path.exists():
                with open(self.path, "r+b") as tail_fh:
                    tail_fh.truncate(self._truncate_to)
            self._truncate_to = None
            self._fh = open(self.path, "a", encoding="utf-8")
        line = json.dumps(record, sort_keys=True) + "\n"
        # The torn-write failpoint lets crash tests leave exactly the
        # partial line a mid-append kill would: its context carries the
        # handle and full line so a hook can write a prefix, then raise.
        failpoint(
            "sweep.manifest.torn_write", fh=self._fh, line=line, path=self.path
        )
        self._fh.write(line)
        self._fh.flush()
        failpoint("sweep.manifest.pre_fsync", record=record, path=self.path)
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Manifest":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
