"""Parallel job execution for experiment sweeps: a persistent worker
pool.

Workers are started **once per sweep** (forked by default; any
multiprocessing start method works, spawn pays a one-time interpreter
bootstrap per worker) and then stream jobs: the parent ships each
pre-expanded spec dict over the worker's pipe and the worker sends one
result message back.  Per job, the only thing pickled is the small spec
dict and the result payload — the job runner callable crosses the
process boundary exactly once per worker, at start — which is what
removed the fork-per-job overhead that made 4-worker sweeps run slower
than serial.

Supervision lives entirely in the parent (pool level):

* a job that raises reports the exception over the pipe and can be
  retried on any worker;
* a worker that dies mid-job (segfault, OOM-kill, ``os._exit``) is
  detected through its process sentinel; the job is retried and the
  worker is **recycled** — a fresh replacement is started, so one crash
  never poisons the pool.

Results travel back as plain dicts (see
:func:`repro.sweep.spec.result_to_dict`), so the parent never unpickles
arbitrary objects from a half-dead child.

Determinism: a job's behavior is fully determined by its
:class:`~repro.sweep.spec.JobSpec` (the workload seed is part of the
spec), so scheduling order, worker count, pool start method, and
retries cannot change any result.  The determinism suite asserts sweeps
are byte-identical across ``workers=1``, a fork pool, and a spawn pool.
"""

from __future__ import annotations

import collections
import dataclasses
import multiprocessing
import multiprocessing.connection
import os
import random
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.sweep.manifest import Manifest
from repro.sweep.spec import JobSpec, result_to_dict, run_job
from repro.testkit.failpoints import failpoint

#: Worker-bound message telling the worker to exit its job loop.
_SHUTDOWN = None


def execute_job(spec_dict: Dict) -> Dict:
    """Default job runner: rebuild the spec, simulate, serialize.

    Runs inside the worker process.  The simulator draws randomness only
    from the workload's own seeded generator; the global ``random`` seed
    below is defense-in-depth so a policy that ever reached for ambient
    randomness would still be deterministic per job.
    """
    spec = JobSpec.from_dict(spec_dict)
    failpoint("sweep.executor.pre_job", spec=spec)
    random.seed(int(spec.digest(), 16))
    payload = result_to_dict(run_job(spec))
    failpoint("sweep.executor.post_job", spec=spec, payload=payload)
    return payload


class ObsJobRunner:
    """A job runner that also records each job's observability rows.

    Mirrors :func:`execute_job` but threads a per-job JSONL file
    (``<metrics_dir>/<digest>.jsonl``) through
    :func:`~repro.sweep.spec.run_job` — per-job files because jobs run
    in separate processes that cannot share one append stream.  The
    report layer merges them into the sweep's ``metrics.jsonl`` in spec
    order after the sweep finishes.

    A plain picklable class (not a closure) so it survives the spawn
    start method as well as fork.
    """

    def __init__(
        self, metrics_dir: str, sample_interval: Optional[int] = None
    ) -> None:
        self.metrics_dir = str(metrics_dir)
        self.sample_interval = sample_interval

    def job_metrics_path(self, digest: str) -> str:
        return os.path.join(self.metrics_dir, "%s.jsonl" % digest)

    def __call__(self, spec_dict: Dict) -> Dict:
        spec = JobSpec.from_dict(spec_dict)
        failpoint("sweep.executor.pre_job", spec=spec)
        random.seed(int(spec.digest(), 16))
        payload = result_to_dict(
            run_job(
                spec,
                observe=self.job_metrics_path(spec.digest()),
                sample_interval=self.sample_interval,
            )
        )
        failpoint("sweep.executor.post_job", spec=spec, payload=payload)
        return payload


def _pool_worker_main(job_runner: Callable, conn) -> None:
    """Worker process body: receive specs, run them, reply, repeat.

    The runner arrives once, through the process arguments; each loop
    iteration moves only one spec dict in and one result message out.
    A ``None`` message is the shutdown signal.
    """
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is _SHUTDOWN or message is None:
                break
            job_id, spec_dict = message
            try:
                payload = job_runner(spec_dict)
                outcome = (job_id, "ok", payload)
            except BaseException as exc:  # report failures of any stripe
                outcome = (job_id, "error", "%s: %s" % (type(exc).__name__, exc))
            try:
                conn.send(outcome)
            except Exception:
                break
    finally:
        try:
            conn.close()
        except Exception:
            pass


@dataclasses.dataclass(frozen=True)
class FailedJob:
    """A job that exhausted its retries."""

    digest: str
    label: str
    attempts: int
    error: str


@dataclasses.dataclass(frozen=True)
class ProgressEvent:
    """Snapshot passed to the ``progress`` callback after every job."""

    done: int
    skipped: int
    failed: int
    total: int
    elapsed: float
    eta: Optional[float]
    label: str
    status: str  # "done" | "skipped" | "retry" | "failed"


@dataclasses.dataclass
class SweepStats:
    """Outcome accounting for one :func:`run_sweep` call."""

    total: int = 0
    executed: int = 0
    skipped: int = 0
    failed: List[FailedJob] = dataclasses.field(default_factory=list)
    #: Effective concurrency the sweep ran with, after the executor
    #: clamp (never more workers than runnable jobs or CPUs).
    workers: int = 1
    #: The caller's pre-clamp request.
    workers_requested: int = 1
    #: ``"inline"`` (workers<=1, no processes) or the multiprocessing
    #: start method of the pool (``"fork"`` / ``"spawn"`` /
    #: ``"forkserver"``).
    pool_mode: str = "inline"
    #: Workers replaced after a crash.
    worker_recycles: int = 0


class _PoolWorker:
    """Parent-side handle of one pool worker."""

    __slots__ = ("proc", "conn", "spec", "attempt")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        #: The job currently on this worker (None = idle).
        self.spec: Optional[JobSpec] = None
        self.attempt = 0

    @property
    def busy(self) -> bool:
        return self.spec is not None


def run_sweep(
    specs: Sequence[JobSpec],
    workers: int = 1,
    manifest: Optional[Manifest] = None,
    retries: int = 1,
    job_runner: Callable[[Dict], Dict] = execute_job,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    start_method: Optional[str] = None,
) -> "tuple[Dict[str, Dict], SweepStats]":
    """Run a job grid, return ``(results_by_digest, stats)``.

    Args:
        specs: The grid; duplicate digests are collapsed.
        workers: Requested concurrency.  The executor clamps the pool to
            ``min(workers, runnable jobs, cpu_count)`` — extra workers
            past either bound only add scheduling overhead — and records
            both the request and the effective size in the stats.  Any
            request ``> 1`` still buys per-process isolation: even when
            the clamp shrinks the pool to one, jobs run in a worker
            process with crash containment.  ``<= 1`` runs jobs inline
            in this process (no process overhead, no isolation).
        manifest: Optional journal.  Jobs already recorded in it are
            skipped and their stored results returned; newly finished
            jobs are appended, so a killed sweep resumes where it died.
        retries: Additional attempts after a failed first one.  A job
            still failing after ``1 + retries`` attempts lands in
            ``stats.failed`` (the sweep itself keeps going).
        job_runner: The callable executed in the workers.  Shipped to
            each worker once, at pool start — it must be picklable (a
            module-level function, ``functools.partial`` of one, or a
            picklable class instance; never a closure).  Tests inject
            misbehaving runners to exercise the failure paths.
        progress: Callback invoked after every skip/finish/retry/failure.
        start_method: Multiprocessing start method for the pool
            (``"fork"``, ``"spawn"``, ``"forkserver"``); None uses the
            platform default.  Results are identical either way — only
            the bootstrap cost differs.
    """
    start = time.perf_counter()
    requested = max(1, workers)
    stats = SweepStats(workers=requested, workers_requested=requested)

    unique: Dict[str, JobSpec] = {}
    for spec in specs:
        unique.setdefault(spec.digest(), spec)
    stats.total = len(unique)

    results: Dict[str, Dict] = {}
    done_records = manifest.completed() if manifest is not None else {}

    def emit(label: str, status: str) -> None:
        if progress is None:
            return
        elapsed = time.perf_counter() - start
        remaining = stats.total - stats.skipped - stats.executed - len(stats.failed)
        eta = None
        if stats.executed > 0 and remaining > 0:
            per_job = elapsed / stats.executed
            eta = per_job * remaining / max(1, stats.workers)
        progress(
            ProgressEvent(
                done=stats.executed,
                skipped=stats.skipped,
                failed=len(stats.failed),
                total=stats.total,
                elapsed=elapsed,
                eta=eta,
                label=label,
                status=status,
            )
        )

    pending: "collections.deque[tuple[JobSpec, int]]" = collections.deque()
    for digest, spec in unique.items():
        record = done_records.get(digest)
        if record is not None:
            results[digest] = record["result"]
            stats.skipped += 1
            emit(spec.label, "skipped")
        else:
            pending.append((spec, 1))

    def finish_ok(spec: JobSpec, attempt: int, payload: Dict) -> None:
        digest = spec.digest()
        failpoint("sweep.executor.pre_record", spec=spec, digest=digest)
        results[digest] = payload
        stats.executed += 1
        if manifest is not None:
            manifest.record(
                digest=digest, label=spec.label, result=payload, attempts=attempt
            )
        emit(spec.label, "done")

    def finish_failure(spec: JobSpec, attempt: int, error: str) -> bool:
        """Requeue if attempts remain; returns True when requeued."""
        if attempt <= retries:
            pending.append((spec, attempt + 1))
            emit(spec.label, "retry")
            return True
        stats.failed.append(
            FailedJob(
                digest=spec.digest(),
                label=spec.label,
                attempts=attempt,
                error=error,
            )
        )
        emit(spec.label, "failed")
        return False

    if requested <= 1 or not pending:
        # Inline execution: no pool, no isolation.
        stats.workers = 1 if requested <= 1 else 0
        while pending:
            spec, attempt = pending.popleft()
            try:
                payload = job_runner(spec.to_dict())
            except Exception as exc:
                finish_failure(spec, attempt, "%s: %s" % (type(exc).__name__, exc))
            else:
                finish_ok(spec, attempt, payload)
        return results, stats

    # ------------------------------------------------------------------
    # Pool execution
    # ------------------------------------------------------------------
    ctx = multiprocessing.get_context(start_method)
    stats.pool_mode = ctx.get_start_method()
    # Executor-layer clamp: never more workers than runnable jobs or
    # CPUs (a request > 1 keeps process isolation even when clamped to
    # a single worker).
    pool_size = max(1, min(requested, len(pending), default_workers()))
    stats.workers = pool_size

    def spawn_worker() -> _PoolWorker:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        # Not daemonic, and it need not be: an orphaned worker exits on
        # its own, because losing the parent closes the pipe and the
        # worker's recv sees EOF.
        proc = ctx.Process(
            target=_pool_worker_main,
            args=(job_runner, child_conn),
        )
        proc.start()
        child_conn.close()
        return _PoolWorker(proc, parent_conn)

    def dispatch(worker: _PoolWorker) -> None:
        spec, attempt = pending.popleft()
        worker.conn.send((spec.digest(), spec.to_dict()))
        worker.spec = spec
        worker.attempt = attempt

    def recycle(worker: _PoolWorker, pool: List[_PoolWorker]) -> None:
        """Replace a dead worker if there is still work for it."""
        _terminate(worker.proc)
        try:
            worker.conn.close()
        except Exception:
            pass
        pool.remove(worker)
        if pending:
            stats.worker_recycles += 1
            pool.append(spawn_worker())

    pool: List[_PoolWorker] = [spawn_worker() for _ in range(pool_size)]
    try:
        while pending or any(w.busy for w in pool):
            for worker in pool:
                if pending and not worker.busy:
                    dispatch(worker)

            waitables = [w.conn for w in pool if w.busy]
            waitables += [w.proc.sentinel for w in pool]
            if not waitables:
                continue
            # Block until a result or a worker death wakes us — polling
            # would steal CPU from the workers (measurable on a one-core
            # box).
            multiprocessing.connection.wait(waitables)

            for worker in list(pool):
                if not worker.busy:
                    if not worker.proc.is_alive():
                        # A worker died between jobs (startup failure or
                        # an exit after replying); replace it if needed.
                        recycle(worker, pool)
                    continue
                outcome = None
                crashed = False
                if worker.conn.poll():
                    try:
                        outcome = worker.conn.recv()
                    except EOFError:
                        crashed = True
                elif not worker.proc.is_alive():
                    crashed = True
                else:
                    continue

                spec, attempt = worker.spec, worker.attempt
                if crashed:
                    worker.spec = None
                    # Requeue (finish_failure) BEFORE the recycle
                    # decision, so the replacement worker is spawned
                    # when the retry is the only work left.
                    finish_failure(
                        spec,
                        attempt,
                        "worker died without reporting (exitcode %s)"
                        % (worker.proc.exitcode,),
                    )
                    recycle(worker, pool)
                    continue
                worker.spec = None
                _, status, payload = outcome
                if status == "ok":
                    finish_ok(spec, attempt, payload)
                else:
                    finish_failure(spec, attempt, payload)
    finally:
        for worker in pool:
            try:
                worker.conn.send(_SHUTDOWN)
            except Exception:
                pass
        deadline = time.monotonic() + 5.0
        for worker in pool:
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            _terminate(worker.proc)
            try:
                worker.conn.close()
            except Exception:
                pass

    return results, stats


def _terminate(proc: multiprocessing.process.BaseProcess) -> None:
    """Terminate, escalating to SIGKILL if the worker ignores SIGTERM."""
    if not proc.is_alive():
        return
    proc.terminate()
    proc.join(timeout=2)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=2)


def default_workers() -> int:
    """Default worker count: the machine's CPUs (at least 1)."""
    return max(1, os.cpu_count() or 1)
