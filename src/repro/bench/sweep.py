"""Experiment grids over a process pool, journaled for resume.

The paper's tables and figures are grids of independent simulations
(policy x distribution x fill factor).  A sweep runs one grid in three
steps, each through the experiment function's own loops:

1. *discover*: :func:`expand_grid` calls the experiment with a
   recording runner that captures every ``run_simulation`` call as a
   content-addressed :class:`JobSpec`;
2. *execute*: :func:`run_sweep` maps the specs over a
   :class:`~concurrent.futures.ProcessPoolExecutor` and journals each
   result to a :class:`Manifest` as it completes;
3. *replay*: the experiment runs once more with a runner that serves
   each call from the stored results, so its output is byte-identical
   to the serial run's, whether or not the sweep was killed and resumed
   on the way.

Entry points: ``repro sweep <grid>``, :func:`run_named_sweep`, and
:func:`parallel_experiment` for any function with the ``runner``
contract.  :mod:`repro.bench` does not import this module, so only a
sweep loads the pool's modules.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import os
import pathlib
import random
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.bench.experiments import (
    ExperimentOutput,
    ablation_batch_experiment,
    ablation_estimator_experiment,
    demo_experiment,
    fig3_experiment,
    fig4_experiment,
    fig5_experiment,
    table1_experiment,
    table2_experiment,
)
from repro.bench.runner import SimulationResult, run_simulation
from repro.store import StoreConfig, WindowStats
from repro.workloads import (
    HotColdWorkload,
    UniformWorkload,
    Workload,
    ZipfianWorkload,
)

#: File names inside a sweep's output directory.
MANIFEST_NAME = "manifest.jsonl"
SUMMARY_NAME = "summary.json"


class SweepError(Exception):
    """Raised for orchestration failures (unserializable jobs, a failed
    job, missing results at replay, incompatible manifests)."""


# ----------------------------------------------------------------------
# Job specs and their (de)serialization
# ----------------------------------------------------------------------

#: The workloads a job spec can name.  Each is rebuilt from its
#: constructor's arguments, which it keeps as attributes of the same name.
_WORKLOAD_KINDS = {
    "uniform": UniformWorkload,
    "zipfian": ZipfianWorkload,
    "hotcold": HotColdWorkload,
}


def workload_to_spec(workload: Workload) -> Dict[str, Any]:
    """Describe a workload as a small JSON dict from which
    :func:`workload_from_spec` rebuilds an identical instance.

    Only the stationary synthetic distributions are supported; trace
    workloads (Figure 6's TPC-C replay) would need the full trace in the
    spec, so they stay on the serial path.
    """
    for kind, cls in _WORKLOAD_KINDS.items():
        if type(workload) is cls:
            spec = {
                name: getattr(workload, name)
                for name in inspect.signature(cls).parameters
            }
            spec["kind"] = kind
            return spec
    raise SweepError(
        "workload %r cannot be expressed as a sweep job spec; "
        "run this experiment on the serial path" % (workload,)
    )


def workload_from_spec(spec: Dict[str, Any]) -> Workload:
    """Rebuild a workload from :func:`workload_to_spec` output."""
    params = dict(spec)
    kind = params.pop("kind", None)
    if kind not in _WORKLOAD_KINDS:
        raise SweepError("unknown workload kind %r" % (kind,))
    return _WORKLOAD_KINDS[kind](**params)


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One simulation of a sweep, fully determined and serializable.

    ``seed`` lives inside ``workload`` (the only source of randomness in
    the simulator), so equal specs are bit-reproducible by construction.
    """

    policy: str
    workload: Dict[str, Any]
    config: StoreConfig
    total_writes: Optional[int] = None
    write_multiplier: float = 30.0
    measure_fraction: float = 0.5

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-ready form."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        return cls(**dict(data, config=StoreConfig(**data["config"])))

    def digest(self) -> str:
        """Content address: equal specs hash equal, any parameter change
        (policy, seed, config field, run length) changes the digest."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @property
    def label(self) -> str:
        """Short human-readable name for errors and manifests."""
        wl = self.workload
        extra = ""
        if wl["kind"] == "zipfian":
            extra = "-%g" % wl["theta"]
        elif wl["kind"] == "hotcold":
            extra = "-%d" % round(wl["update_fraction"] * 100)
        return "%s/%s%s/F%.2f/s%d" % (
            self.policy,
            wl["kind"],
            extra,
            self.config.fill_factor,
            wl["seed"],
        )


def spec_from_call(
    config: StoreConfig,
    policy,
    workload: Workload,
    total_writes: Optional[int] = None,
    write_multiplier: float = 30.0,
    measure_fraction: float = 0.5,
) -> JobSpec:
    """Build the :class:`JobSpec` for one ``run_simulation`` call.

    Mirrors :func:`repro.bench.runner.run_simulation`'s signature so the
    recording and replaying runners can translate calls mechanically.
    """
    if not isinstance(policy, str):
        raise SweepError(
            "sweep jobs need policy names, got instance %r" % (policy,)
        )
    return JobSpec(
        policy=policy,
        workload=workload_to_spec(workload),
        config=config,
        total_writes=total_writes,
        write_multiplier=write_multiplier,
        measure_fraction=measure_fraction,
    )


def run_job(
    spec: JobSpec,
    observe=None,
    sample_interval: Optional[int] = None,
) -> SimulationResult:
    """Execute one job deterministically (same spec => same result).

    ``observe``/``sample_interval`` pass through to
    :func:`~repro.bench.runner.run_simulation`; observability is pure
    output, so it never enters the spec or its digest.
    """
    return run_simulation(
        spec.config,
        spec.policy,
        workload_from_spec(spec.workload),
        total_writes=spec.total_writes,
        write_multiplier=spec.write_multiplier,
        measure_fraction=spec.measure_fraction,
        observe=observe,
        sample_interval=sample_interval,
    )


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """Serialize a result for the manifest (window counters included so
    replay recomputes every derived metric exactly)."""
    return dataclasses.asdict(result)


def result_from_dict(data: Dict[str, Any]) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from manifest JSON."""
    return SimulationResult(
        **dict(
            data,
            config=StoreConfig(**data["config"]),
            window=WindowStats(**data["window"]),
        )
    )


# ----------------------------------------------------------------------
# Grid expansion and the named grids of ``repro sweep``
# ----------------------------------------------------------------------

def expand_grid(experiment: Callable, **kwargs) -> List[JobSpec]:
    """Expand an experiment function into its ordered, de-duplicated job
    list by calling it with a recording runner.

    ``kwargs`` are forwarded verbatim, so the grid holds exactly the
    simulations the serial call would run.  The recorder answers each
    call with a zeroed result, so the experiment's aggregation code runs
    without simulating.
    """
    specs: Dict[str, JobSpec] = {}

    def recorder(config, policy, workload, **run_kwargs):
        spec = spec_from_call(config, policy, workload, **run_kwargs)
        specs.setdefault(spec.digest(), spec)
        return SimulationResult(
            policy=spec.policy,
            workload=spec.workload["kind"],
            config=config,
            total_user_writes=0,
            window=WindowStats(0, 0, 0, 0, 0, 0.0, 0),
            extras={},
        )

    experiment(runner=recorder, **kwargs)
    return list(specs.values())


def grid_digest(specs: Sequence[JobSpec]) -> str:
    """Digest of a whole grid (order-insensitive), used to detect that a
    resumed manifest belongs to a different grid."""
    joined = ",".join(sorted(s.digest() for s in specs))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


#: Distributions accepted by grids that take ``--dist``.
SWEEP_DISTS = ("uniform", "zipf-80-20", "zipf-90-10")


@dataclasses.dataclass(frozen=True)
class GridDef:
    """A named, CLI-invocable experiment grid."""

    name: str
    experiment: Callable
    base_multiplier: float
    takes_dist: bool = False

    def resolve(
        self, quick: bool = False, seed: int = 0, dist: Optional[str] = None
    ) -> Tuple[Callable, Dict[str, Any], str]:
        """Return ``(experiment_fn, kwargs, run_name)`` for one
        invocation.  ``--quick`` quarters the write multiplier, for the
        serial and the swept command alike."""
        multiplier = self.base_multiplier / 4.0 if quick else self.base_multiplier
        kwargs: Dict[str, Any] = {
            "write_multiplier": multiplier, "seed": seed,
        }
        run_name = self.name
        if self.takes_dist:
            chosen = dist or "zipf-80-20"
            if chosen not in SWEEP_DISTS:
                raise SweepError("unknown distribution %r" % (chosen,))
            kwargs["dist"] = chosen
            run_name = "%s-%s" % (self.name, chosen)
        elif dist is not None:
            raise SweepError("grid %r does not take --dist" % (self.name,))
        return self.experiment, kwargs, run_name


#: Figure 6 is absent: TPC-C trace workloads are generated (expensively)
#: in-process and are not spec-serializable; it stays on the serial path.
SWEEP_GRIDS: Dict[str, GridDef] = {
    g.name: g
    for g in (
        GridDef("table1", table1_experiment, base_multiplier=8.0),
        GridDef("table2", table2_experiment, base_multiplier=30.0),
        GridDef("fig3", fig3_experiment, base_multiplier=30.0),
        GridDef("fig4", fig4_experiment, base_multiplier=30.0),
        GridDef("fig5", fig5_experiment, base_multiplier=25.0, takes_dist=True),
        GridDef(
            "ablation-estimator", ablation_estimator_experiment,
            base_multiplier=30.0,
        ),
        GridDef("ablation-batch", ablation_batch_experiment, base_multiplier=30.0),
        GridDef("demo", demo_experiment, base_multiplier=4.0),
    )
}


def sweep_grid_names() -> List[str]:
    """Names accepted by ``repro sweep``."""
    return sorted(SWEEP_GRIDS)


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------

class Manifest:
    """Append-only JSONL journal of finished jobs, one file per sweep.

    The first line is a header naming the grid, then one line per job::

        {"experiment": "fig5-zipf-80-20", "grid_digest": "ab12...",
         "kind": "sweep", "version": 1}
        {"attempts": 1, "digest": "9f3c...", "kind": "job",
         "label": "mdc/zipfian-0.99/...", "result": {...}}

    No record holds a clock reading, so two runs of one grid journal the
    same lines; the per-job ``elapsed`` and ``run`` records of older
    manifests are ignored.  Each append is flushed and fsynced, so a
    kill loses at most the line being written: :meth:`load` drops a
    torn *final* line (and the next append truncates it away) but
    refuses corruption anywhere else.  Jobs are matched by spec digest,
    so a changed job is never served a stale result, and the header's
    ``grid_digest`` refuses a manifest of another grid outright.
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)
        self._fh = None
        self._completed: Optional[Dict[str, Dict[str, Any]]] = None
        self._header: Optional[Dict[str, Any]] = None
        #: Offset of a torn final line, truncated before the next append
        #: so the new record is not glued onto it.
        self._truncate_to: Optional[int] = None

    @classmethod
    def in_dir(cls, out_dir: Union[str, pathlib.Path]) -> "Manifest":
        return cls(pathlib.Path(out_dir) / MANIFEST_NAME)

    def exists(self) -> bool:
        return self.path.exists()

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Parse the journal; returns completed jobs keyed by digest."""
        self._completed, self._header, self._truncate_to = {}, None, None
        raw = self.path.read_bytes() if self.path.exists() else b""
        lines = raw.decode("utf-8").splitlines()
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                if index < len(lines) - 1:
                    raise SweepError(
                        "corrupt manifest line %d in %s" % (index + 1, self.path)
                    )
                torn = len(line.encode("utf-8")) + raw.endswith(b"\n")
                self._truncate_to = len(raw) - torn
                break
            kind = record.get("kind")
            if kind == "sweep":
                self._header = record
            elif kind == "job":
                self._completed[record["digest"]] = record
            elif kind != "run":  # an older executor's record; ignored
                raise SweepError(
                    "unknown record kind %r in %s" % (kind, self.path)
                )
        return self._completed

    def completed(self) -> Dict[str, Dict[str, Any]]:
        """Completed job records (loads the file on first use)."""
        return self.load() if self._completed is None else self._completed

    def ensure_header(self, experiment: str, grid_digest: str) -> None:
        """Write the header, or refuse a manifest of another grid (other
        parameters, seed or ``--quick``): resuming it would silently
        merge unrelated runs."""
        self.completed()
        if self._header is None:
            self._header = {
                "kind": "sweep",
                "version": 1,
                "experiment": experiment,
                "grid_digest": grid_digest,
            }
            self._append(self._header)
        elif self._header.get("grid_digest") != grid_digest:
            raise SweepError(
                "manifest %s belongs to grid %s of experiment %r, not the "
                "requested grid %s; use a fresh --out directory" % (
                    self.path, self._header.get("grid_digest"),
                    self._header.get("experiment"), grid_digest,
                )
            )

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
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self._truncate_to is not None and self.path.exists():
                os.truncate(self.path, self._truncate_to)
            self._truncate_to = None
            self._fh = open(self.path, "a", encoding="utf-8")
        line = json.dumps(record, sort_keys=True) + "\n"
        self._fh.write(line)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Manifest":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

class _Rows(list):
    """A job's observability rows, kept for the parent to write."""

    def write_rows(self, rows) -> None:
        self.extend(rows)


def execute_job(
    spec_dict: Dict,
    observe: bool = False,
    sample_interval: Optional[int] = None,
) -> Tuple[Dict, Optional[List[Dict]]]:
    """Run one job (in a pool worker or inline): rebuild the spec,
    simulate, and return ``(result_dict, rows)``, where ``rows`` are its
    observability rows when ``observe`` is set, else None.

    The simulator draws randomness only from the workload's own seeded
    generator; seeding the global ``random`` too is defense-in-depth, so
    a policy that ever reached for ambient randomness would still be
    deterministic per job.
    """
    spec = JobSpec.from_dict(spec_dict)
    random.seed(int(spec.digest(), 16))
    rows = _Rows() if observe else None
    result = run_job(spec, observe=rows, sample_interval=sample_interval)
    return result_to_dict(result), None if rows is None else list(rows)


def _exit_with_parent() -> None:
    """Pool initializer: end this worker once the sweep's process is gone.

    An idle worker waits on the pool's call queue, and every worker
    inherits that pipe's write end, so a killed parent never shows as
    EOF: the worker would sleep on as an orphan.  A daemon thread polls
    the parent pid instead (it changes when the worker is reparented).
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _job_failed(spec: JobSpec, exc: BaseException) -> SweepError:
    error = SweepError(
        "job %s (%s) failed: %s: %s; finished jobs are journaled, fix the "
        "cause and re-run with resume"
        % (spec.label, spec.digest(), type(exc).__name__, exc)
    )
    error.__cause__ = exc
    return error


@dataclasses.dataclass
class SweepStats:
    """Outcome accounting for one :func:`run_sweep` call."""

    total: int = 0
    executed: int = 0
    skipped: int = 0
    #: Effective pool size: ``min(workers, pending jobs, cpu_count)``.
    workers: int = 1


def run_sweep(
    specs: Sequence[JobSpec],
    workers: int = 1,
    manifest: Optional[Manifest] = None,
    observe: bool = False,
    sample_interval: Optional[int] = None,
) -> Tuple[Dict[str, Dict], Dict[str, List[Dict]], SweepStats]:
    """Run a job grid; return ``(results, rows, stats)``, keyed by digest.

    Duplicate specs collapse to one job.  Jobs already in ``manifest``
    are skipped and their stored results returned; each new result is
    journaled as it completes.  The pool has ``min(workers, pending
    jobs, cpu_count)`` processes; at one, jobs run inline with no
    process.  ``rows`` holds each executed job's observability rows
    when ``observe`` is set (resumed jobs have none).

    A job that raises, or a worker that dies, stops the sweep with a
    :class:`SweepError` naming the job, once the jobs already running
    have finished and been journaled; a resumed sweep continues from
    them.
    """
    unique: Dict[str, JobSpec] = {}
    for spec in specs:
        unique.setdefault(spec.digest(), spec)
    done = manifest.completed() if manifest is not None else {}
    results = {d: done[d]["result"] for d in unique if d in done}
    pending = [spec for digest, spec in unique.items() if digest not in done]
    cpus = os.cpu_count() or 1
    stats = SweepStats(
        total=len(unique),
        skipped=len(results),
        workers=max(1, min(workers, len(pending), cpus)),
    )
    rows: Dict[str, List[Dict]] = {}

    def finish(spec: JobSpec, payload: Dict, job_rows) -> None:
        digest = spec.digest()
        results[digest] = payload
        if job_rows is not None:
            rows[digest] = job_rows
        stats.executed += 1
        if manifest is not None:
            manifest.record(
                digest=digest, label=spec.label, result=payload, attempts=1
            )

    if stats.workers == 1:
        for spec in pending:
            try:
                outcome = execute_job(spec.to_dict(), observe, sample_interval)
            except Exception as exc:
                raise _job_failed(spec, exc)
            finish(spec, *outcome)
        return results, rows, stats

    failure: Optional[SweepError] = None
    pool = ProcessPoolExecutor(stats.workers, initializer=_exit_with_parent)
    try:
        futures = {
            pool.submit(execute_job, spec.to_dict(), observe, sample_interval): spec
            for spec in pending
        }
        for future in as_completed(futures):
            if future.cancelled():
                continue
            try:
                outcome = future.result()
            except Exception as exc:  # the job raised, or the pool broke
                if failure is None:
                    failure = _job_failed(futures[future], exc)
                    for other in futures:
                        other.cancel()
                continue
            finish(futures[future], *outcome)
    finally:
        pool.shutdown(cancel_futures=True)
    if failure is not None:
        raise failure
    return results, rows, stats


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

@dataclasses.dataclass
class SweepReport:
    """Everything one sweep run produced."""

    output: ExperimentOutput
    stats: SweepStats
    summary: Dict[str, Any]
    out_dir: Optional[pathlib.Path] = None


def _replay_runner(
    results: Dict[str, Dict], rows: Dict[str, List[Dict]], writer
) -> Callable:
    """A runner serving ``run_simulation`` calls from stored results and
    writing each executed job's rows where the serial run would."""

    def runner(config, policy, workload, **run_kwargs):
        spec = spec_from_call(config, policy, workload, **run_kwargs)
        digest = spec.digest()
        if digest not in results:
            raise SweepError(
                "no stored result for job %s (%s); the manifest does not "
                "cover this grid" % (digest, spec.label)
            )
        if writer is not None and digest in rows:
            writer.write_rows(rows[digest])
        return result_from_dict(results[digest])

    return runner


def parallel_experiment(
    experiment: Callable[..., ExperimentOutput],
    workers: Optional[int] = None,
    out_dir: Optional[Union[str, pathlib.Path]] = None,
    resume: bool = False,
    name: Optional[str] = None,
    metrics_out: Optional[str] = None,
    sample_interval: Optional[int] = None,
    **kwargs,
) -> SweepReport:
    """Run any experiment function through the sweep.

    Args:
        experiment: A function from :mod:`repro.bench.experiments` (or
            anything with the same ``runner`` contract).
        workers: Requested pool size (default: the CPU count); see
            :func:`run_sweep` for the clamp.
        out_dir: Where ``manifest.jsonl``, ``summary.json`` and the
            rendered table land.  ``None`` keeps everything in memory.
        resume: Continue from an existing manifest.  Without it an
            existing manifest is an error, so two sweeps cannot silently
            interleave in one directory.
        name: The run's name in the manifest and summary (default: the
            function's name).
        metrics_out / sample_interval: As the serial commands'
            ``--metrics-out`` / ``--sample-interval``: every executed
            job's observability rows, written in the order the serial
            run writes them.  Jobs resumed from a manifest did not run
            and write none.
        kwargs: Forwarded to the experiment function (grid parameters).

    Returns:
        A :class:`SweepReport`; ``report.output`` is byte-identical to
        ``experiment(**kwargs)`` run serially.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    run_name = name or getattr(experiment, "__name__", "experiment")
    specs = expand_grid(experiment, **kwargs)
    digest = grid_digest(specs)

    manifest = None
    out_path = None if out_dir is None else pathlib.Path(out_dir)
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        manifest = Manifest.in_dir(out_path)
        if manifest.exists() and not resume:
            raise SweepError(
                "%s already has a manifest; pass resume=True (--resume) to "
                "continue it or use a fresh output directory" % (out_path,)
            )
        manifest.ensure_header(run_name, digest)
    try:
        results, rows, stats = run_sweep(
            specs,
            workers=workers,
            manifest=manifest,
            observe=metrics_out is not None,
            sample_interval=sample_interval,
        )
    finally:
        if manifest is not None:
            manifest.close()

    writer = None
    if metrics_out is not None:
        from repro.obs import MetricsWriter

        writer = MetricsWriter(metrics_out)
    output = experiment(runner=_replay_runner(results, rows, writer), **kwargs)
    summary = {
        "experiment": run_name,
        "args": kwargs,
        "grid_digest": digest,
        "jobs": stats.total,
        "executed": stats.executed,
        "skipped": stats.skipped,
        "workers": stats.workers,
        "cpu_count": os.cpu_count(),
    }
    if out_path is not None:
        (out_path / SUMMARY_NAME).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        (out_path / ("%s.txt" % output.name)).write_text(output.rendered + "\n")
    return SweepReport(
        output=output, stats=stats, summary=summary, out_dir=out_path
    )


def run_named_sweep(
    grid: str,
    workers: Optional[int] = None,
    out_dir: Optional[Union[str, pathlib.Path]] = None,
    resume: bool = False,
    quick: bool = False,
    seed: int = 0,
    dist: Optional[str] = None,
    metrics_out: Optional[str] = None,
    sample_interval: Optional[int] = None,
) -> SweepReport:
    """Run one of the registered experiment grids (``repro sweep``)."""
    if grid not in SWEEP_GRIDS:
        raise SweepError(
            "unknown grid %r (have: %s)" % (grid, ", ".join(sweep_grid_names()))
        )
    experiment, kwargs, run_name = SWEEP_GRIDS[grid].resolve(
        quick=quick, seed=seed, dist=dist
    )
    return parallel_experiment(
        experiment,
        workers=workers,
        out_dir=out_dir,
        resume=resume,
        name=run_name,
        metrics_out=metrics_out,
        sample_interval=sample_interval,
        **kwargs,
    )
