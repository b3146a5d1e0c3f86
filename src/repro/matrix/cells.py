"""Content-addressed matrix cells and the job runner that executes them.

A :class:`CellSpec` is to the matrix what
:class:`repro.sweep.spec.JobSpec` is to a sweep: a canonical,
JSON-serializable description of one unit of work whose sha256 digest is
its identity.  It deliberately exposes the same duck-typed surface the
sweep executor consumes (``digest()`` / ``label`` / ``to_dict()``), so
matrix runs go through :func:`repro.sweep.executor.run_sweep` unchanged
and inherit its process isolation, retries, timeouts, and the fsynced
resume manifest — ``repro bench run --resume`` skips completed cells
exactly the way ``repro sweep --resume`` skips completed jobs.

There are two sorts of cell:

* ``sim`` — one :func:`repro.bench.runner.run_simulation` call, carried
  as an embedded :class:`~repro.sweep.spec.JobSpec` payload (so a sim
  cell's identity is the same content address a sweep would use).
* any kind in :data:`repro.bench.registry.REGISTRY` — one
  ``Benchmark.run`` of that kind, with the cell's parameter point (and
  seed) as the payload.

Observability is pure output and never enters a digest: toggling
``obs:`` on an experiment reuses the same manifest entries, but cells
*resumed* from a manifest were not re-run and contribute no rows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
from typing import Any, Dict, List, Mapping, Optional

from repro.bench.experiments import make_workload
from repro.bench.registry import REGISTRY
from repro.matrix.config import ExperimentDef, MatrixConfigError, expand_experiment
from repro.store import StoreConfig
from repro.store.errors import ConfigError
from repro.sweep.spec import JobSpec, result_to_dict, run_job, workload_to_spec


@dataclasses.dataclass(frozen=True)
class CellSpec:
    """One matrix cell, fully determined and serializable.

    ``axes`` carries the merged parameter point (matrix coordinates,
    fixed params, and the sample seed) for reporting and ``where:``
    filters; ``payload`` is the kind-specific runner input.  Only
    ``experiment``/``kind``/``payload`` enter the digest — ``axes`` is
    derived from the same config content, and ``obs`` is pure output.
    """

    experiment: str
    kind: str
    payload: Dict[str, Any]
    axes: Dict[str, Any]
    obs: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "kind": self.kind,
            "payload": dict(self.payload),
            "axes": dict(self.axes),
            "obs": self.obs,
        }

    def digest(self) -> str:
        canonical = json.dumps(
            {
                "experiment": self.experiment,
                "kind": self.kind,
                "payload": self.payload,
            },
            sort_keys=True,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @property
    def label(self) -> str:
        if self.kind == "sim":
            return "%s/%s/%s/F%.2f/s%d" % (
                self.experiment,
                self.axes.get("policy"),
                self.axes.get("dist"),
                float(self.axes.get("fill", 0.0)),
                int(self.axes.get("seed", 0)),
            )
        return "%s/%s/s%d" % (
            self.experiment, self.kind, int(self.axes.get("seed", 0))
        )


def _sim_payload(axes: Mapping[str, Any]) -> Dict[str, Any]:
    """Translate one sim cell's axes into an embedded JobSpec dict."""
    try:
        config = StoreConfig(
            n_segments=int(axes["n_segments"]),
            segment_units=int(axes["segment_units"]),
            fill_factor=float(axes["fill"]),
            clean_trigger=int(axes["clean_trigger"]),
            clean_batch=int(axes["clean_batch"]),
            sort_buffer_segments=int(axes["sort_buffer"]),
        )
        if axes.get("reserve_compensation"):
            config = config.with_reserve_compensation()
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise MatrixConfigError(
            "invalid store geometry for cell %r: %s" % (dict(axes), exc)
        )
    try:
        workload = make_workload(
            str(axes["dist"]), config.user_pages, int(axes["seed"])
        )
    except ValueError as exc:
        raise MatrixConfigError(str(exc))
    total_writes = axes.get("total_writes")
    spec = JobSpec(
        policy=str(axes["policy"]),
        workload=workload_to_spec(workload),
        config=config,
        total_writes=None if total_writes is None else int(total_writes),
        write_multiplier=float(axes["write_multiplier"]),
        measure_fraction=float(axes["measure_fraction"]),
    )
    return spec.to_dict()


def cells_for_experiment(exp: ExperimentDef) -> List[CellSpec]:
    """Expand one experiment definition into its ordered cell list."""
    cells = []
    for axes in expand_experiment(exp):
        # A bench cell's parameter point (scalars only, so JSON
        # round-trip safe as it is) is its runner input.
        payload = _sim_payload(axes) if exp.kind == "sim" else dict(axes)
        cells.append(
            CellSpec(
                experiment=exp.name,
                kind=exp.kind,
                payload=payload,
                axes=dict(axes),
                obs=exp.obs,
            )
        )
    return cells


def matrix_digest(cells: List[CellSpec]) -> str:
    """Digest of a whole matrix (order-insensitive), used to reject
    resuming a manifest that belongs to a different config."""
    joined = ",".join(sorted(c.digest() for c in cells))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


class MatrixJobRunner:
    """The ``job_runner`` handed to :func:`repro.sweep.executor.run_sweep`.

    A plain picklable class (it crosses process boundaries under spawn
    as well as fork).  Runs a sim cell's JobSpec, or the registered
    benchmark of any other ``kind``, and returns a
    JSON-ready ``{"kind": ..., "result": ...}`` payload; sim cells with
    ``obs`` on additionally write their metrics rows to a per-cell
    file under ``metrics_dir`` (merged in cell order afterwards, the
    same protocol as :class:`repro.sweep.executor.ObsJobRunner`).
    """

    def __init__(
        self,
        metrics_dir: Optional[str] = None,
        sample_interval: Optional[int] = None,
    ) -> None:
        self.metrics_dir = None if metrics_dir is None else str(metrics_dir)
        self.sample_interval = sample_interval

    def job_metrics_path(self, digest: str) -> Optional[str]:
        if self.metrics_dir is None:
            return None
        return os.path.join(self.metrics_dir, "%s.jsonl" % digest)

    def __call__(self, cell_dict: Dict) -> Dict:
        kind = cell_dict["kind"]
        payload = cell_dict["payload"]
        # Defense-in-depth, mirroring the sweep executor: nothing in the
        # engines should reach for ambient randomness, but if anything
        # ever does, each cell still behaves deterministically.
        random.seed(
            int(
                hashlib.sha256(
                    json.dumps(payload, sort_keys=True).encode("utf-8")
                ).hexdigest()[:16],
                16,
            )
        )
        if kind == "sim":
            spec = JobSpec.from_dict(payload)
            observe = None
            if cell_dict.get("obs"):
                observe = self.job_metrics_path(spec.digest())
            result = result_to_dict(
                run_job(spec, observe=observe, sample_interval=self.sample_interval)
            )
        else:
            result = REGISTRY[kind].run(**payload)
        return {"kind": kind, "result": result}


@dataclasses.dataclass(frozen=True)
class CellResult:
    """One executed (or resumed) cell joined with its result payload."""

    spec: CellSpec
    result: Dict[str, Any]
    resumed: bool = False

    @property
    def axes(self) -> Dict[str, Any]:
        return self.spec.axes


def sim_metrics(result: Dict[str, Any]) -> Dict[str, float]:
    """Headline metrics of one sim cell result (the serialized
    :class:`~repro.bench.runner.SimulationResult`)."""
    from repro.sweep.spec import result_from_dict

    sim = result_from_dict(result)
    return {
        "wamp": sim.wamp,
        "device_wamp": sim.device_wamp,
        "mean_cleaned_emptiness": sim.mean_cleaned_emptiness,
        "total_user_writes": float(sim.total_user_writes),
    }


def dig(data: Any, path: str) -> Any:
    """Resolve a dotted path (``pool.workers_effective``) into a
    nested dict; raises KeyError with the full path on a miss."""
    node = data
    for part in path.split("."):
        if not isinstance(node, Mapping) or part not in node:
            raise KeyError(path)
        node = node[part]
    return node


def dig_number(data: Any, path: str) -> Optional[float]:
    """The number at a dotted path, or ``None`` when the path is
    missing or holds something else (an older row, a partial report)."""
    try:
        value = dig(data, path)
    except KeyError:
        return None
    return value if isinstance(value, (int, float)) else None


def cell_metric(cell: CellResult, path: str) -> float:
    """A metric value for gates/tables: sim shorthand names first
    (``wamp``, ``device_wamp``, ``mean_cleaned_emptiness``), then a
    dotted path into the raw result dict."""
    if cell.spec.kind == "sim":
        try:
            shorthands = sim_metrics(cell.result)
        except (KeyError, TypeError):
            shorthands = {}  # not a full SimulationResult; use the path
        if path in shorthands:
            return float(shorthands[path])
    value = dig(cell.result, path)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MatrixConfigError(
            "metric %r of cell %s is not numeric: %r"
            % (path, cell.spec.label, value)
        )
    return float(value)


def matches_where(axes: Mapping[str, Any], where: Mapping[str, Any]) -> bool:
    """True when every ``where:`` key equals the cell's axis value."""
    return all(axes.get(k) == v for k, v in where.items())
