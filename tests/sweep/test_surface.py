"""The sweep's settable surface and on-disk records, pinned by name.

A new parameter or ``repro sweep`` flag fails here until this file
lists it.  The key sets of ``summary.json`` and of a manifest job record
are pinned exactly, so a wall-clock field cannot slip back into a file
two runs of one grid should write identically.
"""

import inspect
import json

from repro.bench.experiments import demo_experiment
from repro.cli import build_parser
from repro.bench.sweep import (
    MANIFEST_NAME,
    SUMMARY_NAME,
    parallel_experiment,
    run_sweep,
)

#: Every key of ``summary.json``.
SUMMARY_KEYS = {
    "experiment",
    "args",
    "grid_digest",
    "jobs",
    "executed",
    "skipped",
    "workers",
    "cpu_count",
}


def parameters(fn):
    return list(inspect.signature(fn).parameters)


def test_run_sweep_parameters():
    assert parameters(run_sweep) == [
        "specs",
        "workers",
        "manifest",
        "observe",
        "sample_interval",
    ]


def test_parallel_experiment_parameters():
    assert parameters(parallel_experiment) == [
        "experiment",
        "workers",
        "out_dir",
        "resume",
        "name",
        "metrics_out",
        "sample_interval",
        "kwargs",
    ]


def test_sweep_flags():
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    flags = [
        action.option_strings[-1]
        for action in sub.choices["sweep"]._actions
        if action.option_strings and action.dest != "help"
    ]
    assert flags == [
        "--dist",
        "--fills",
        "--workers",
        "--out",
        "--resume",
        "--quick",
        "--seed",
        "--metrics-out",
        "--sample-interval",
    ]


def test_written_records_hold_no_clock(tmp_path):
    parallel_experiment(demo_experiment, workers=1, out_dir=tmp_path)
    summary = json.loads((tmp_path / SUMMARY_NAME).read_text())
    assert set(summary) == SUMMARY_KEYS
    records = [
        json.loads(line)
        for line in (tmp_path / MANIFEST_NAME).read_text().splitlines()
    ]
    assert [r["kind"] for r in records] == ["sweep"] + ["job"] * 4
    for record in records[1:]:
        assert set(record) == {"kind", "digest", "label", "attempts", "result"}
