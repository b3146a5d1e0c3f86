#!/usr/bin/env python
"""Sweep quickstart: run an experiment grid in parallel, then resume it.

The paper's tables and figures are grids of independent simulations
(policy x distribution x fill factor), which makes them embarrassingly
parallel.  ``repro.sweep`` expands an experiment function into a job
list, fans the jobs out over worker processes, and journals every
finished job to ``manifest.jsonl`` — so a sweep killed halfway resumes
where it stopped and still produces byte-identical aggregated output.

This example runs the tiny ``demo`` grid twice into the same directory:
the first call executes every job, the second resumes from the manifest
and executes none.

Run:
    python examples/sweep_quickstart.py

The CLI equivalent of everything below:
    repro sweep demo --workers 2 --out /tmp/demo-sweep
    repro sweep demo --workers 2 --out /tmp/demo-sweep --resume
"""

import tempfile

from repro.bench import demo_experiment
from repro.sweep import expand_grid, parallel_experiment


def main() -> None:
    specs = expand_grid(demo_experiment)
    print("the demo grid expands to %d jobs:" % len(specs))
    for spec in specs:
        print("  %s  (digest %s)" % (spec.label, spec.digest()))
    print()

    with tempfile.TemporaryDirectory() as out_dir:
        report = parallel_experiment(
            demo_experiment, workers=2, out_dir=out_dir
        )
        print(report.output.rendered)
        print()
        print(
            "first run:  %d executed, %d resumed"
            % (report.stats.executed, report.stats.skipped)
        )

        # Same grid, same directory: every job is already journaled.
        resumed = parallel_experiment(
            demo_experiment, workers=2, out_dir=out_dir, resume=True
        )
        print(
            "second run: %d executed, %d resumed"
            % (resumed.stats.executed, resumed.stats.skipped)
        )
        assert resumed.output.rendered == report.output.rendered
        print("aggregated output is byte-identical across the resume.")


if __name__ == "__main__":
    main()
