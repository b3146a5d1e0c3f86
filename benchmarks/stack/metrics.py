"""The end-to-end metrics: names, units, direction, regression bounds.

A metric has two bounds, both a share of the baseline's median by which
it may get worse before that counts as a regression:

``bound``          for two results on identical inputs (same ``--seed``
                   and ``--seconds``), which is what ``compare.py``
                   judges.  There ``wamp`` and ``device_pages_per_op``
                   repeat exactly, so their bound only has to absorb a
                   deliberate small trade.
``harness_bound``  for ``BENCHMARK.json``, whose harness draws another
                   seed for every run: it is three times the largest
                   interquartile spread seen over ten seeds (README,
                   "What calibration buys") or the contract's cap of
                   0.25, whichever is less.

``rectangular`` marks the metrics that exist on every workload; those
are the ``end_to_end`` list of ``BENCHMARK.json``.  The get latencies
exist on ``svc-mixed-read`` only and ``error_rate`` is 0 on a correct
run, so the harness sees them as ungated per-layer metrics and as
``failed / attempted``; ``compare.py`` gates them all the same.
"""

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    harness_bound: float
    meaning: str
    rectangular: bool = True


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.10, 0.25,
           "build the store/service and preload every key once (cal.)"),
    Metric("ops_per_s", "1/s", "higher", 0.10, 0.25,
           "measured-phase client ops per second incl. tick()/flush(); "
           "page writes per second on sim-mdc-zipf (cal.)"),
    Metric("write_p50_us", "us", "lower", 0.10, 0.25,
           "median latency of one client write call: Service.put/delete, "
           "or one write_batch of 4096 pages on sim-mdc-zipf (cal.)"),
    Metric("write_tail_us", "us", "lower", 0.10, 0.25,
           "tail of the same: p99.9 on the service workloads (the put that "
           "pays for a flush plus cleaning), p90 on sim-mdc-zipf (cal.)"),
    Metric("get_p50_us", "us", "lower", 0.10, 0.25,
           "median Service.get latency (cal.)", rectangular=False),
    Metric("get_p999_us", "us", "lower", 0.10, 0.25,
           "p99.9 Service.get latency (cal.)", rectangular=False),
    Metric("wamp", "ratio", "lower", 0.01, 0.10,
           "gc_writes / user_writes over the measured window, all shards"),
    Metric("device_pages_per_op", "pages/op", "lower", 0.01, 0.06,
           "(user_device_writes + gc_writes) / client write ops: "
           "coalescing and cleaning combined"),
    Metric("peak_rss_mb", "MiB", "lower", 0.05, 0.05,
           "the workload process's ru_maxrss before the traced rep"),
    Metric("error_rate", "ratio", "lower", 0.0, 0.0,
           "(ops that raised + wrong reads + wrong final keys + failed "
           "structural checks) / ops attempted", rectangular=False),
)

BY_NAME = {m.name: m for m in END_TO_END}
