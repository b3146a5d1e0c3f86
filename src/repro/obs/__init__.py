"""Observability for the store: metrics, decisions, time-series, tracing.

See OBSERVABILITY.md for the model and the overhead budget.  Each store
moment is one record: a counter, histogram or gauge in the metrics row,
a decision row, or a sample row.  The public surface:

* :class:`StoreObserver` — attach to a store; captures everything.
* :class:`MetricsRegistry` — counters / gauges / histograms and their
  immutable snapshots.
* :class:`TimeSeriesSampler` — clock-keyed convergence sampling.
* :class:`SpanRecorder` — causal spans recorded from outside the code:
  timing wrappers installed on a built service's boundary methods,
  head-sampled per root and bounded; Chrome trace export and the
  flush-stall critical-path analyzer live alongside it in
  :mod:`repro.obs.trace`.
* :class:`SLOTracker` — multi-window burn-rate evaluation of the
  service's flush-stall stream.
* :mod:`repro.obs.export` — the JSONL writer, validation, aggregation.
"""

from repro.obs.export import (
    SCHEMA_VERSION,
    MetricsWriter,
    aggregate_convergence,
    load_rows,
    summarize_rows,
    validate_rows,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    percentile_from_buckets,
)
from repro.obs.observer import PAGES_EDGES, StoreObserver
from repro.obs.samplers import TimeSeriesSampler, default_interval
from repro.obs.slo import SLOTracker
from repro.obs.trace import (
    SpanRecorder,
    chrome_trace,
    critical_path_report,
    load_spans,
    write_chrome_trace,
    write_spans,
)

__all__ = [
    "PAGES_EDGES",
    "SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "MetricsWriter",
    "SLOTracker",
    "SpanRecorder",
    "StoreObserver",
    "TimeSeriesSampler",
    "aggregate_convergence",
    "chrome_trace",
    "critical_path_report",
    "default_interval",
    "load_rows",
    "load_spans",
    "summarize_rows",
    "percentile_from_buckets",
    "validate_rows",
    "write_chrome_trace",
    "write_spans",
]
