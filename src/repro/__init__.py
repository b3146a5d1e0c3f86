"""repro — reproduction of *Efficiently Reclaiming Space in a Log
Structured Store* (Lomet & Luo, ICDE 2021).

The package implements, from scratch:

* a log-structured store simulator (:mod:`repro.store`);
* the paper's MDC cleaning algorithm and its ablations
  (:mod:`repro.core`), plus every baseline it is compared against
  (:mod:`repro.policies`);
* the closed-form cleaning-cost analysis (:mod:`repro.analysis`);
* the synthetic and TPC-C workloads (:mod:`repro.workloads`,
  :mod:`repro.tpcc`, :mod:`repro.btree`);
* the experiment harness that regenerates every table and figure of the
  paper's evaluation (:mod:`repro.bench`, plus the ``benchmarks/``
  directory of the repository);
* an application of the cleaned log — a value-log key-value store
  (:mod:`repro.kvstore`).

Quickstart::

    from repro import StoreConfig, run_simulation
    from repro.workloads import ZipfianWorkload

    cfg = StoreConfig(n_segments=128, segment_units=64, fill_factor=0.8,
                      sort_buffer_segments=4)
    wl = ZipfianWorkload.eighty_twenty(cfg.user_pages)
    result = run_simulation(cfg, "mdc", wl)
    print(result.summary())
"""

from repro.analysis import emptiness_fixpoint, table1, table2
from repro.bench import run_simulation
from repro.core import MdcPolicy
from repro.policies import available_policies, make_policy
from repro.store import LogStructuredStore, StoreConfig

__version__ = "1.0.0"

__all__ = [
    "LogStructuredStore",
    "MdcPolicy",
    "StoreConfig",
    "available_policies",
    "emptiness_fixpoint",
    "make_policy",
    "run_simulation",
    "table1",
    "table2",
    "__version__",
]
