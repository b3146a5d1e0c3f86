"""Correctness backbone: differential oracle, fault injection, traces.

Four pieces, each usable on its own:

* :mod:`repro.testkit.oracle` — a trivially-correct dict-based store
  model plus :func:`~repro.testkit.oracle.verify_equivalence`;
* :mod:`repro.testkit.differential` — drives the real store and the
  oracle with one op stream and checks equivalence at checkpoints;
* :mod:`repro.testkit.failpoints` — deterministic, seedable fault
  injection for crash-consistency tests;
* :mod:`repro.testkit.trace` — JSONL record/replay of op streams with a
  self-verifying state digest (``repro replay <trace>``).

This module is imported by production code, whose failpoint call sites
are ``persistence.save.{pre_write,pre_rename,post_rename}`` in
:mod:`repro.store.persistence`, ``store.flush.pre_drain`` in
:mod:`repro.store.log_store` and ``store.clean.{pre_relocate,step}`` in
:mod:`repro.store.cycle`.  So it must stay import-light: only the
dependency-free failpoints module loads eagerly; everything else
resolves lazily on first attribute access.
"""

from repro.testkit.failpoints import FAILPOINTS, FailpointRegistry, InjectedFault, failpoint

__all__ = [
    "FAILPOINTS",
    "FailpointRegistry",
    "InjectedFault",
    "failpoint",
    # lazy (see __getattr__):
    "DifferentialOutcome",
    "DivergenceError",
    "OpTrace",
    "OracleStore",
    "TraceError",
    "run_differential",
    "run_differential_grid",
    "state_digest",
    "verify_equivalence",
]

_LAZY = {
    "DifferentialOutcome": "repro.testkit.differential",
    "DivergenceError": "repro.testkit.differential",
    "run_differential": "repro.testkit.differential",
    "run_differential_grid": "repro.testkit.differential",
    "OracleStore": "repro.testkit.oracle",
    "verify_equivalence": "repro.testkit.oracle",
    "OpTrace": "repro.testkit.trace",
    "TraceError": "repro.testkit.trace",
    "state_digest": "repro.testkit.trace",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    import importlib

    return getattr(importlib.import_module(module_name), name)
