"""The service stack's settable surface, pinned by name.

Every independent option multiplies the configurations the service has
to be right in, so adding one is a decision, not a side effect: a new
parameter, config field or ``repro serve`` flag fails here until this
file lists it, and shows up in review as a one-line edit.
"""

import dataclasses
import inspect

from repro.cli import build_parser
from repro.service import ConsistentHashRouter, HarnessConfig, Service, StorePool
from repro.store import IncrementalCleaner


def parameters(cls):
    return [
        name
        for name in inspect.signature(cls.__init__).parameters
        if name != "self"
    ]


def subcommand(name):
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    return sub.choices.get(name)


def test_service_parameters():
    assert parameters(Service) == [
        "n_shards",
        "config",
        "policy",
        "unit_bytes",
        "batch_size",
        "flush_interval",
        "max_depth",
        "gc_budget",
        "pages_per_step",
        "seed",
        "sample_interval",
    ]


def test_pool_parameters():
    assert parameters(StorePool) == [
        "n_shards",
        "config",
        "policy",
        "unit_bytes",
        "gc_budget",
        "metrics",
        "pages_per_step",
    ]


def test_cleaner_parameters():
    assert parameters(IncrementalCleaner) == ["store", "pages_per_step"]


def test_router_parameters():
    assert parameters(ConsistentHashRouter) == ["n_shards", "replicas", "seed"]


def test_harness_config_fields():
    assert [field.name for field in dataclasses.fields(HarnessConfig)] == [
        "n_shards",
        "n_clients",
        "n_tenants",
        "ops",
        "keys_per_tenant",
        "dist",
        "value_bytes",
        "delete_frac",
        "policy",
        "unit_bytes",
        "segment_units",
        "target_fill",
        "clean_trigger",
        "clean_batch",
        "batch_size",
        "flush_interval",
        "max_depth",
        "tick_every",
        "gc_budget",
        "pages_per_step",
        "sample_interval",
        "seed",
    ]


def test_serve_flags():
    serve = subcommand("serve")
    flags = [
        action.option_strings[-1]
        for action in serve._actions
        if action.option_strings and action.dest != "help"
    ]
    assert flags == [
        "--shards",
        "--clients",
        "--tenants",
        "--ops",
        "--keys-per-tenant",
        "--dist",
        "--value-bytes",
        "--delete-frac",
        "--policy",
        "--batch-size",
        "--flush-interval",
        "--max-depth",
        "--tick-every",
        "--gc-budget",
        "--pages-per-step",
        "--quick",
        "--seed",
        "--metrics-out",
        "--sample-interval",
        "--trace-out",
        "--trace-sample",
        "--telemetry-out",
    ]


def test_no_op_file_commands():
    assert subcommand("loadgen") is None
