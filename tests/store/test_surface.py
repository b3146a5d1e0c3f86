"""The store's public surface, pinned by name.

A new public method, parameter, config field or package export fails
here until this file lists it, and shows up in review as a one-line
edit.  Moving code between the store's modules must leave this file
alone: the names are read off the assembled class and the package.
"""

import dataclasses
import inspect

import repro.store
from repro.store import LogStructuredStore, StoreConfig


def shape(attr):
    """``"property"``, or a method's parameters (no ``self``) with their
    defaults, as ``"(a, b=1)"``."""
    if isinstance(attr, property):
        return "property"
    params = []
    for p in inspect.signature(attr).parameters.values():
        if p.name == "self":
            continue
        if p.default is inspect.Parameter.empty:
            params.append(p.name)
        else:
            params.append("%s=%r" % (p.name, p.default))
    return "(%s)" % ", ".join(params)


def test_store_public_names_and_signatures():
    surface = {
        name: shape(inspect.getattr_static(LogStructuredStore, name))
        for name in dir(LogStructuredStore)
        if not name.startswith("_")
    }
    assert surface == {
        "check_invariants": "()",
        "clean": "(n_victims=None, deficit=0)",
        "clean_begin": "(n_victims=None, deficit=0, page_cap=None)",
        "clean_cursor": "property",
        "clean_pending": "property",
        "clean_step": "(max_pages=None)",
        "fill_factor_now": "()",
        "flush": "()",
        "free_segment_count": "property",
        "live_page_count": "()",
        "live_units_now": "()",
        "load_sequential": "(n_pages, sizes=None)",
        "reactive_trigger": "()",
        "relocating_dead_units": "()",
        "relocating_units": "()",
        "sealed_segments": "()",
        "set_oracle_frequencies": "(freqs)",
        "set_page_frequency": "(page_id, freq)",
        "trim": "(page_id)",
        "wear_summary": "()",
        "write": "(page_id, size=1)",
        "write_batch": "(page_ids, sizes=None)",
    }


def test_store_constructor():
    assert shape(LogStructuredStore.__init__) == "(config, policy)"


def test_store_config_fields():
    assert [field.name for field in dataclasses.fields(StoreConfig)] == [
        "n_segments",
        "segment_units",
        "fill_factor",
        "clean_trigger",
        "clean_batch",
        "sort_buffer_segments",
        "user_pages_override",
    ]


def test_package_exports():
    assert sorted(repro.store.__all__) == sorted(
        [
            "CleanCursor",
            "ConfigError",
            "FREE",
            "GC_STREAM",
            "IN_BUFFER",
            "IN_FLIGHT",
            "IN_RELOCATION",
            "IncrementalCleaner",
            "LogStructuredStore",
            "NEVER_WRITTEN",
            "OPEN",
            "OutOfSpaceError",
            "PageIdError",
            "PageSizeError",
            "PageTable",
            "PersistenceError",
            "SEALED",
            "SegmentTable",
            "SortBuffer",
            "StatsSnapshot",
            "StoreConfig",
            "StoreError",
            "StoreStats",
            "WindowStats",
            "checkerboard",
            "describe",
            "emptiness_histogram",
            "load_store",
            "paper_config",
            "save_store",
            "temperature_report",
        ]
    )
    for name in repro.store.__all__:
        assert hasattr(repro.store, name), name


def test_log_store_module_imports():
    from repro.store.log_store import GC_STREAM, CleanCursor
    from repro.store.log_store import LogStructuredStore as Store

    assert Store is LogStructuredStore
    assert GC_STREAM == repro.store.GC_STREAM == -1
    assert CleanCursor is repro.store.CleanCursor
