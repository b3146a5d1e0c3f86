"""The store observer: hooks, decision tracing, failpoints, export rows."""

import json

import pytest

from repro.obs import (
    BUFFER_FLUSH,
    CLEAN_CYCLE,
    SEGMENT_SEALED,
    VICTIM_SELECTED,
    StoreObserver,
    validate_rows,
)
from repro.policies import make_policy
from repro.store import LogStructuredStore
from repro.testkit.failpoints import failpoint


def _drive(store, n_writes, stride=7):
    n = store.config.user_pages
    for i in range(n_writes):
        store.write((i * stride) % n)


@pytest.fixture
def observed_store(small_config):
    store = LogStructuredStore(small_config, make_policy("greedy"))
    store.load_sequential(small_config.user_pages)
    observer = StoreObserver(store, sample_interval=100).attach()
    yield store, observer
    observer.detach()


class TestLifecycle:
    def test_attach_detach(self, small_config):
        store = LogStructuredStore(small_config, make_policy("greedy"))
        assert store.obs is None
        observer = StoreObserver(store)
        observer.attach()
        assert store.obs is observer
        observer.detach()
        assert store.obs is None

    def test_second_observer_rejected(self, small_config):
        store = LogStructuredStore(small_config, make_policy("greedy"))
        with StoreObserver(store):
            with pytest.raises(RuntimeError):
                StoreObserver(store).attach()
        # After detach the slot is free again.
        with StoreObserver(store):
            pass

    def test_unobserved_store_still_works(self, small_config):
        store = LogStructuredStore(small_config, make_policy("greedy"))
        store.load_sequential(small_config.user_pages)
        _drive(store, 3000)
        assert store.obs is None
        assert store.stats.clean_cycles > 0


class TestHooks:
    def test_cleaning_populates_metrics_and_events(self, observed_store):
        store, observer = observed_store
        _drive(store, 5000)
        stats = store.stats
        assert stats.clean_cycles > 0
        counters = observer.metrics.snapshot().counters
        assert counters["clean_cycles"] == stats.clean_cycles
        assert counters["victim_selections"] == stats.clean_cycles
        assert counters["segments_sealed"] > 0
        assert counters["pages_relocated"] == stats.gc_writes
        hist = observer.metrics.histogram("cleaned_emptiness")
        assert hist.count == stats.segments_cleaned
        kinds = {e.kind for e in observer.bus.events()}
        assert {SEGMENT_SEALED, CLEAN_CYCLE, VICTIM_SELECTED} <= kinds

    def test_flush_hook_counts_buffered_pages(self, buffered_config):
        # mdc uses the sort buffer (greedy would leave it unbuilt).
        store = LogStructuredStore(buffered_config, make_policy("mdc"))
        store.load_sequential(buffered_config.user_pages)
        with StoreObserver(store) as observer:
            _drive(store, 4000)
            counters = observer.metrics.snapshot().counters
            assert counters.get("buffer_flushes", 0) > 0
            assert counters["buffer_flush_pages"] >= counters["buffer_flushes"]
            assert any(
                e.kind == BUFFER_FLUSH for e in observer.bus.events()
            )

    def test_detached_observer_stops_capturing(self, observed_store):
        store, observer = observed_store
        _drive(store, 2000)
        observer.detach()
        before = observer.metrics.snapshot().counters
        _drive(store, 2000)
        assert observer.metrics.snapshot().counters == before


class TestDecisions:
    def test_decisions_capture_ranking_context(self, observed_store):
        store, observer = observed_store
        _drive(store, 5000)
        assert observer.decisions
        decision = observer.decisions[-1]
        assert decision["type"] == "decision"
        assert decision["policy"] == "greedy"
        assert decision["candidates"] > 0
        assert decision["victims"]
        victim = decision["victims"][0]
        for key in ("seg", "A", "C", "up2", "score"):
            assert key in victim
        # Greedy's extra column: the emptiness it actually ranks by.
        assert victim["emptiness"] == pytest.approx(
            victim["A"] / store.segments.capacity
        )
        # Everything must already be JSON-ready plain Python.
        assert all(
            not hasattr(v, "dtype") for v in victim.values()
        )

    @pytest.mark.parametrize(
        "policy,extra_keys",
        [
            ("greedy", ("emptiness",)),
            ("age", ("seal_time",)),
            ("cost-benefit", ("age", "benefit")),
            ("multi-log", ("log_class", "seal_time")),
            ("mdc", ("decline", "age_since_update")),
            ("mdc-opt", ("decline", "freq_sum")),
        ],
    )
    def test_every_policy_family_traces(self, small_config, policy, extra_keys):
        store = LogStructuredStore(small_config, make_policy(policy))
        store.load_sequential(small_config.user_pages)
        with StoreObserver(store) as observer:
            _drive(store, 6000, stride=11)
            assert observer.decisions, "no decision traced for %s" % policy
            victim = observer.decisions[-1]["victims"][0]
            for key in ("seg", "A", "C", "up2", "score") + extra_keys:
                assert key in victim, "%s missing %s" % (policy, key)

    @pytest.mark.parametrize("policy", ["mdc", "cost-benefit"])
    def test_rows_equal_a_cell_by_cell_reference(self, small_config, policy):
        """The rows are built a column at a time; pin them, types and
        JSON bytes included, against one ``.item()`` per cell."""
        store = LogStructuredStore(small_config, make_policy(policy))
        store.load_sequential(small_config.user_pages)
        seen = []
        columns_of = store.policy.decision_columns

        def capture(segs, ids):
            columns = columns_of(segs, ids)
            seen.append((ids.copy(), {k: v.copy() for k, v in columns.items()}))
            return columns

        store.policy.decision_columns = capture
        with StoreObserver(store) as observer:
            _drive(store, 6000, stride=11)
        assert len(seen) == len(observer.decisions) > 3
        for (ids, columns), decision in zip(seen, observer.decisions):
            reference = [
                dict(
                    {"seg": int(seg)},
                    **{name: col[i].item() for name, col in columns.items()},
                )
                for i, seg in enumerate(ids)
            ]
            rows = decision["victims"]
            assert json.dumps(rows) == json.dumps(reference)
            assert [list(map(type, row.values())) for row in rows] == [
                list(map(type, row.values())) for row in reference
            ]

    def test_decision_ring_bounds_memory(self, small_config):
        store = LogStructuredStore(small_config, make_policy("greedy"))
        store.load_sequential(small_config.user_pages)
        with StoreObserver(store, max_decisions=3) as observer:
            _drive(store, 6000)
            assert len(observer.decisions) == 3
            assert observer.decisions_dropped > 0


class TestFailpoints:
    def test_failpoint_hits_become_events(self, observed_store):
        store, observer = observed_store
        failpoint("obs.test.site", detail="x")
        counters = observer.metrics.snapshot().counters
        assert counters["failpoints_hit"] == 1
        events = [e for e in observer.bus.events() if e.kind == "failpoint"]
        assert events and events[0].payload["name"] == "obs.test.site"

    def test_detach_unsubscribes(self, small_config):
        store = LogStructuredStore(small_config, make_policy("greedy"))
        observer = StoreObserver(store).attach()
        observer.detach()
        failpoint("obs.test.after")
        assert "failpoints_hit" not in observer.metrics.snapshot().counters


class TestExportRows:
    def test_rows_validate_and_carry_meta(self, observed_store):
        store, observer = observed_store
        _drive(store, 5000)
        observer.sample_now()
        rows = list(observer.rows({"workload": "stride"}))
        assert rows[0]["type"] == "meta"
        assert rows[0]["run"]["workload"] == "stride"
        assert rows[0]["run"]["policy"] == "greedy"
        assert validate_rows(rows, require_decisions=True) == []
        types = {row["type"] for row in rows}
        assert types == {"meta", "sample", "decision", "metrics", "event"}

    def test_window_covers_observed_interval(self, observed_store):
        store, observer = observed_store
        _drive(store, 3000)
        window = observer.window()
        assert window.user_writes == 3000
        assert window.write_amplification == pytest.approx(
            store.stats.gc_writes / 3000
        )
