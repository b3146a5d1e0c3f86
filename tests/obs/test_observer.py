"""The store observer: hooks, decision tracing, export rows."""

import functools
import json
from collections import deque

import numpy as np
import pytest

from repro.obs import (
    MetricsRegistry,
    StoreObserver,
    TimeSeriesSampler,
    validate_rows,
)
from repro.obs import observer as observer_module
from repro.obs.export import SCHEMA_VERSION
from repro.obs.observer import PAGES_EDGES
from repro.policies import make_policy
from repro.store import LogStructuredStore, StoreConfig
from repro.testkit.failpoints import FAILPOINTS, failpoint


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
    def test_cleaning_populates_metrics(self, observed_store):
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

    def test_flush_hook_counts_buffered_pages(self, buffered_config):
        # mdc uses the sort buffer (greedy would leave it unbuilt).
        store = LogStructuredStore(buffered_config, make_policy("mdc"))
        store.load_sequential(buffered_config.user_pages)
        with StoreObserver(store) as observer:
            _drive(store, 4000)
            counters = observer.metrics.snapshot().counters
            assert counters.get("buffer_flushes", 0) > 0
            assert counters["buffer_flush_pages"] >= counters["buffer_flushes"]

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

    def test_decision_ring_bounds_memory(self, small_config, monkeypatch):
        monkeypatch.setattr(observer_module, "MAX_DECISIONS", 3)
        store = LogStructuredStore(small_config, make_policy("greedy"))
        store.load_sequential(small_config.user_pages)
        with StoreObserver(store) as observer:
            _drive(store, 6000)
            assert len(observer.decisions) == 3
            assert observer.decisions_dropped > 0


class TestFailpoints:
    def test_another_stores_failpoints_leave_the_observer_alone(
        self, small_config, buffered_config
    ):
        """The failpoint registry is process-wide: an observer that
        subscribed to it counted every store's hits as its own, and kept
        every site in the process live while attached."""
        idle = LogStructuredStore(small_config, make_policy("greedy"))
        with StoreObserver(idle) as observer:
            before = observer.metrics.snapshot()
            busy = LogStructuredStore(buffered_config, make_policy("mdc"))
            busy.load_sequential(buffered_config.user_pages)
            _drive(busy, 3000)
            busy.flush()
            assert busy.stats.clean_cycles > 0
            assert observer.metrics.snapshot() == before
            assert not FAILPOINTS.active

    def test_detach_unsubscribes(self, small_config):
        store = LogStructuredStore(small_config, make_policy("greedy"))
        observer = StoreObserver(store).attach()
        observer.detach()
        assert not FAILPOINTS.active
        with FAILPOINTS.tracing():
            failpoint("obs.test.after")
        assert FAILPOINTS.count("obs.test.after") == 1
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
        assert types == {"meta", "sample", "decision", "metrics"}

    def test_window_covers_observed_interval(self, observed_store):
        store, observer = observed_store
        _drive(store, 3000)
        window = observer.window()
        assert window.user_writes == 3000
        assert window.write_amplification == pytest.approx(
            store.stats.gc_writes / 3000
        )


# -- the recording observer against the eager one it replaced ------------


class EagerObserver:
    """The observer's hooks as they were when every hook *formatted*:
    instruments looked up by name per call, decision rows built at
    ``on_victims``.  Shares no code with :class:`StoreObserver` — it is
    the reference the recording hooks are driven beside, on the same
    store events."""

    def __init__(self, store, sample_interval=None, max_decisions=1024):
        self.store = store
        self.metrics = MetricsRegistry()
        self.sampler = TimeSeriesSampler(store, interval=sample_interval)
        self.decisions = deque(maxlen=max_decisions)
        self.decisions_dropped = 0

    def on_seal(self, seg):
        segs = self.store.segments
        self.metrics.counter("segments_sealed").inc()

    def on_flush(self, pages):
        self.metrics.counter("buffer_flushes").inc()
        self.metrics.counter("buffer_flush_pages").inc(pages)

    def on_victims(self, candidates, victims):
        store = self.store
        policy = store.policy
        ids = np.asarray(victims, dtype=np.int64)
        columns = policy.decision_columns(store.segments, ids)
        victim_ids = ids.tolist()
        names = ["seg"] + list(columns)
        cells = [np.asarray(col).tolist() for col in columns.values()]
        rows = [dict(zip(names, row)) for row in zip(victim_ids, *cells)]
        if len(self.decisions) == self.decisions.maxlen:
            self.decisions_dropped += 1
        self.decisions.append(
            {
                "type": "decision",
                "clock": store.clock,
                "policy": getattr(policy, "name", type(policy).__name__),
                "candidates": int(len(candidates)),
                "victims": rows,
            }
        )
        self.metrics.counter("victim_selections").inc()

    def on_clean(self, victims, moved, reclaimed_units, emptiness):
        self.metrics.counter("clean_cycles").inc()
        self.metrics.counter("pages_relocated").inc(int(moved))
        self.metrics.counter("units_reclaimed").inc(int(reclaimed_units))
        hist = self.metrics.histogram(
            "cleaned_emptiness", tuple((i + 1) / 10 for i in range(10))
        )
        for e in emptiness:
            hist.observe(float(e))
        self.metrics.gauge("free_segments").set(self.store.free_segment_count)

    def on_clean_step(self, relocated, skipped, remaining):
        self.metrics.counter("cleaner_steps").inc()
        self.metrics.counter("cleaner_pages_skipped").inc(int(skipped))
        self.metrics.histogram("cleaner_step_pages", PAGES_EDGES).observe(
            float(relocated)
        )
        self.metrics.gauge("cleaner_pending").set(int(remaining))

    def on_write_stall(self, pages):
        self.metrics.counter("write_stalls").inc()
        self.metrics.histogram("write_stall_pages", PAGES_EDGES).observe(
            float(pages)
        )

    def rows(self, meta=None):
        header = {"type": "meta", "schema": SCHEMA_VERSION}
        header["run"] = dict(meta) if meta else {}
        header["run"].setdefault("policy", self.store.policy.name)
        yield header
        yield from self.sampler.samples
        yield from self.decisions
        row = self.metrics.snapshot().to_dict()
        row["type"] = "metrics"
        row["clock"] = self.store.clock
        row["decisions_dropped"] = self.decisions_dropped
        yield row


_HOOKS = ("on_seal", "on_flush", "on_victims", "on_clean", "on_clean_step",
          "on_write_stall")


class FanOut:
    """Sits in ``store.obs`` and feeds every hook call to the observer
    under test and to the reference, then holds their instruments to
    each other — so a lazily bound instrument has to appear in the very
    hook call the eager lookup creates it in."""

    def __init__(self, observer, reference):
        self.pair = (observer, reference)
        self.hook_calls = 0
        for hook in _HOOKS:
            setattr(self, hook, functools.partial(self._fan, hook))

    def _fan(self, hook, *args):
        observer, reference = self.pair
        getattr(observer, hook)(*args)
        getattr(reference, hook)(*args)
        self.hook_calls += 1
        assert observer.metrics.snapshot() == reference.metrics.snapshot(), hook


def drive_beside(make_observer, policy, buffered, stepped, **bounds):
    """One store, two observers: a random write stream (optionally with
    an incremental cycle begun and stepped between batches), then every
    export compared.  ``bounds`` go to the reference only.  Raises
    ``AssertionError`` on the first difference."""
    cfg = StoreConfig(
        n_segments=48, segment_units=16, fill_factor=0.7, clean_trigger=3,
        clean_batch=4, sort_buffer_segments=2 if buffered else 0,
    )
    store = LogStructuredStore(cfg, make_policy(policy))
    rng = np.random.default_rng(11)
    n = cfg.user_pages
    if policy.endswith("-opt"):
        store.set_oracle_frequencies(rng.random(n))
    store.load_sequential(n)
    observer = make_observer(store, sample_interval=500)
    reference = EagerObserver(store, sample_interval=500, **bounds)
    store.obs = fan = FanOut(observer, reference)
    for _ in range(30):
        store.write_batch(np.minimum(rng.zipf(1.3, 150) - 1, n - 1))
        if stepped:
            if store.clean_cursor is None and store.sealed_segments().size:
                store.clean_begin()
            store.clean_step(7)
        for obs in fan.pair:
            obs.sampler.maybe_sample()
    store.obs = None
    assert store.stats.clean_cycles > 5 and fan.hook_calls > 100
    assert observer.decisions_dropped == reference.decisions_dropped
    assert list(observer.decisions) == list(reference.decisions)
    ours, theirs = (
        [json.dumps(row) for row in obs.rows({"run": 1})] for obs in fan.pair
    )
    assert ours == theirs
    assert validate_rows(list(observer.rows()), require_decisions=True) == []
    return store, observer


class TestRecordingEqualsEager:
    """ISSUE 18: hooks record, export formats — and nothing a reader can
    see moved.  Every policy family's decision columns (multi-log picks
    its own victims, so its score is the no-stash recomputation), both
    write paths, whole and stepped cycles."""

    @pytest.mark.parametrize("stepped", [False, True], ids=["whole", "stepped"])
    @pytest.mark.parametrize("buffered", [False, True], ids=["direct", "buffered"])
    @pytest.mark.parametrize(
        "policy", ["mdc", "mdc-opt", "cost-benefit", "greedy", "multi-log"]
    )
    def test_rows_metrics_and_drops_are_equal(self, policy, buffered, stepped):
        store, observer = drive_beside(StoreObserver, policy, buffered, stepped)
        assert len(observer.decisions) == store.stats.clean_cycles + (
            store.clean_cursor is not None
        )

    @pytest.mark.parametrize("policy", ["mdc", "multi-log"])
    def test_bounded_rings_drop_the_same_records(self, policy, monkeypatch):
        monkeypatch.setattr(observer_module, "MAX_DECISIONS", 3)
        _, observer = drive_beside(
            StoreObserver, policy, False, True, max_decisions=3
        )
        assert observer.decisions_dropped > 0
        assert len(observer.decisions) == 3

    def test_mutant_reading_columns_at_export_fails(self):
        """Formatting is deferred; *capturing* must not be: the victims'
        columns are wiped by ``segs.reset`` before the cycle is over."""

        class LateColumns(StoreObserver):
            @property
            def decisions(self):
                segs, policy = self.store.segments, self.store.policy
                self._decisions = deque(
                    record[:4]
                    + (policy.decision_columns(segs, np.asarray(record[3])),)
                    for record in self._decisions
                )
                return StoreObserver.decisions.fget(self)

        with pytest.raises(AssertionError):
            drive_beside(LateColumns, "mdc", False, False)

    def test_mutant_binding_instruments_at_construction_fails(self):
        """An instrument enters the snapshot when its hook first fires
        (the exported metrics row lists what *happened*), not before."""

        class BoundUpFront(StoreObserver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                for name, attr in vars(StoreObserver).items():
                    if isinstance(attr, functools.cached_property):
                        getattr(self, name)

        with pytest.raises(AssertionError):
            drive_beside(BoundUpFront, "mdc", False, False)
