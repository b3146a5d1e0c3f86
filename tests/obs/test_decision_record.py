"""The decision record is the decision, bit for bit.

A cleaning cycle records its victims' ranking context from what the
selection already holds (the priorities it ranked by) instead of
ranking them again.  Whatever the record is built from, its rows must
be what :meth:`~repro.policies.base.CleaningPolicy.decision_columns`
computes afresh on the store as it stood just before ``clean_begin``:
here, on a deep copy taken at that instant, with the copied policy's
record of its last selection dropped so that it ranks the victims anew.
"""

import copy

import numpy as np
import pytest

from repro.obs import StoreObserver
from repro.policies import make_policy
from repro.store import LogStructuredStore, StoreConfig

POLICIES = ["mdc", "mdc-opt", "greedy", "cost-benefit", "age", "multi-log"]


def aged_store(policy):
    cfg = StoreConfig(
        n_segments=48, segment_units=16, fill_factor=0.7, clean_trigger=3,
        clean_batch=4,
    )
    store = LogStructuredStore(cfg, make_policy(policy))
    rng = np.random.default_rng(11)
    n = cfg.user_pages
    if policy.endswith("-opt"):
        store.set_oracle_frequencies(rng.random(n))
    store.load_sequential(n)
    store.write_batch(np.minimum(rng.zipf(1.3, 2000) - 1, n - 1))
    return store


def copies_before_begin(store):
    """Wrap ``store.clean_begin``: each call first deep-copies the store
    as it stands."""
    copies = []
    begin = store.clean_begin

    def copying(*args, **kwargs):
        copies.append(copy.deepcopy(store))
        return begin(*args, **kwargs)

    store.clean_begin = copying
    return copies


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@pytest.mark.parametrize("policy", POLICIES)
def test_recorded_rows_are_the_columns_computed_before_the_cycle(policy):
    store = aged_store(policy)
    copies = copies_before_begin(store)
    with StoreObserver(store) as observer:
        for _ in range(3):
            store.clean()
    decisions = observer.decisions
    assert len(decisions) == len(copies) == 3
    for before, decision in zip(copies, decisions):
        rows = decision["victims"]
        ids = np.asarray([row["seg"] for row in rows], dtype=np.int64)
        before.policy._chosen = None
        expected = before.policy.decision_columns(before.segments, ids)
        assert decision["clock"] == before.clock
        assert list(rows[0]) == ["seg", *expected]
        for name, column in expected.items():
            assert bits([row[name] for row in rows]) == bits(column), name
