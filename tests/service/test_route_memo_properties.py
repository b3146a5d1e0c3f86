"""Property test of the service's route memo against a dict model.

Hypothesis draws puts, deletes and gets over two tenants and ``None``,
with the odd tick and flush, on a two-shard service.  The keys include
``1``, ``1.0`` and ``True``: one ``(tenant, key)`` and so one record.
Only ints route (``encode_key``), so ``1.0`` and ``True`` are served
from the memo when ``1`` put them there.  They raise
:class:`RouterError`, with nothing queued or counted, at a miss, and
on a put or delete while the key has no slot: the op would be queued,
and then stored, under their form, and the ring's key rule is the one
input check on keys.

After every op:

* the memo rule -- an entry names the ring's shard for the key and a
  slot the key owns there, or no slot while it waits for its first
  flush;
* ``router.shard_for`` ran once per ``(tenant, key)``, for exactly the
  keys an op routed;
* the ``deletes`` counter is the deletes the service acknowledged.

Every get reads what the model holds, and after a final flush the
shards hold exactly the model.  ``max_examples`` is left to the
profile (``tests/conftest.py``).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.service import ConsistentHashRouter, RouterError, Service
from repro.store import StoreConfig

CONFIG = StoreConfig(
    n_segments=32, segment_units=16, fill_factor=0.5,
    clean_trigger=2, clean_batch=2,
)
UNIT_BYTES = 8
TENANTS = ("a", "b", None)

tenants = st.sampled_from(TENANTS)
keys = st.one_of(st.sampled_from([1, 1.0, True]), st.integers(0, 12))
values = st.binary(min_size=1, max_size=2 * UNIT_BYTES)
ops = st.one_of(
    st.tuples(st.just("put"), tenants, keys, values),
    st.tuples(st.just("delete"), tenants, keys),
    st.tuples(st.just("get"), tenants, keys),
    st.tuples(st.sampled_from(["tick", "flush"])),
)


def count_ring_calls(svc, calls):
    """Log every ``(tenant, key)`` the service's current ring routes (a
    key that raises is asked again at its next miss)."""
    inner = svc.router.shard_for

    def shard_for(key, tenant=None):
        shard = inner(key, tenant=tenant)
        calls.append((tenant, key))
        return shard

    svc.router.shard_for = shard_for


def check_memo(svc):
    """The memo rule, against the ring itself (unwrapped)."""
    queue, router = svc.queue, svc.router
    for tenant, memo in queue.routes.items():
        for key in memo:
            shard, slot = queue.route_of(tenant, key)
            assert shard == ConsistentHashRouter.shard_for(router, key, tenant)
            if slot is not None:
                assert svc.pool[shard]._slot_of.get((tenant, key)) == slot


@settings(deadline=None)
@given(st.lists(ops, max_size=120))
def test_route_memo_matches_a_dict_model(stream):
    svc = Service(
        2, CONFIG, policy="mdc", unit_bytes=UNIT_BYTES,
        batch_size=6, flush_interval=2, max_depth=16,
        pages_per_step=4, seed=0,
    )
    model = {}
    routed = set()  # the (tenant, key) pairs memoized
    calls = []
    deletes = 0
    count_ring_calls(svc, calls)
    for op in stream:
        kind = op[0]
        if kind in ("tick", "flush"):
            getattr(svc, kind)()
        else:
            tenant, key = op[1], op[2]
            skey = (tenant, key)
            if type(key) is not int and (
                skey not in routed
                or kind != "get" and svc.queue.route_of(tenant, key)[1] is None
            ):
                depth = svc.queue.depth
                with pytest.raises(RouterError):
                    getattr(svc, kind)(key, *op[3:], tenant)
                assert svc.queue.depth == depth
            else:
                routed.add(skey)
                if kind == "put":
                    svc.put(key, op[3], tenant)
                    model[skey] = op[3]
                elif kind == "delete":
                    svc.delete(key, tenant)
                    model.pop(skey, None)
                    deletes += 1
                else:
                    assert svc.get(key, tenant) == model.get(skey)
        assert len(calls) == len(set(calls)) == len(routed)
        assert set(calls) == routed
        assert svc.metrics.counter("deletes").value == deletes
        check_memo(svc)
    svc.flush()
    check_memo(svc)
    held = {skey: kv.get(skey) for kv in svc.pool.shards for skey in kv.keys()}
    assert held == model
    # Read through the stored forms: each is the int the ring routes,
    # whichever alias the model holds the key under.
    for (tenant, key), value in held.items():
        assert type(key) is int
        assert svc.get(key, tenant) == value
