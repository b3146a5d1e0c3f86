"""Model-based test of the service stack: a Hypothesis state machine
over :class:`~repro.service.Service` against a per-tenant dict.

The first slice of ROADMAP item 4: client ops, the service clock,
explicit flushes and growth, on a geometry where every shard has a
sorting buffer (32 segments: ``n // 16`` = 2) and is small enough that
a few hundred record writes run it through cleaning.  Client values
include ones no shard would store (not bytes, or over
``max_value_bytes``): ``put`` must raise ``KVError`` at the call and
queue nothing, so the model is unchanged and every op acknowledged
before it is still applied at the next flush; and a ``bytearray`` a
client mutates after its ``put`` was acknowledged.  No failpoints yet.
After every step:

* read-your-writes — every key reads as the model says, whether its
  last op is queued, buffered in the shard, staged by a cleaning cycle
  or in a segment;
* ``pool.check_consistency()`` — per shard, the buffered-record rule
  of ``kv.check_consistency`` and the store's ``check_invariants``;
* ``pool.n_shards == len(queue.shards) == len(observers)``;
* queue depth ``<= max_depth``.

``max_examples`` is left to the profile (``tests/conftest.py``): 100 in
tier-1, 1,500 under ``--hypothesis-profile nightly``.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.kvstore import KVError
from repro.service import Service
from repro.store import StoreConfig

CONFIG = StoreConfig(
    n_segments=32, segment_units=8, fill_factor=0.6,
    clean_trigger=2, clean_batch=2,
)
UNIT_BYTES = 8
TENANTS = ("a", "b")
#: Sized so the fullest shard (92 of the 160 keys, before any growth)
#: stays at 72 % of its device with every record at two units.
N_KEYS = 80
MAX_DEPTH = 32
MAX_SHARDS = 4

tenants = st.sampled_from(TENANTS)
keys = st.integers(0, N_KEYS - 1)
#: 1-2 units: a rewrite of a buffered record changes its size.
sizes = st.integers(1, 2 * UNIT_BYTES)
fills = st.integers(0, 255)
#: Values every shard refuses: oversized (the limit is one segment,
#: 64 bytes) or not bytes at all.
invalid_values = st.one_of(
    st.binary(min_size=8 * UNIT_BYTES + 1, max_size=8 * UNIT_BYTES + 16),
    st.text(max_size=4),
    st.none(),
    st.integers(),
)


class ServiceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.service = Service(
            2, CONFIG, policy="mdc", unit_bytes=UNIT_BYTES,
            batch_size=8, flush_interval=2, max_depth=MAX_DEPTH,
            pages_per_step=4, seed=0,
        )
        assert all(
            kv.store.buffer is not None for kv in self.service.pool.shards
        )
        self.model = {tenant: {} for tenant in TENANTS}

    @rule(tenant=tenants, key=keys, size=sizes, fill=fills)
    def put(self, tenant, key, size, fill):
        value = bytes([fill]) * size
        self.service.put(key, value, tenant=tenant)
        self.model[tenant][key] = value

    @rule(tenant=tenants, key=keys, size=sizes, fill=fills)
    def put_bytearray(self, tenant, key, size, fill):
        """Stored as the bytes it held at the call."""
        value = bytearray([fill]) * size
        self.service.put(key, value, tenant=tenant)
        self.model[tenant][key] = bytes(value)
        value[0] ^= 0xFF

    @rule(tenant=tenants, key=keys, value=invalid_values)
    def put_invalid(self, tenant, key, value):
        """Refused at the call: nothing queued, the model unchanged (the
        invariants and the teardown's flush check the rest)."""
        depth = self.service.queue.depth
        with pytest.raises(KVError):
            self.service.put(key, value, tenant=tenant)
        assert self.service.queue.depth == depth

    @rule(
        tenant=tenants, first=keys, count=st.integers(4, 20), size=sizes,
        fill=fills,
    )
    def put_run(self, tenant, first, count, size, fill):
        """A client burst over consecutive keys: the volume that fills
        buffers, drains them and makes the shards clean."""
        for key in range(first, first + count):
            self.put(tenant, key % N_KEYS, size, fill)

    @rule(tenant=tenants, key=keys)
    def delete(self, tenant, key):
        self.service.delete(key, tenant=tenant)
        self.model[tenant].pop(key, None)

    @rule(tenant=tenants, key=keys)
    def get(self, tenant, key):
        assert self.service.get(key, tenant=tenant) == self.model[tenant].get(
            key
        )

    @rule()
    def tick(self):
        self.service.tick()

    @rule()
    def flush(self):
        self.service.flush()
        assert self.service.queue.depth == 0

    @precondition(lambda self: self.service.pool.n_shards < MAX_SHARDS)
    @rule()
    def grow(self):
        service = self.service
        before = service.pool.n_shards
        moved = service.scale_to(before + 1)
        assert service.pool.n_shards == before + 1
        assert moved == len(service.pool[before])  # all onto the new shard
        self.stored_equals_model()

    def stored_equals_model(self):
        """With nothing queued, the shards hold the model: each key on
        exactly one shard, the one it routes to."""
        service = self.service
        assert service.queue.depth == 0
        held = sorted(
            skey for kv in service.pool.shards for skey in kv.keys()
        )
        assert held == sorted(
            (tenant, key)
            for tenant, values in self.model.items()
            for key in values
        )
        for tenant, key in held:
            assert (tenant, key) in service.pool[service.shard_of(key, tenant)]

    @invariant()
    def read_your_writes(self):
        for tenant, values in self.model.items():
            for key in range(N_KEYS):
                assert self.service.get(key, tenant=tenant) == values.get(key)

    @invariant()
    def layers_agree(self):
        service = self.service
        service.pool.check_consistency()
        assert (
            service.pool.n_shards
            == len(service.pool.cleaners)
            == len(service.queue.shards)
            == len(service.observers)
        )
        assert service.queue.depth <= MAX_DEPTH
        assert service.queue.depth == sum(
            service.queue.shard_depth(i) for i in range(service.pool.n_shards)
        )

    def teardown(self):
        self.service.flush()
        self.stored_equals_model()
        self.service.close()


ServiceMachine.TestCase.settings = settings(
    stateful_step_count=40, deadline=None
)
TestServiceMachine = ServiceMachine.TestCase


def test_the_machines_geometry_buffers_drains_and_cleans():
    """The premise of the machine, shown on one fixed walk of its own
    rules: every shard (the grown ones too) drains its buffer and runs
    cleaning cycles, pages are relocated (while two shards are the whole
    pool, at fill 0.5-0.7) mostly in governed rounds, and those leave
    cycles mid-flight for the invariants to meet."""
    machine = ServiceMachine()
    rng = random.Random(0)
    mid_flight = 0
    for step in range(360):
        tenant = rng.choice(TENANTS)
        size = 2 * UNIT_BYTES if step < 180 else rng.randint(1, 2 * UNIT_BYTES)
        machine.put_run(
            tenant, rng.randrange(N_KEYS), rng.randint(4, 20), size, step % 256
        )
        if step % 7 == 0:
            machine.delete(tenant, rng.randrange(N_KEYS))
        if step % 3 == 0:
            machine.tick()
        if step in (180, 270):
            machine.grow()
        machine.read_your_writes()
        machine.layers_agree()
        mid_flight += any(
            kv.store.clean_cursor is not None
            for kv in machine.service.pool.shards
        )
    pool = machine.service.pool
    assert pool.n_shards == MAX_SHARDS
    for kv in pool.shards:
        stats = kv.store.stats
        assert stats.user_device_writes > 0  # drained
        assert stats.clean_cycles > 0
    assert sum(kv.store.stats.gc_writes for kv in pool.shards) > 100
    counters = machine.service.metrics.snapshot().counters
    assert counters["gc_governed_pages"] > 100
    assert mid_flight > 0
    machine.teardown()
