"""Golden state digests of a service run: the write path under the
service, pinned.

One fixed client stream drives a two-shard ``mdc`` service — rewrites
of hot keys inside a flush window, deletes, re-puts of deleted keys,
ticks.  After a final flush each shard's ``state_digest`` must equal
the value recorded below, and every key must read as a dict model
says.  A service keeps its shard count for life, so the run moves no
key between shards and there is no migration count to check.
The stream comes from an integer LCG, so the pins move only when what
reaches a shard's store moves: which slots a flush writes, in what
order and at what sizes, and which it trims.  A refactor of the
service, the ingest queue or the kvstore that claims to preserve state
must reproduce them; one that means to change it re-records them with
``python tests/service/test_golden_service.py``.
"""

from repro.service import Service
from repro.store import StoreConfig
from repro.testkit.trace import state_digest

N_KEYS = 90
TENANTS = ("a", "b", "c")


def lcg(seed):
    """The 31-bit ``ax + c`` generator; high bits only."""
    x = seed
    while True:
        x = (1103515245 * x + 12345) % (1 << 31)
        yield x >> 8


def drive():
    """The fixed run; returns the service and the model it must hold."""
    svc = Service(
        2,
        StoreConfig(
            n_segments=16, segment_units=16, fill_factor=0.6,
            clean_trigger=2, clean_batch=2,
        ),
        policy="mdc",
        unit_bytes=8,
        batch_size=24,
        flush_interval=3,
        max_depth=64,
        pages_per_step=6,
        seed=7,
    )
    rng = lcg(20210419)
    model = {}
    for step in range(4000):
        tenant = TENANTS[next(rng) % len(TENANTS)]
        # 70 % of the ops hit a tenth of the keys, so a window holds
        # rewrites, deletes of queued keys and re-puts of deleted ones.
        hot = next(rng) % 10 < 7
        key = next(rng) % (N_KEYS // 10 if hot else N_KEYS)
        if next(rng) % 100 < 15:
            svc.delete(key, tenant=tenant)
            model.pop((tenant, key), None)
        else:
            value = bytes([step % 251]) * (1 + next(rng) % 20)
            svc.put(key, value, tenant=tenant)
            model[(tenant, key)] = value
        if step % 40 == 39:
            svc.tick()
    svc.flush()
    return svc, model


#: Per shard, the ``state_digest`` after :func:`drive`.  Last
#: re-recorded when the service lost its growth path: the run keeps its
#: two shards throughout (it had grown to three at step 2,000), and the
#: digests were recorded from the service that still had that path, so
#: they pin every other part of it unchanged (per-shard Wamp 2.899 /
#: 1.913, trims 117 / 195).
GOLDEN = [
    "3360b33558acc6d4a69023c40b457f59cb81fc99a819201c1adc7f07bc4bb5cf",
    "aa073cc01f5d4136d525594e312cad98dfb4415e41f4c9230bed62a08424733e",
]


def test_shard_states_match_the_recorded_digests():
    svc, model = drive()
    assert [state_digest(kv.store) for kv in svc.pool.shards] == GOLDEN


def test_the_run_holds_the_model():
    svc, model = drive()
    for (tenant, key), value in model.items():
        assert svc.get(key, tenant=tenant) == value
    assert len(svc) == len(model)
    assert sum(kv.store.stats.trims for kv in svc.pool.shards) > 0
    assert sum(kv.store.stats.gc_writes for kv in svc.pool.shards) > 0
    svc.pool.check_consistency()


if __name__ == "__main__":
    print("GOLDEN = [")
    for digest in (state_digest(kv.store) for kv in drive()[0].pool.shards):
        print('    "%s",' % digest)
    print("]")
