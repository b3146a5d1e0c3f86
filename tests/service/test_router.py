"""Consistent-hash router: determinism, edge cases, and the ring
pinned against a golden table and a reference kept here."""

import copy
import enum
import hashlib
import pickle
from bisect import bisect_left

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.service.router as router_mod
from repro.service import ConsistentHashRouter, RouterError, Service, encode_key
from repro.store import StoreConfig


def sample_keys():
    keys = ["k%d" % i for i in range(64)]
    keys += [i for i in range(64)]
    keys += [b"raw%d" % i for i in range(16)]
    keys += [("t", i) for i in range(16)]
    keys += ["", b"", 0, -7, ("",), "x" * 100_000]
    return keys


class TestEncoding:
    def test_distinct_types_never_collide(self):
        assert encode_key("1") != encode_key(1)
        assert encode_key("1") != encode_key(b"1")
        assert encode_key(("a", "b")) != encode_key(("ab",))
        assert encode_key(("a", ("b",))) != encode_key(("a", "b"))

    def test_empty_keys_are_routable(self):
        router = ConsistentHashRouter(4)
        for key in ("", b"", ()):
            assert 0 <= router.shard_for(key) < 4

    def test_oversized_key_routes(self):
        router = ConsistentHashRouter(4)
        assert 0 <= router.shard_for("x" * 1_000_000) < 4

    def test_unroutable_types_raise(self):
        router = ConsistentHashRouter(2)
        for bad in (True, False, None, 1.5, ["a"], {"k": 1}, ("a", False)):
            with pytest.raises(RouterError):
                router.shard_for(bad)


class TestDeterminism:
    def test_same_params_same_mapping(self):
        a = ConsistentHashRouter(8, replicas=32, seed=3)
        b = ConsistentHashRouter(8, replicas=32, seed=3)
        for key in sample_keys():
            assert a.shard_for(key) == b.shard_for(key)

    def test_seed_changes_mapping(self):
        a = ConsistentHashRouter(8, seed=0)
        b = ConsistentHashRouter(8, seed=1)
        moved = sum(
            1 for key in sample_keys() if a.shard_for(key) != b.shard_for(key)
        )
        assert moved > 0

    def test_keys_spread_over_all_shards(self):
        router = ConsistentHashRouter(4, replicas=64)
        owners = {router.shard_for("k%d" % i) for i in range(2000)}
        assert owners == {0, 1, 2, 3}

    def test_tenant_is_not_part_of_the_ring_coordinate(self):
        router = ConsistentHashRouter(8, seed=2)
        for key in sample_keys():
            shard = router.shard_for(key)
            for tenant in ("t0", "acme", None):
                assert router.shard_for(key, tenant=tenant) == shard

    def test_single_shard_routes_everything_to_zero(self):
        router = ConsistentHashRouter(1)
        for key in sample_keys():
            assert router.shard_for(key) == 0
            assert router.shard_for(key, tenant="t0") == 0


class TestValidation:
    def test_bad_params_raise(self):
        with pytest.raises(RouterError):
            ConsistentHashRouter(0)
        with pytest.raises(RouterError):
            ConsistentHashRouter(2, replicas=0)


class _Level(enum.IntEnum):
    LOW = 3
    HIGH = 70000


class _Shown(int):
    """An int subclass whose ``str`` is not its digits: an int
    subclass is encoded by its ``str``, not by the plain-int path."""

    def __str__(self):
        return "shown-%d" % int(self)


#: Every routable type: ints (negative, 0, past 64 bits), str (empty,
#: non-ASCII), bytes, bytearray, nested tuples, int subclasses.
GOLDEN_KEYS = [
    0, 1, -1, -7, 42, 2**63 - 1, 2**64, -(2**64) - 5, 10**30,
    "", "k0", "key-12345", "caf\u00e9", "\u65e5\u672c\u8a9e", "\U0001f600",
    b"", b"raw0", b"\x00\xff", bytearray(b""), bytearray(b"raw0"),
    (), ("t", 3), ("a", ("b", 1)), (("x",), b"y", -2, ""), ("", ()),
    _Level.LOW, _Level.HIGH, _Shown(7), _Shown(-12), ("t", _Shown(7)),
]

#: ``shard_for`` on an 8-shard, 64-replica ring, recorded before plain
#: keys had a fast path and before the ring kept one keyed hash state.
GOLDEN_SHARDS = {
    0: [7, 6, 0, 6, 5, 2, 1, 2, 3, 7, 7, 4, 6, 7, 1, 2, 1, 7, 2, 1,
        3, 0, 4, 6, 3, 6, 7, 0, 4, 7],
    3: [6, 1, 1, 4, 7, 0, 3, 3, 3, 2, 0, 5, 4, 5, 4, 0, 7, 4, 0, 7,
        6, 6, 3, 0, 5, 7, 3, 0, 0, 2],
}


def reference_encode(key):
    """The isinstance-chain encoding, as ``encode_key`` was written
    before plain keys were dispatched on their exact type."""
    if isinstance(key, bytes):
        return b"b%d:" % len(key) + key
    if isinstance(key, bytearray):
        return b"b%d:" % len(key) + bytes(key)
    if isinstance(key, str):
        raw = key.encode("utf-8")
        return b"s%d:" % len(raw) + raw
    if isinstance(key, bool):
        raise RouterError("bool")
    if isinstance(key, int):
        raw = str(key).encode("ascii")
        return b"i%d:" % len(raw) + raw
    if isinstance(key, tuple):
        body = b"".join(reference_encode(part) for part in key)
        return b"t%d:" % len(body) + body
    raise RouterError(type(key).__name__)


def reference_shard(n_shards, replicas, seed, key):
    """A fresh keyed blake2b per coordinate under the ring's salt, the
    key's coordinate over ``b"key:" + encoding``, then the first ring
    point at or after it (wrapping)."""
    salt = b"repro.service.router:%d" % seed

    def coord(data):
        digest = hashlib.blake2b(data, digest_size=8, key=salt).digest()
        return int.from_bytes(digest, "big")

    ring = sorted(
        (coord(b"vnode:%d:%d" % (shard, replica)), shard)
        for shard in range(n_shards)
        for replica in range(replicas)
    )
    points = [p for p, _ in ring]
    idx = bisect_left(points, coord(b"key:" + reference_encode(key)))
    return ring[idx % len(ring)][1]


plain_keys = st.one_of(
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.text(),
    st.binary(),
    st.binary().map(bytearray),
    st.sampled_from(list(_Level)),
    st.integers().map(_Shown),
)
routable_keys = st.recursive(
    plain_keys, lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=12,
)


class TestRingPinned:
    @pytest.mark.parametrize("seed", sorted(GOLDEN_SHARDS))
    def test_golden_table(self, seed):
        router = ConsistentHashRouter(8, seed=seed)
        got = [router.shard_for(key) for key in GOLDEN_KEYS]
        assert got == GOLDEN_SHARDS[seed]

    @given(
        key=routable_keys,
        n_shards=st.integers(1, 9),
        replicas=st.integers(1, 16),
        seed=st.integers(0, 2**20),
    )
    @settings(deadline=None)
    def test_shard_matches_reference(self, key, n_shards, replicas, seed):
        router = ConsistentHashRouter(n_shards, replicas=replicas, seed=seed)
        want = reference_shard(n_shards, replicas, seed, key)
        assert router.shard_for(key) == want

    @given(key=routable_keys)
    def test_encoding_matches_isinstance_chain(self, key):
        assert encode_key(key) == reference_encode(key)

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
        ids=["deepcopy", "pickle"],
    )
    def test_copies_route_alike(self, clone):
        router = ConsistentHashRouter(8, replicas=32, seed=3)
        twin = clone(router)
        assert repr(twin) == repr(router)
        assert [twin.shard_for(k) for k in GOLDEN_KEYS] == [
            router.shard_for(k) for k in GOLDEN_KEYS
        ]


class _Named(enum.IntEnum):
    """An ``IntEnum`` member equal to 1 whose ``str`` is not ``"1"``."""

    ONE = 1

    def __str__(self):
        return self.name.lower()


#: Keys of exactly ``int``, ``str`` or ``bytes``: the ones the ring memoizes.
exact_plain_keys = st.one_of(
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.text(),
    st.binary(),
)


class TestKeyMemo:
    @pytest.mark.parametrize("seed", sorted(GOLDEN_SHARDS))
    def test_memo_repeats_the_golden_table(self, seed):
        router = ConsistentHashRouter(8, seed=seed)
        for _ in range(2):
            got = [router.shard_for(key) for key in GOLDEN_KEYS]
            assert got == GOLDEN_SHARDS[seed]

    @given(
        keys=st.lists(exact_plain_keys, max_size=12),
        seed=st.integers(0, 2**20),
    )
    @settings(deadline=None)
    def test_memoized_stream_matches_reference(self, keys, seed):
        router = ConsistentHashRouter(5, replicas=8, seed=seed)
        for key in keys + keys:
            want = reference_shard(5, 8, seed, key)
            for tenant in ("t0", "t1", None, ("acme", 2)):
                assert router.shard_for(key, tenant=tenant) == want

    def test_memo_keeps_unroutable_aliases_raising(self):
        router = ConsistentHashRouter(8)
        router.shard_for(1)
        router.shard_for(0)
        for alias in (True, False, 1.0, 0.0):
            with pytest.raises(RouterError):
                router.shard_for(alias)

    def test_int_subclass_routes_by_its_own_encoding(self):
        router = ConsistentHashRouter(8, seed=0)
        one = router.shard_for(1)
        for alias in (_Named.ONE, _Shown(1)):
            assert alias == 1
            want = reference_shard(8, 64, 0, alias)
            assert want != one  # the seed keeps the two apart
            assert router.shard_for(alias) == want
            assert router.shard_for(alias) == want
        assert router.shard_for(1) == one

    @pytest.mark.parametrize(
        "clone",
        [
            copy.deepcopy,
            lambda r: pickle.loads(pickle.dumps(r)),
        ],
        ids=["deepcopy", "pickle"],
    )
    def test_clones_of_a_warm_router_route_afresh(self, clone):
        router = ConsistentHashRouter(2, replicas=16, seed=9)
        keys = sample_keys() + GOLDEN_KEYS
        for key in keys:
            router.shard_for(key)
        twin = clone(router)
        fresh = ConsistentHashRouter(twin.n_shards, replicas=16, seed=9)
        assert [twin.shard_for(k) for k in keys] == [
            fresh.shard_for(k) for k in keys
        ]

    def test_preload_hashes_each_shared_key_once(self, monkeypatch):
        svc = Service(
            4,
            StoreConfig(n_segments=64, segment_units=64, fill_factor=0.5),
            unit_bytes=8,
            batch_size=32,
            max_depth=256,
        )
        hashed = []
        ring_hash = router_mod._ring_hash

        def counting(state, data):
            hashed.append(data)
            return ring_hash(state, data)

        monkeypatch.setattr(router_mod, "_ring_hash", counting)
        keys = list(range(150)) + ["k%d" % i for i in range(50)]
        for tenant in ("t0", "t1", "t2", "t3"):
            for key in keys:
                svc.put(key, b"v", tenant)
        svc.flush()
        assert len(hashed) == len(keys)
        assert sorted(hashed) == sorted(encode_key(k) for k in keys)
        for tenant in ("t0", "t3"):
            for key in keys:
                assert svc.get(key, tenant=tenant) == b"v"
        assert len(hashed) == len(keys)
