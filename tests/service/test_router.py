"""Consistent-hash router: determinism, growth, edge cases."""

import pytest

from repro.service import ConsistentHashRouter, RouterError, encode_key


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
        for bad in (True, False, None, 1.5, ["a"], {"k": 1}):
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


class TestGrowth:
    def test_single_shard_routes_everything_to_zero(self):
        router = ConsistentHashRouter(1)
        for key in sample_keys():
            assert router.shard_for(key) == 0
            assert router.shard_for(key, tenant="t0") == 0

    def test_growth_moves_keys_only_to_new_shards(self):
        keys = ["g%d" % i for i in range(3000)]
        n = 1
        router = ConsistentHashRouter(n)
        before = {k: router.shard_for(k, tenant="t1") for k in keys}
        for n_next in (2, 3, 5, 8):
            grown = router.grown(n_next)
            moved = 0
            for k in keys:
                after = grown.shard_for(k, tenant="t1")
                if after != before[k]:
                    assert after >= n, (
                        "key moved between pre-existing shards on growth"
                    )
                    moved += 1
                before[k] = after
            assert moved > 0  # growth actually takes load
            router, n = grown, n_next

    def test_grown_equals_fresh_construction(self):
        grown = ConsistentHashRouter(2, replicas=16, seed=9).grown(6)
        fresh = ConsistentHashRouter(6, replicas=16, seed=9)
        for key in sample_keys():
            assert grown.shard_for(key) == fresh.shard_for(key)

    def test_shrink_raises(self):
        with pytest.raises(RouterError):
            ConsistentHashRouter(4).grown(2)


class TestValidation:
    def test_bad_params_raise(self):
        with pytest.raises(RouterError):
            ConsistentHashRouter(0)
        with pytest.raises(RouterError):
            ConsistentHashRouter(2, replicas=0)
