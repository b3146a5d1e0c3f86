"""Consistent-hash key routing.

The router maps service keys to shard indices on a classic
virtual-node hash ring: every shard contributes ``replicas`` points
derived from a keyed blake2b hash, a key hashes to a point on the same
ring, and the key's shard is the owner of the first ring point at or
after the key's point (wrapping).  Two properties the service relies
on:

* **Determinism** — points depend only on ``(seed, shard, replica)``
  and key bytes; the same router parameters reproduce the same mapping
  in every process (``hashlib`` keyed hashing, never Python's
  randomized ``hash()``).
* **Monotone growth** — growing from ``n`` to ``n+1`` shards only adds
  ring points, so a key either keeps its shard or moves to the *new*
  shard; no key migrates between pre-existing shards.  This is what
  makes :meth:`repro.service.Service.scale_to` rebalancing cheap and
  testable.

The tenant is not part of the ring coordinate: a key's point is a hash
of the key alone, so one key routes to the same shard under every
tenant (``shard_for`` takes ``tenant=`` for the callers that route a
namespaced ``(tenant, key)`` pair, and ignores it).  Distinct tenants'
keyspaces spread over the whole ring like any other keys.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Optional, Tuple, Union

Key = Union[str, bytes, int, Tuple]


class RouterError(Exception):
    """Unroutable keys or invalid ring parameters."""


def encode_key(key: Key) -> bytes:
    """Canonical byte encoding of a service key.

    Type-tagged and length-prefixed so distinct keys never collide
    after encoding (``"1"`` vs ``1`` vs ``b"1"``, nested tuples), and
    stable across processes and platforms.
    """
    if isinstance(key, bytes):
        return b"b%d:" % len(key) + key
    if isinstance(key, bytearray):
        return b"b%d:" % len(key) + bytes(key)
    if isinstance(key, str):
        raw = key.encode("utf-8")
        return b"s%d:" % len(raw) + raw
    if isinstance(key, bool):
        # bool is an int subclass; reject it to keep encodings unambiguous.
        raise RouterError("bool is not a routable key type")
    if isinstance(key, int):
        raw = str(key).encode("ascii")
        return b"i%d:" % len(raw) + raw
    if isinstance(key, tuple):
        parts = [encode_key(part) for part in key]
        body = b"".join(parts)
        return b"t%d:" % len(body) + body
    raise RouterError(
        "keys must be str, bytes, int, or tuples thereof; got %s"
        % type(key).__name__
    )


def _hash64(salt: bytes, data: bytes) -> int:
    """64-bit keyed hash — the ring coordinate of ``data``."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8, key=salt).digest(), "big"
    )


class ConsistentHashRouter:
    """Virtual-node consistent-hash ring over ``n_shards`` shards.

    Args:
        n_shards: Number of shards (>= 1).
        replicas: Virtual nodes per shard; more replicas means a more
            even key split at the cost of a larger ring.
        seed: Ring seed; routers built with equal ``(n_shards,
            replicas, seed)`` produce identical mappings.
    """

    def __init__(
        self,
        n_shards: int,
        replicas: int = 64,
        seed: int = 0,
    ) -> None:
        if n_shards < 1:
            raise RouterError("n_shards must be >= 1, got %d" % n_shards)
        if replicas < 1:
            raise RouterError("replicas must be >= 1, got %d" % replicas)
        self.n_shards = n_shards
        self.replicas = replicas
        self.seed = seed
        self._salt = b"repro.service.router:%d" % seed
        points: List[Tuple[int, int]] = []
        for shard in range(n_shards):
            for replica in range(replicas):
                point = _hash64(self._salt, b"vnode:%d:%d" % (shard, replica))
                points.append((point, shard))
        # Ties (astronomically unlikely at 64 bits) break toward the
        # lower shard id, deterministically, via the tuple sort.
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    # -- lookup ----------------------------------------------------------

    def shard_for(self, key: Key, tenant: Optional[Key] = None) -> int:
        """The shard owning ``key``; ``tenant`` does not move it
        (module docstring)."""
        raw = _hash64(self._salt, b"key:" + encode_key(key))
        idx = bisect.bisect_left(self._points, raw)
        if idx == len(self._points):
            idx = 0  # wrap to the ring's first point
        return self._owners[idx]

    def grown(self, n_shards: int) -> "ConsistentHashRouter":
        """A router over more shards with the same ring parameters.

        Because growth only adds virtual nodes, every key either keeps
        its shard or moves to one of the new shards.
        """
        if n_shards < self.n_shards:
            raise RouterError(
                "cannot shrink a ring from %d to %d shards"
                % (self.n_shards, n_shards)
            )
        return ConsistentHashRouter(
            n_shards, replicas=self.replicas, seed=self.seed
        )

    def __len__(self) -> int:
        return self.n_shards

    def __repr__(self) -> str:
        return (
            "<ConsistentHashRouter shards=%d replicas=%d seed=%d>"
            % (self.n_shards, self.replicas, self.seed)
        )
