"""Consistent-hash key routing.

The router maps service keys to shard indices on a classic
virtual-node hash ring: every shard contributes ``replicas`` points
derived from a keyed blake2b hash, a key hashes to a point on the same
ring, and the key's shard is the owner of the first ring point at or
after the key's point (wrapping).  The ring is deterministic: points
depend only on ``(seed, shard, replica)`` and key bytes, so the same
router parameters reproduce the same mapping in every process
(``hashlib`` keyed hashing, never Python's randomized ``hash()``).

The tenant is not part of the ring coordinate: a key's point is a hash
of the key alone, so one key routes to the same shard under every
tenant (``shard_for`` takes ``tenant=`` for the callers that route a
namespaced ``(tenant, key)`` pair, and ignores it).  Distinct tenants'
keyspaces spread over the whole ring like any other keys.

So a ring hashes each distinct plain key (an exact ``int``, ``str`` or
``bytes``, which encode as themselves) once: ``shard_for`` keeps a memo
from such a key to its shard, and a key of any other type (``True``,
``1.0``, an ``IntEnum`` member, ``bytearray``, a tuple) is encoded and
hashed on every call, raising as it would.  The memo holds one entry
per distinct plain key routed and belongs to one ring: a pickled or
copied router starts with an empty one.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple, Union

Key = Union[str, bytes, int, Tuple]

#: Key types the ring encodes as themselves, by exact type: no two equal
#: keys of them differ in type, so one may stand for another in a dict.
_PLAIN = frozenset((int, str, bytes))


class RouterError(Exception):
    """Unroutable keys or invalid ring parameters."""


def encode_key(key: Key) -> bytes:
    """Canonical byte encoding of a service key.

    Type-tagged and length-prefixed so distinct keys never collide
    after encoding (``"1"`` vs ``1`` vs ``b"1"``, nested tuples), and
    stable across processes and platforms.
    """
    # A plain int by its exact type first: an int subclass (an
    # ``IntEnum`` member, ``bool``) encodes through ``str`` below.
    if type(key) is int:
        raw = b"%d" % key
        return b"i%d:" % len(raw) + raw
    if isinstance(key, str):
        raw = key.encode("utf-8")
        return b"s%d:" % len(raw) + raw
    if isinstance(key, bytes):
        return b"b%d:" % len(key) + key
    if isinstance(key, bytearray):
        return b"b%d:" % len(key) + bytes(key)
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


def _ring_hash(state: "hashlib.blake2b", data: bytes) -> int:
    """64-bit ring coordinate of ``data`` fed after what ``state``
    already holds (``state`` is left as it was)."""
    h = state.copy()
    h.update(data)
    return int.from_bytes(h.digest(), "big")


class ConsistentHashRouter:
    """Virtual-node consistent-hash ring over ``n_shards`` shards.

    Args:
        n_shards: Number of shards (>= 1).
        replicas: Virtual nodes per shard; more replicas means a more
            even key split at the cost of a larger ring.
        seed: Ring seed; routers built with equal ``(n_shards,
            replicas, seed)`` produce identical mappings.

    The ring holds a ``hashlib`` state, which cannot be pickled, so a
    router pickles (and deep-copies) as those three values and is
    rebuilt from them, with an empty key memo.
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
        # One keyed state per ring: the salt's key block is hashed once,
        # and every coordinate is a copy of it fed the point's bytes.
        ring = hashlib.blake2b(
            digest_size=8, key=b"repro.service.router:%d" % seed
        )
        points: List[Tuple[int, int]] = []
        for shard in range(n_shards):
            for replica in range(replicas):
                point = _ring_hash(ring, b"vnode:%d:%d" % (shard, replica))
                points.append((point, shard))
        # Keys hash under a copy with their ``key:`` prefix already fed.
        self._key_state = ring.copy()
        self._key_state.update(b"key:")
        # Ties (astronomically unlikely at 64 bits) break toward the
        # lower shard id, deterministically, via the tuple sort.
        points.sort()
        self._points = [p for p, _ in points]
        # One more owner than points: bisect past the last point wraps
        # to the first point's owner.
        self._owners = [s for _, s in points] + [points[0][1]]
        #: Plain key -> its shard, filled by ``shard_for``; never pickled
        #: (a pickle rebuilds the ring).
        self._memo: Dict[Key, int] = {}

    # -- lookup ----------------------------------------------------------

    def shard_for(self, key: Key, tenant: Optional[Key] = None) -> int:
        """The shard owning ``key``; ``tenant`` does not move it
        (module docstring)."""
        if type(key) in _PLAIN:
            try:
                return self._memo[key]
            except KeyError:
                raw = _ring_hash(self._key_state, encode_key(key))
                shard = self._memo[key] = self._owners[
                    bisect_left(self._points, raw)
                ]
                return shard
        raw = _ring_hash(self._key_state, encode_key(key))
        return self._owners[bisect_left(self._points, raw)]

    def __reduce__(self):
        return (ConsistentHashRouter, (self.n_shards, self.replicas, self.seed))

    def __len__(self) -> int:
        return self.n_shards

    def __repr__(self) -> str:
        return (
            "<ConsistentHashRouter shards=%d replicas=%d seed=%d>"
            % (self.n_shards, self.replicas, self.seed)
        )
