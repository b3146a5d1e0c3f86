"""Seeded input generator for the stack benchmark.

Everything the benchmark feeds the program is made here from ``--seed``
and nothing else: the same seed gives byte-identical op streams (the
sha256 of each stream is recorded in the result so two runs can prove
it), another seed gives different ones.  The module is independent of
``repro.workloads`` and ``repro.service.harness`` on purpose -- a change
to the program's own generators must not move the benchmark's inputs --
and the program only ever receives the finished lists and arrays.

Values are ``bytes`` filled with the op index's 8-byte little-endian
encoding, cut to the value length, so a read can be checked against a
model that replays the same ops.
"""

import hashlib
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

#: Op kinds of a service stream.
PUT, DELETE, GET = 0, 1, 2

#: One service op: (kind, tenant, key, value); value is None unless PUT.
ServiceOp = Tuple[int, str, int, Optional[bytes]]


class ServiceInputs(NamedTuple):
    """A service workload's inputs: every key once, then the op stream."""

    preload: List[Tuple[str, int, bytes]]
    ops: List[ServiceOp]
    digest: str


class StoreInputs(NamedTuple):
    """The raw-store workload's inputs: page ids to overwrite."""

    pages: np.ndarray
    digest: str


def zipf_ranks(rng: np.random.Generator, n: int, theta: float, count: int) -> np.ndarray:
    """``count`` ranks in ``[0, n)`` with P(rank r) ~ 1/(r+1)**theta, by
    inverting the exact CDF (no rejection, so one draw per rank)."""
    cdf = np.cumsum(1.0 / np.arange(1, n + 1, dtype=np.float64) ** theta)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(count), side="right")
    return np.minimum(ranks, n - 1)


def value_for(index: int, length: int) -> bytes:
    """``length`` bytes that identify op ``index``."""
    return (index.to_bytes(8, "little") * ((length + 7) // 8))[:length]


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


def service_inputs(
    seed: int,
    n_tenants: int,
    keys_per_tenant: int,
    n_ops: int,
    theta: Optional[float],
    max_value_bytes: int,
    delete_frac: float,
    get_frac: float,
) -> ServiceInputs:
    """Preload plus ``n_ops`` ops over ``n_tenants`` private keyspaces.

    ``theta`` None draws keys uniformly; otherwise each tenant draws
    Zipf(theta) ranks mapped through its own rank permutation, so the
    tenants' hot keys are different keys (and land on different shards).
    """
    rng = np.random.default_rng([seed, n_tenants, keys_per_tenant, n_ops])
    n_keys = n_tenants * keys_per_tenant
    names = ["t%d" % t for t in range(n_tenants)]

    pre_len = rng.integers(1, max_value_bytes + 1, size=n_keys)
    preload = [
        (names[i // keys_per_tenant], i % keys_per_tenant, value_for(i, length))
        for i, length in enumerate(pre_len.tolist())
    ]

    tenant = rng.integers(0, n_tenants, size=n_ops)
    if theta is None:
        key = rng.integers(0, keys_per_tenant, size=n_ops)
    else:
        perms = np.stack(
            [rng.permutation(keys_per_tenant) for _ in range(n_tenants)]
        )
        key = perms[tenant, zipf_ranks(rng, keys_per_tenant, theta, n_ops)]
    u = rng.random(n_ops)
    kind = np.where(
        u < get_frac, GET, np.where(u < get_frac + delete_frac, DELETE, PUT)
    )
    length = rng.integers(1, max_value_bytes + 1, size=n_ops)

    ops: List[ServiceOp] = [
        (k, names[t], key_, value_for(n_keys + i, ln) if k == PUT else None)
        for i, (k, t, key_, ln) in enumerate(
            zip(kind.tolist(), tenant.tolist(), key.tolist(), length.tolist())
        )
    ]
    return ServiceInputs(
        preload, ops, _digest(pre_len, kind, tenant, key, length)
    )


def store_inputs(seed: int, n_pages: int, n_writes: int, theta: float) -> StoreInputs:
    """``n_writes`` Zipf(theta) page ids over ``n_pages`` pages, hot
    pages scattered over the id space by a rank permutation."""
    rng = np.random.default_rng([seed, n_pages, n_writes])
    perm = rng.permutation(n_pages)
    pages = perm[zipf_ranks(rng, n_pages, theta, n_writes)].astype(np.int64)
    return StoreInputs(pages, _digest(pages))
