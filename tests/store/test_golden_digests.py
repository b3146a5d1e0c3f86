"""Golden state digests: the write path's behaviour, pinned.

Every registered policy is driven through one fixed op stream — batched
writes of variable size with in-batch repeats, trims, and a cleaning
cycle begun and stepped in small budgets between foreground batches —
once with the sorting buffer and once without, and the resulting
``state_digest`` plus the policy's ``state_dict()`` are compared with
the values recorded below.  The stream comes from an integer LCG, so
the pins do not move with numpy's samplers; they move only when the
store or a policy places a page, picks a victim, or accumulates a float
differently.  A refactor that claims to preserve state must reproduce
them; a change that means to alter placement re-records them with
``python tests/store/test_golden_digests.py``.
"""

import hashlib
import json

import pytest

from repro.policies import available_policies, make_policy
from repro.store import LogStructuredStore, StoreConfig
from repro.testkit.trace import state_digest

N_PAGES = 120
ROUNDS = 120
PATHS = {"direct": 0, "buffered": 2}


def lcg(seed):
    """The 31-bit ``ax + c`` generator; high bits only."""
    x = seed
    while True:
        x = (1103515245 * x + 12345) % (1 << 31)
        yield x >> 8


def next_page(rng):
    """80% of the draws hit the first fifth of the pages."""
    hot = next(rng) % 10 < 8
    span = N_PAGES // 5 if hot else N_PAGES
    return next(rng) % span


def drive(policy_name, sort_buffer_segments):
    cfg = StoreConfig(
        n_segments=40,
        segment_units=12,
        fill_factor=0.6,
        clean_trigger=3,
        clean_batch=2,
        sort_buffer_segments=sort_buffer_segments,
    )
    store = LogStructuredStore(cfg, make_policy(policy_name))
    exact = policy_name.endswith("-opt")
    if exact:
        store.set_oracle_frequencies(
            [8.0 if p < N_PAGES // 5 else 0.5 for p in range(N_PAGES)]
        )
    rng = lcg(20210419)
    store.load_sequential(N_PAGES, [1 + p % 3 for p in range(N_PAGES)])
    for rnd in range(ROUNDS):
        if exact and rnd == ROUNDS // 3:
            # Cold pages turn hot without being rewritten, so the first
            # code to see their new class is GC placement.
            for page in range(N_PAGES - 6, N_PAGES):
                store.set_page_frequency(page, 512.0)
        n = 1 + next(rng) % 90
        ids = [next_page(rng) for _ in range(n)]
        sizes = [1 + next(rng) % 3 for _ in range(n)]
        store.write_batch(ids, sizes)
        for _ in range(next(rng) % 3):
            store.trim(next_page(rng))
        # A cycle is begun every fourth round and stepped five pages a
        # round, so foreground batches land on staged pages mid-cycle.
        if rnd % 4 == 3 and store.clean_cursor is None:
            store.clean_begin()
        store.clean_step(5)
    store.flush()
    store.check_invariants()
    policy_state = json.dumps(store.policy.state_dict(), sort_keys=True)
    return (
        state_digest(store),
        hashlib.sha256(policy_state.encode()).hexdigest()[:16],
        int(store.stats.gc_writes),
    )


#: ``policy/path`` -> (state digest, policy ``state_dict()`` hash,
#: gc_writes), recorded at the commit before the write-path refactor.
GOLDEN = {
    "age/buffered": (
        "80d303decec653b7b7ddaf6fb07bc3d5a4c0b9876a4a9eeddf0d76896e40468f",
        "44136fa355b3678a",
        3237,
    ),
    "age/direct": (
        "aaaea6c8580c4fd7b1de03f3d75e27b27557da8830a454433c3c0bf860e85241",
        "44136fa355b3678a",
        3237,
    ),
    "cost-benefit/buffered": (
        "4b210fba86a7296b12c66cc662014dd1e2aec7fe8a269ce86042f63f8a0336bd",
        "44136fa355b3678a",
        1430,
    ),
    "cost-benefit/direct": (
        "44deefa9e52f1c0503b44e391946fceffb3e6b2ba5aa278edfbd48258ea98f09",
        "44136fa355b3678a",
        1430,
    ),
    "cost-benefit-paper/buffered": (
        "d1670310cdf57a5f768042aec58286fd2dd1f02ffca05b4dac4a630426a127f9",
        "44136fa355b3678a",
        25731,
    ),
    "cost-benefit-paper/direct": (
        "33c5c7bffabe02391e275f09007164b7c4b2a09932c2906aedd4b25925e2da12",
        "44136fa355b3678a",
        25731,
    ),
    "greedy/buffered": (
        "7532ec37abaf50267d05937090b17b2d0d845f8d81a811c02f553eef41089003",
        "44136fa355b3678a",
        1536,
    ),
    "greedy/direct": (
        "acdb69d7272a54f98fd78b0c82f0c79fb9dad341dfbf1cf01dbda4bceceef2d3",
        "44136fa355b3678a",
        1536,
    ),
    "mdc/buffered": (
        "2c00d38e6050fe448c9f1177ebb68f29dbfaacae444a1d03faefa5b4915043e2",
        "44136fa355b3678a",
        919,
    ),
    "mdc/direct": (
        "81bed49825f2bd85dc9da35f15cb0a7a3d269c1b79a9cce678d433dc75c9dbf6",
        "44136fa355b3678a",
        1241,
    ),
    "mdc-no-sep-user/buffered": (
        "8d5f442c422e96b6cbdce0af38e2ef2b4bf5df996f5340ded9b38d51f846a748",
        "44136fa355b3678a",
        1241,
    ),
    "mdc-no-sep-user/direct": (
        "333ffe268ca5432f675851c94cee482aef3f81a4a52e76cbe1e4a9c6bcbd0751",
        "44136fa355b3678a",
        1241,
    ),
    "mdc-no-sep-user-gc/buffered": (
        "d13e9eab8854226c67d59936c89ff79477cb338180869462a6d287b2c8e6d76a",
        "44136fa355b3678a",
        1285,
    ),
    "mdc-no-sep-user-gc/direct": (
        "59b12e6dd20b434ed689b6438fe083ff77e1cd4e11a993e92e673260d2c34d04",
        "44136fa355b3678a",
        1285,
    ),
    "mdc-opt/buffered": (
        "821a2d9988de2b8d925601bd8ab920512411dff7bcc4d39028c602c1a493267c",
        "44136fa355b3678a",
        720,
    ),
    "mdc-opt/direct": (
        "756909c782441dd677b8a296c6357ec19fe132c9c20ecaf1ebe38f7dd94e3ef8",
        "44136fa355b3678a",
        1062,
    ),
    "mdc-up1/buffered": (
        "d71db410eac630ae62f33d6ab323779e3400b2ccc5d65238239f5ebca72cb0f6",
        "44136fa355b3678a",
        913,
    ),
    "mdc-up1/direct": (
        "ab9b0ee85f69271e360fe82cfd4223c5960ceb64edba03dc91d126c02159da00",
        "44136fa355b3678a",
        1213,
    ),
    "multi-log/buffered": (
        "947626538d2cfb1f4caac686cbad4eb63a0fb26d87e6c2a6e35b8c1fd72d8b50",
        "59d425848a0fcc27",
        4935,
    ),
    "multi-log/direct": (
        "4fb4a1e9f30a7053878f83246c33b3bf5229ad9db0559c26178fc1f32e427045",
        "59d425848a0fcc27",
        4935,
    ),
    "multi-log-opt/buffered": (
        "696a05e7b4e3fad6ebc8796f216126ed6bdd09dc7f488d389b907e97b29d59cb",
        "1efec4a3385a6999",
        1491,
    ),
    "multi-log-opt/direct": (
        "8df34fb7122e9e41d24a63513c86d4ee71893324eaa7af0973c90f50684b73e8",
        "1efec4a3385a6999",
        1491,
    ),
}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("policy", available_policies())
def test_state_matches_the_recorded_digest(policy, path):
    assert drive(policy, PATHS[path]) == GOLDEN["%s/%s" % (policy, path)]


def test_every_registered_policy_is_pinned():
    assert sorted(GOLDEN) == sorted(
        "%s/%s" % (policy, path)
        for policy in available_policies()
        for path in PATHS
    )


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in available_policies():
        for path_name in sorted(PATHS):
            print('    "%s/%s": (' % (name, path_name))
            print('        "%s",\n        "%s",\n        %d,' % drive(name, PATHS[path_name]))
            print("    ),")
    print("}")
