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
#: gc_writes).  Last re-recorded when ``StoreConfig`` lost its unused
#: ``seed`` field (the digest hashes the config; no table moved).
GOLDEN = {
    "age/buffered": (
        "02dc606c4479a6a0f52672db0eee96c3420acc5280eb940de896ee7cf272a1ce",
        "44136fa355b3678a",
        3237,
    ),
    "age/direct": (
        "692639d82ef9acad6701befbd1d5a2ea8a2a07425466aff91ebd80cfb9ee075a",
        "44136fa355b3678a",
        3237,
    ),
    "cost-benefit/buffered": (
        "c18c8e85861b563a6d408d3ce5a5bcd676ebe547f2dec3a16b283c24c08a6b84",
        "44136fa355b3678a",
        1430,
    ),
    "cost-benefit/direct": (
        "6ed0a7aa1a89adc0add68ea01d1438841cd3e77ec922b8bd26f24d1acb19ebc0",
        "44136fa355b3678a",
        1430,
    ),
    "cost-benefit-paper/buffered": (
        "bccb09089f103c7a3c3fc612a35161ae1719e391754fb4ad277f08e5e1c5d2d9",
        "44136fa355b3678a",
        25731,
    ),
    "cost-benefit-paper/direct": (
        "9b7dd1a40fc41aab873cb38b2c0c7841fb989835c1011eb82778bb3f56890368",
        "44136fa355b3678a",
        25731,
    ),
    "greedy/buffered": (
        "95a3f69a20634885fc298e4d9ac3fa7f198d38cfce1bac7a21cd4d9b9590cb2c",
        "44136fa355b3678a",
        1536,
    ),
    "greedy/direct": (
        "c6e43a4e78e335741389d2bfa0b8dea214cab9a97e6821895a81bc20cc721f55",
        "44136fa355b3678a",
        1536,
    ),
    "mdc/buffered": (
        "663f9d1cda336c7e02affea326547fe31d0a9eb904dc52522b4e54922db1811c",
        "44136fa355b3678a",
        978,
    ),
    "mdc/direct": (
        "62defe82eb700a671957196b93a5ba5e06b47569c189dfbe180a7f0fe1dbf7d5",
        "44136fa355b3678a",
        1241,
    ),
    "mdc-no-sep-user/buffered": (
        "0f539e2e32f7675465f64469fad18d7d12ad89c969dbe09cbddd13fdb9255f55",
        "44136fa355b3678a",
        1241,
    ),
    "mdc-no-sep-user/direct": (
        "40294a803190245c0793340b58e219876789f1ccfa7c85725c805a3d611993cf",
        "44136fa355b3678a",
        1241,
    ),
    "mdc-no-sep-user-gc/buffered": (
        "b10c2a4259a00acf7e5717b03b13d2356f58e9083495ee446862e8799aa03973",
        "44136fa355b3678a",
        1285,
    ),
    "mdc-no-sep-user-gc/direct": (
        "8ef63c9ca884201819bd192cfc2c0469638f6b8f269217ebcf76661ed9e6d68a",
        "44136fa355b3678a",
        1285,
    ),
    "mdc-opt/buffered": (
        "1fee191159ea8136fa3ee7dfe590712a665f47e0e1d021262b0dad37a4478ed0",
        "44136fa355b3678a",
        735,
    ),
    "mdc-opt/direct": (
        "477e07771083a2bef8b78455dca4243f064c5de40009bafeecd03b05398944c0",
        "44136fa355b3678a",
        1062,
    ),
    "mdc-up1/buffered": (
        "b189443ae0e895f3001da7169cc6b3702c57389d4d88761a7bade73f4bff39c6",
        "44136fa355b3678a",
        893,
    ),
    "mdc-up1/direct": (
        "d57a6389670a72379dbce400d0e25f4b6cea8d7ab1c9363497caa8a7886906e4",
        "44136fa355b3678a",
        1213,
    ),
    "multi-log/buffered": (
        "67588679186ea4a8407ae4f54b8c2d8dfc71f4ccf7ecde1c3ef186a782236cca",
        "59d425848a0fcc27",
        4935,
    ),
    "multi-log/direct": (
        "645745c78d4033cabe50e5fe4ac48497289556cb42a115b4072395e1112f6e79",
        "59d425848a0fcc27",
        4935,
    ),
    "multi-log-opt/buffered": (
        "71b201751e19fcc9f9a8e8f4b665c7099ef553a8abae4aea5970882b1efab54a",
        "1efec4a3385a6999",
        1491,
    ),
    "multi-log-opt/direct": (
        "607cbaa58fe96684ada204f7db6541866b46578a78e26e25286229ab20336ab3",
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
