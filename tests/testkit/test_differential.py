"""The differential harness: the acceptance grid (every registered
policy family x every workload family), determinism, and the full
divergence pipeline exercised with a deliberately broken store."""

import pytest

from repro.policies import DIFFERENTIAL_POLICIES
from repro.store.log_store import LogStructuredStore
from repro.testkit import differential, trace as trace_mod
from repro.testkit.differential import (
    DEFAULT_WORKLOADS,
    DivergenceError,
    make_diff_workload,
    run_differential,
    run_differential_grid,
)
from repro.testkit.trace import OpTrace

GRID = [
    (policy, workload)
    for policy in DIFFERENTIAL_POLICIES
    for workload in DEFAULT_WORKLOADS
]


class TestAcceptanceGrid:
    """ISSUE acceptance: all five policies x three workloads, >= 10k ops
    each, with a trim mix."""

    @pytest.mark.parametrize("policy,workload", GRID)
    def test_policy_workload_pair(self, policy, workload):
        outcome = run_differential(
            policy,
            workload,
            n_ops=10_000,
            checkpoint_every=1_000,
            trim_prob=0.02,
            seed=11,
        )
        assert outcome.n_ops >= 10_000
        assert outcome.checkpoints >= 10
        assert outcome.wamp > 0.0

    def test_grid_runner_covers_all_pairs(self):
        outcomes = run_differential_grid(n_ops=600, checkpoint_every=300)
        assert len(outcomes) == len(GRID)
        assert {o.policy for o in outcomes} == set(DIFFERENTIAL_POLICIES)
        assert len({o.workload for o in outcomes}) == len(DEFAULT_WORKLOADS)

    def test_runs_are_digest_deterministic(self):
        first = run_differential("mdc", "zipfian", n_ops=2_000, trim_prob=0.05, seed=9)
        second = run_differential("mdc", "zipfian", n_ops=2_000, trim_prob=0.05, seed=9)
        assert first.digest == second.digest
        assert first.wamp == second.wamp

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown differential workload"):
            make_diff_workload("bogus", 100, 0)


class _GcDoubleCountStore(LogStructuredStore):
    """A store with a planted accounting bug: every cleaning cycle
    counts one extra gc write (the classic off-by-one an incremental
    counter refactor can introduce)."""

    def clean(self, n_victims=None, deficit=0):
        reclaimed = super().clean(n_victims, deficit)
        self.stats.gc_writes += 1
        return reclaimed


class TestDivergencePipeline:
    @pytest.fixture
    def broken_store(self, monkeypatch):
        """Route both the harness and trace replay through the buggy
        store, so minimization reproduces the bug too."""
        monkeypatch.setattr(differential, "LogStructuredStore", _GcDoubleCountStore)
        monkeypatch.setattr(
            trace_mod.OpTrace,
            "build_store",
            lambda self: _build_buggy(self),
        )

    def test_bug_is_caught_minimized_and_saved(self, broken_store, tmp_path):
        with pytest.raises(DivergenceError) as exc_info:
            run_differential(
                "greedy",
                "uniform",
                n_ops=4_000,
                checkpoint_every=500,
                seed=2,
                divergence_dir=tmp_path,
            )
        err = exc_info.value
        assert err.policy == "greedy"
        assert any("emptiness identity" in p for p in err.problems)
        assert err.trace_path is not None and err.trace_path.exists()
        assert "repro replay" in str(err)

        loaded, end = OpTrace.load(err.trace_path)
        assert end["divergence"] == err.problems
        # Minimization shrank the stream: the recorded prefix at the
        # first failing checkpoint is much longer than the repro.
        assert 0 < len(loaded.ops) < err.at_op
        # And the saved trace still reproduces under the buggy store.
        store = loaded.replay()
        from repro.testkit.oracle import OracleStore, verify_equivalence

        oracle = OracleStore(loaded.config)
        for op in loaded.ops:
            if op[0] == "w":
                oracle.write(op[1], op[2] if len(op) > 2 else 1)
            else:
                oracle.trim(op[1])
        assert verify_equivalence(store, oracle)

    def test_divergence_without_dir_saves_nothing(self, broken_store):
        with pytest.raises(DivergenceError) as exc_info:
            run_differential(
                "greedy", "uniform", n_ops=4_000, checkpoint_every=500,
                seed=2, minimize=False,
            )
        assert exc_info.value.trace_path is None


def _build_buggy(trace):
    from repro.policies import make_policy

    store = _GcDoubleCountStore(trace.config, make_policy(trace.policy))
    if trace.frequencies is not None:
        store.set_oracle_frequencies(trace.frequencies)
    return store
