"""Deterministic fault injection: the failpoint registry itself, plus
crash coverage of the sweep manifest by faults in its own I/O."""

import json

import pytest

from repro.bench import sweep
from repro.bench.sweep import Manifest
from repro.testkit.failpoints import FAILPOINTS, InjectedFault, failpoint


class TestRegistry:
    def test_unarmed_failpoint_is_a_no_op(self):
        failpoint("nothing.armed.here", detail=1)  # must not raise

    def test_armed_failpoint_raises(self):
        with FAILPOINTS.armed("a.b"):
            with pytest.raises(InjectedFault) as exc_info:
                failpoint("a.b")
        assert exc_info.value.name == "a.b"

    def test_disarmed_after_context_exit(self):
        with FAILPOINTS.armed("a.b"):
            pass
        failpoint("a.b")  # no longer armed
        assert not FAILPOINTS.active

    def test_other_names_unaffected(self):
        with FAILPOINTS.armed("a.b"):
            failpoint("a.c")  # different name, passes

    def test_times_limits_firing(self):
        with FAILPOINTS.armed("a.b", times=2) as arm:
            for _ in range(2):
                with pytest.raises(InjectedFault):
                    failpoint("a.b")
            failpoint("a.b")  # third hit passes
        assert arm.fired == 2

    def test_skip_delays_firing(self):
        with FAILPOINTS.armed("a.b", skip=2) as arm:
            failpoint("a.b")
            failpoint("a.b")
            with pytest.raises(InjectedFault):
                failpoint("a.b")
        assert arm.fired == 1

    def test_custom_exception(self):
        class Boom(RuntimeError):
            pass

        with FAILPOINTS.armed("a.b", exc=Boom("bang")):
            with pytest.raises(Boom):
                failpoint("a.b")

    def test_hook_receives_context(self):
        seen = []
        with FAILPOINTS.armed("a.b", hook=lambda ctx: seen.append(ctx)):
            failpoint("a.b", value=42)
        assert seen == [{"value": 42}]

    def test_probabilistic_arm_is_seed_deterministic(self):
        def fired_pattern(seed):
            fired = []
            with FAILPOINTS.armed("a.b", prob=0.5, seed=seed, times=None):
                for _ in range(20):
                    try:
                        failpoint("a.b")
                        fired.append(False)
                    except InjectedFault:
                        fired.append(True)
            return fired

        assert fired_pattern(7) == fired_pattern(7)
        assert any(fired_pattern(7))
        assert not all(fired_pattern(7))

    def test_tracing_counts_without_injecting(self):
        with FAILPOINTS.tracing():
            failpoint("x.y")
            failpoint("x.y")
            failpoint("x.z")
        assert FAILPOINTS.count("x.y") == 2
        assert "x.z" in FAILPOINTS.names_hit()

    def test_clear_resets_everything(self):
        FAILPOINTS.arm("a.b")
        with FAILPOINTS.tracing():
            failpoint("a.c")
        FAILPOINTS.clear()
        assert not FAILPOINTS.active
        assert FAILPOINTS.count("a.c") == 0
        failpoint("a.b")  # disarmed

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            FAILPOINTS.arm("a", times=0)
        with pytest.raises(ValueError):
            FAILPOINTS.arm("a", skip=-1)
        with pytest.raises(ValueError):
            FAILPOINTS.arm("a", prob=1.5)
        FAILPOINTS.clear()


class TestManifestFailpoints:
    """Crash-at-any-point coverage of the sweep journal: a fault raised
    from the journal's own I/O stands in for a kill at that instant."""

    def _record(self, manifest, digest="d1"):
        manifest.record(
            digest=digest, label="job", result={"x": 1}, attempts=1
        )

    def test_crash_before_append_loses_the_record_only(
        self, tmp_path, monkeypatch
    ):
        def crash(*args, **kwargs):
            raise InjectedFault("manifest.pre_append")

        with Manifest(tmp_path / "m.jsonl") as m:
            self._record(m, "d1")
            monkeypatch.setattr(sweep.json, "dumps", crash)
            with pytest.raises(InjectedFault):
                self._record(m, "d2")
            monkeypatch.undo()
        reread = Manifest(tmp_path / "m.jsonl")
        assert set(reread.load()) == {"d1"}

    def test_crash_between_write_and_fsync_still_parses(
        self, tmp_path, monkeypatch
    ):
        """The line is in the OS buffer; a parse after the crash sees a
        complete record (fsync affects durability, not file content)."""

        def crash(fd):
            raise InjectedFault("manifest.pre_fsync")

        with Manifest(tmp_path / "m.jsonl") as m:
            monkeypatch.setattr(sweep.os, "fsync", crash)
            with pytest.raises(InjectedFault):
                self._record(m, "d1")
            monkeypatch.undo()
        reread = Manifest(tmp_path / "m.jsonl")
        assert set(reread.load()) == {"d1"}

    def test_torn_final_line_is_dropped_on_load(self, tmp_path):
        """Simulate a kill mid-write: a prefix of the next record is all
        that reached the file."""
        path = tmp_path / "m.jsonl"
        with Manifest(path) as m:
            self._record(m, "d1")
        line = '{"attempts": 1, "digest": "d2", "kind": "job", "result": {}}'
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line[: len(line) // 2])
        reread = Manifest(path)
        assert set(reread.load()) == {"d1"}

    def test_resumed_manifest_can_append_after_torn_tail(self, tmp_path):
        """Appending after a torn tail must truncate the partial line
        first; otherwise the new record is glued onto it and every later
        load rejects the file as corrupt mid-file content."""
        path = tmp_path / "m.jsonl"
        with Manifest(path) as m:
            self._record(m, "d1")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "job", "digest": "d2", "resu')  # torn
        with Manifest(path) as m:
            assert set(m.load()) == {"d1"}
            self._record(m, "d3")
        # Every line parses again: the torn tail is gone, not buried.
        for line in path.read_text().splitlines():
            json.loads(line)
        reread = Manifest(path)
        assert set(reread.load()) == {"d1", "d3"}
