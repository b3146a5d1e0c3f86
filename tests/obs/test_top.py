"""File following (poll + bounded backoff) and the `repro top` frames."""

import io
import json

from repro.obs.top import follow_lines, render_top, run_top


def _telemetry_row(t=1.0, burning=False):
    return {
        "type": "telemetry",
        "t_s": t,
        "clock": 1000,
        "tick": 7,
        "queue_depth": 12,
        "flush_stall_p99_pages": 4.0,
        "slo": {
            "objective": 0.95,
            "threshold": 32.0,
            "samples": 50,
            "bad": 3 if burning else 0,
            "worst_burn": 2.0 if burning else 0.0,
            "sustained_burn": 1.5 if burning else 0.0,
            "burning": burning,
            "windows": [
                {"window": 16, "samples": 16, "bad": 0,
                 "bad_fraction": 0.0, "burn_rate": 0.0},
            ],
        },
        "shards": [
            {"shard": 0, "wamp": 0.21, "fill": 0.55, "free_segments": 40,
             "buffered_units": 317, "queue_depth": 3, "write_stalls": 1,
             "stall_p99_pages": 2.5},
            {"shard": 1, "wamp": 0.19, "fill": 0.50, "free_segments": 44,
             "buffered_units": 0, "queue_depth": 2, "write_stalls": 0,
             "stall_p99_pages": 0.0},
        ],
    }


class TestFollowLines:
    def test_reads_existing_then_appended_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("one\ntwo\n")
        sleeps = []

        def sleep(delay):
            sleeps.append(delay)
            if len(sleeps) == 1:
                with open(path, "a") as fh:
                    fh.write("three\n")

        lines = list(
            follow_lines(str(path), poll_s=0.01, idle_timeout_s=0.05,
                         sleep=sleep)
        )
        assert lines == ["one", "two", "three"]

    def test_partial_line_buffered_until_newline(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("complete\npart")
        state = {"wrote": False}

        def sleep(_):
            if not state["wrote"]:
                state["wrote"] = True
                with open(path, "a") as fh:
                    fh.write("ial\n")

        lines = list(
            follow_lines(str(path), poll_s=0.01, idle_timeout_s=0.02,
                         sleep=sleep)
        )
        assert lines == ["complete", "partial"]

    def test_backoff_doubles_and_caps(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        sleeps = []
        gen = follow_lines(
            str(path), poll_s=0.1, max_poll_s=0.4, idle_timeout_s=2.0,
            sleep=sleeps.append,
        )
        assert list(gen) == []
        assert sleeps[:4] == [0.1, 0.2, 0.4, 0.4]

    def test_backoff_resets_on_data(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        sleeps = []

        def sleep(delay):
            sleeps.append(delay)
            if len(sleeps) == 3:
                with open(path, "a") as fh:
                    fh.write("x\n")

        assert list(
            follow_lines(str(path), poll_s=0.1, max_poll_s=5.0,
                         idle_timeout_s=1.0, sleep=sleep)
        ) == ["x"]
        # After the line arrived the delay dropped back to poll_s.
        assert sleeps[3] == 0.1
        assert sleeps[2] > sleeps[3]

    def test_truncated_file_restarts_from_top(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("old-one\nold-two\n")
        state = {"truncated": False}

        def sleep(_):
            if not state["truncated"]:
                state["truncated"] = True
                path.write_text("new\n")

        lines = list(
            follow_lines(str(path), poll_s=0.01, idle_timeout_s=0.02,
                         sleep=sleep)
        )
        assert lines == ["old-one", "old-two", "new"]

    def test_from_start_false_skips_existing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("old\n")
        state = {"wrote": False}

        def sleep(_):
            if not state["wrote"]:
                state["wrote"] = True
                with open(path, "a") as fh:
                    fh.write("new\n")

        lines = list(
            follow_lines(str(path), from_start=False, poll_s=0.01,
                         idle_timeout_s=0.02, sleep=sleep)
        )
        assert lines == ["new"]

    def test_missing_file_waits_without_error(self, tmp_path):
        path = tmp_path / "never.jsonl"
        assert list(
            follow_lines(str(path), poll_s=0.01, idle_timeout_s=0.03,
                         sleep=lambda _: None)
        ) == []


class TestRenderTop:
    def test_frame_contains_shard_table_and_slo(self):
        frame = render_top(_telemetry_row())
        assert "repro top" in frame
        assert "SLO" in frame
        assert "ok" in frame
        assert "0.2100" in frame  # shard 0 wamp
        assert frame.count("#") > 0  # fill bar

    def test_frame_has_a_buffered_units_column(self):
        header, first, second = render_top(_telemetry_row()).splitlines()[-3:]
        assert header.split() == [
            "shard", "wamp", "fill", "free", "buf", "queue", "stall",
            "stall_p99",
        ]
        # (The fill bar and its number are two tokens.)
        assert first.split()[4:6] == ["40", "317"]
        assert second.split()[4:6] == ["44", "0"]

    def test_burning_state_called_out(self):
        frame = render_top(_telemetry_row(burning=True))
        assert "BURNING" in frame

    def test_tolerates_minimal_row(self):
        frame = render_top({"type": "telemetry"})
        assert "repro top" in frame


class TestRunTop:
    def test_renders_existing_rows_and_stops_at_iterations(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "meta", "schema": 2, "run": {}}) + "\n")
            fh.write(json.dumps(_telemetry_row(t=1.0)) + "\n")
            fh.write(json.dumps(_telemetry_row(t=2.0)) + "\n")
        out = io.StringIO()
        frames = run_top(
            str(path), iterations=2, out=out, clear=False,
            idle_timeout_s=0.05, sleep=lambda _: None,
        )
        assert frames == 2
        assert "t=2.0s" in out.getvalue()
        assert "\x1b[2J" not in out.getvalue()

    def test_clear_writes_ansi_reset(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        path.write_text(json.dumps(_telemetry_row()) + "\n")
        out = io.StringIO()
        assert run_top(
            str(path), iterations=1, out=out, clear=True,
            idle_timeout_s=0.05, sleep=lambda _: None,
        ) == 1
        assert out.getvalue().startswith("\x1b[2J\x1b[H")

    def test_non_telemetry_and_garbage_lines_skipped(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with open(path, "w") as fh:
            fh.write("not json\n")
            fh.write(json.dumps({"type": "span", "span": "x"}) + "\n")
        out = io.StringIO()
        assert run_top(
            str(path), out=out, idle_timeout_s=0.02, sleep=lambda _: None,
        ) == 0
