"""Campaign observability (`campaign-status`) and CLI argument validation."""

import json
import os
import time

import pytest

from repro.experiments.queue_backend import _Spool, spool_status
from repro.cli import main


def _seeded_spool(tmp_path):
    """A spool dir mid-campaign: 2 open tasks, 1 fresh + 1 stale claim,
    1 failure record, 1 live + 1 stale worker, no stop sentinel."""
    spool = _Spool(tmp_path / "spool")
    long_ago = time.time() - 3600
    for name in ("aaaa-0000", "aaaa-0001"):
        (spool.tasks / f"{name}.json").write_text("{}", encoding="utf-8")
    (spool.claims / "bbbb-0000.json").write_text("{}", encoding="utf-8")
    stale_claim = spool.claims / "bbbb-0001.json"
    stale_claim.write_text("{}", encoding="utf-8")
    os.utime(stale_claim, (long_ago, long_ago))
    (spool.failed / "cccc-0000.json").write_text(
        json.dumps({"task_id": "cccc-0000", "worker": "w9", "error": "boom"}),
        encoding="utf-8",
    )
    (spool.workers / "w-live.json").write_text("{}", encoding="utf-8")
    stale_worker = spool.workers / "w-stale.json"
    stale_worker.write_text("{}", encoding="utf-8")
    os.utime(stale_worker, (long_ago, long_ago))
    return spool


class TestSpoolStatus:
    def test_counts_against_seeded_spool(self, tmp_path):
        _seeded_spool(tmp_path)
        status = spool_status(tmp_path / "spool", stale_timeout=60.0, worker_fresh_s=15.0)
        assert status["backend"] == "queue"
        assert status["tasks_open"] == 2
        assert status["tasks_leased"] == 2
        assert status["leases_stale"] == 1
        assert status["tasks_failed"] == 1
        assert status["failures"][0] == {
            "task_id": "cccc-0000", "worker": "w9", "error": "boom", "kind": "?",
        }
        assert status["tasks_quarantined"] == 0
        assert status["workers_live"] == 1
        assert len(status["workers"]) == 2
        assert status["stopping"] is False

    def test_stop_sentinel_reported(self, tmp_path):
        spool = _Spool(tmp_path / "spool")
        spool.stop.touch()
        assert spool_status(tmp_path / "spool")["stopping"] is True

    def test_unreadable_failure_record_still_counted(self, tmp_path):
        spool = _Spool(tmp_path / "spool")
        (spool.failed / "dddd-0000.json").write_text("{", encoding="utf-8")
        status = spool_status(tmp_path / "spool")
        assert status["tasks_failed"] == 1
        assert status["failures"][0]["error"] == "unreadable worker failure record"

    @pytest.mark.parametrize("content", ["[]", '{"error": 5}', '{"kind": {}}'])
    def test_malformed_failure_record_still_counted(self, tmp_path, content):
        """A record that is not an object, or has a mistyped field, is
        reported as unreadable instead of crashing the scan."""
        spool = _Spool(tmp_path / "spool")
        (spool.failed / "dddd-0000.json").write_text(content, encoding="utf-8")
        status = spool_status(tmp_path / "spool")
        assert status["failures"] == [{
            "task_id": "dddd-0000", "worker": "?",
            "error": "unreadable worker failure record", "kind": "?",
        }]

    def test_missing_spool_dir_rejected_not_created(self, tmp_path):
        """A typo'd --spool-dir must error, not report a healthy idle
        campaign — and the scan must not create the layout."""
        from repro.errors import ExperimentError

        missing = tmp_path / "no" / "such" / "spool"
        with pytest.raises(ExperimentError, match="does not exist"):
            spool_status(missing)
        assert not missing.exists()

    def test_scan_is_read_only(self, tmp_path):
        """spool_status on a bare existing dir must not create the layout."""
        bare = tmp_path / "bare"
        bare.mkdir()
        status = spool_status(bare)
        assert status["tasks_open"] == 0
        assert list(bare.iterdir()) == []


class TestCampaignStatusCli:
    def test_spool_mode_output_and_exit_code(self, tmp_path, capsys):
        _seeded_spool(tmp_path)
        code = main(["campaign-status", "--spool-dir", str(tmp_path / "spool")])
        out = capsys.readouterr().out
        assert code == 1  # failures present
        assert "campaign status [queue]" in out
        assert "2 open, 2 claimed (1 stale), 1 failed" in out
        assert "1 live / 2 seen" in out
        assert "FAILED cccc-0000 on w9: boom" in out

    def test_spool_mode_clean_exit_zero(self, tmp_path, capsys):
        _Spool(tmp_path / "spool")  # empty but existing layout
        code = main(["campaign-status", "--spool-dir", str(tmp_path / "spool")])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 open, 0 claimed (0 stale), 0 failed" in out


class TestCliValidation:
    """--jobs / --stale-timeout (and friends) reject non-positive values
    with a clear parse-time error instead of downstream misbehaviour."""

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_jobs_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--jobs", value, "campaign", "--runs", "2"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--jobs" in err and ("must be >= 1" in err or "expected an integer" in err)

    @pytest.mark.parametrize("value", ["0", "-1.5", "nan", "soon"])
    def test_stale_timeout_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as info:
            main(["campaign", "--stale-timeout", value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--stale-timeout" in err
        assert "must be > 0" in err or "expected a number" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign-worker", "--spool-dir", "s", "--poll-interval", "0"],
            ["campaign-worker", "--spool-dir", "s", "--heartbeat", "-2"],
            ["campaign-worker", "--spool-dir", "s", "--max-tasks", "0"],
            ["campaign-status", "--spool-dir", "s", "--stale-timeout", "0"],
        ],
    )
    def test_other_knobs_rejected(self, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

    def test_worker_requires_exactly_one_mode(self):
        """The spool is the only distributed mode: ``--spool-dir`` is
        required and the network flags are unknown options."""
        for argv in (
            ["campaign-worker"],
            ["campaign-worker", "--spool-dir", "s", "--connect", "http://x:1"],
            ["campaign-status", "--connect", "http://x:1"],
            ["campaign", "--spool-dir", "s", "--serve", "127.0.0.1:0"],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2, argv


class TestFollowInterrupt:
    """``campaign-status --follow`` must exit cleanly on ^C wherever the
    interrupt lands — during the fetch, the render, or the sleep — with
    the exit code pinned to the *last fully rendered* status."""

    def test_interrupt_during_sleep_exits_with_last_status(
        self, tmp_path, monkeypatch, capsys
    ):
        _Spool(tmp_path / "spool")  # clean spool: no failures
        monkeypatch.setattr(time, "sleep", _raise_keyboard_interrupt)
        code = main([
            "campaign-status", "--spool-dir", str(tmp_path / "spool"), "--follow",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign status [queue]" in out  # first render completed

    def test_interrupt_during_fetch_keeps_failure_exit_code(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.cli as cli

        _seeded_spool(tmp_path)  # one failure record -> exit 1
        real_fetch = cli._fetch_campaign_status
        calls = []

        def fetch_once_then_interrupt(args):
            if calls:
                raise KeyboardInterrupt
            calls.append(1)
            return real_fetch(args)

        monkeypatch.setattr(cli, "_fetch_campaign_status", fetch_once_then_interrupt)
        monkeypatch.setattr(time, "sleep", lambda _s: None)
        code = main([
            "campaign-status", "--spool-dir", str(tmp_path / "spool"),
            "--follow", "--interval", "0.01",
        ])
        out = capsys.readouterr().out
        assert code == 1  # pinned to the rendered (failed) status
        assert "FAILED cccc-0000 on w9: boom" in out

    def test_interrupt_before_first_fetch_exits_zero(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.cli as cli

        _seeded_spool(tmp_path)
        monkeypatch.setattr(
            cli, "_fetch_campaign_status", _raise_keyboard_interrupt
        )
        code = main([
            "campaign-status", "--spool-dir", str(tmp_path / "spool"), "--follow",
        ])
        assert code == 0  # nothing rendered, nothing to report as failed
        assert "FAILED" not in capsys.readouterr().out


def _raise_keyboard_interrupt(*_args, **_kwargs):
    raise KeyboardInterrupt
