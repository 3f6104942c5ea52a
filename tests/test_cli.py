"""Tests for the command-line interface."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.runner.workers import HANG_ONCE_ENV

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Every registered subcommand; the smoke test below fails if a new one
#: is added without joining this list.
ALL_COMMANDS = [
    "goals", "figure3", "response", "seeks", "table1", "table3", "plan",
    "bench", "lifecycle", "campaign", "crash", "nemesis", "traffic",
    "failslow", "corruption",
]


class TestHelpSmoke:
    def test_command_list_is_current(self):
        import argparse

        parser = build_parser()
        subparsers = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        assert sorted(subparsers.choices) == sorted(ALL_COMMANDS)

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command in ALL_COMMANDS:
            assert command in out


class TestUnwritableOut:
    """--out through a regular file fails with one clean line, not a
    traceback (NotADirectoryError fires even for root, unlike a bare
    permission bit)."""

    @pytest.mark.parametrize(
        "args",
        [
            ["lifecycle", "--quick", "--no-cache", "--workers", "1"],
            ["campaign", "--quick", "--no-cache", "--workers", "1"],
            ["crash", "--quick", "--no-cache", "--workers", "1"],
            ["nemesis", "--trial", "0", "--no-cache", "--workers", "1"],
            ["traffic", "--quick", "--no-cache", "--workers", "1"],
            ["failslow", "--quick", "--no-cache", "--workers", "1"],
            ["corruption", "--quick", "--no-cache", "--workers", "1"],
        ],
        ids=[
            "lifecycle", "campaign", "crash", "nemesis", "traffic",
            "failslow", "corruption",
        ],
    )
    def test_out_through_regular_file(self, args, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        target = blocker / "report.json"
        code = main([*args, "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: cannot write report" in captured.err
        assert "Traceback" not in captured.err


class TestGoals:
    def test_default(self, capsys):
        assert main(["goals"]) == 0
        out = capsys.readouterr().out
        assert "PDDL" in out and "#8" in out

    def test_subset(self, capsys):
        assert main(["goals", "--layouts", "raid5"]) == 0
        out = capsys.readouterr().out
        assert "RAID 5" in out and "PDDL" not in out


class TestFigure3:
    def test_custom_sizes(self, capsys):
        assert main(["figure3", "--sizes", "8,96", "--layouts", "pddl",
                     "raid5"]) == 0
        out = capsys.readouterr().out
        assert "96KB" in out and "ffread" in out


class TestResponse:
    def test_single_point(self, capsys):
        code = main(
            [
                "response", "--size", "8", "--clients", "2",
                "--samples", "60", "--layouts", "raid5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RAID 5" in out and "8KB reads" in out

    def test_degraded_write(self, capsys):
        code = main(
            [
                "response", "--size", "48", "--write", "--mode", "f1",
                "--clients", "2", "--samples", "50",
                "--layouts", "pddl",
            ]
        )
        assert code == 0
        assert "48KB writes" in capsys.readouterr().out


class TestSeeks:
    def test_mix_table(self, capsys):
        code = main(
            ["seeks", "--sizes", "8", "--samples", "40",
             "--layouts", "pddl"]
        )
        assert code == 0
        assert "non-local" in capsys.readouterr().out


class TestTables:
    def test_table1_small(self, capsys):
        code = main(
            ["table1", "--widths", "5", "--stripes", "1,2",
             "--restarts", "5", "--max-steps", "500"]
        )
        assert code == 0
        assert "k=5" in capsys.readouterr().out

    def test_table3(self, capsys):
        assert main(["table3", "--iterations", "1000"]) == 0
        out = capsys.readouterr().out
        assert "pddl" in out and "sparing=yes" in out


class TestBench:
    def test_quick_sweep_then_cache_replay(self, capsys, tmp_path):
        args = [
            "bench", "--quick", "--workers", "2",
            "--cache-dir", str(tmp_path), "--layouts", "pddl", "raid5",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "8KB reads" in out and "48KB reads" in out
        assert "8 points: 8 simulated, 0 from cache" in out
        assert "instrumentation:" in out
        # Replay: every point from cache, nothing simulated.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "8 points: 0 simulated, 8 from cache" in out

    def test_no_cache(self, capsys):
        assert main(
            ["bench", "--quick", "--no-cache", "--workers", "1",
             "--layouts", "pddl"]
        ) == 0
        out = capsys.readouterr().out
        assert "cache dir" not in out
        assert "4 points: 4 simulated" in out


class TestLifecycle:
    def test_quick_run_then_cache_replay(self, capsys, tmp_path):
        out_file = tmp_path / "BENCH_lifecycle.json"
        args = [
            "lifecycle", "--quick", "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out_file),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "-> post-reconstruction" in out
        assert "rebuild vs load [pddl]" in out
        assert "2 runs: 2 simulated, 0 from cache" in out
        import json

        summary = json.loads(out_file.read_text())
        assert {run["layout"] for run in summary["runs"]} == {
            "pddl", "parity-declustering",
        }
        for run in summary["runs"]:
            assert run["complete"]
            assert run["rebuild_duration_ms"] > 0
            assert set(run["mode_means_ms"]) == {
                "fault-free", "degraded", "reconstruction",
                "post-reconstruction",
            }
        # Replay: both runs from cache, nothing simulated.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "2 runs: 0 simulated, 2 from cache" in out

    def test_custom_sweep_no_cache(self, capsys):
        assert main(
            ["lifecycle", "--no-cache", "--layouts", "pddl",
             "--clients", "2", "--fault-time", "200", "--dwell", "100",
             "--rebuild-rows", "13", "--post-samples", "15",
             "--samples", "400", "--workers", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "cache dir" not in out
        assert "1 runs: 1 simulated" in out


class TestCampaign:
    def test_quick_run_then_cache_replay(self, capsys, tmp_path):
        out_file = tmp_path / "BENCH_campaign.json"
        args = [
            "campaign", "--quick", "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out_file),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "loss probability" in out
        assert "24 trials: 24 simulated" in out
        import json

        payload = json.loads(out_file.read_text())
        assert payload["bench"] == "campaign"
        assert payload["summary"]["trials"] == 24
        assert len(payload["trials"]) == 24
        for trial in payload["trials"]:
            assert trial["classification"] in ("survived", "lost")
        # Replay: every trial served from cache, byte-identical report.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "24 trials: 0 simulated, 24 from cache" in out
        assert json.loads(out_file.read_text()) == payload

    def test_checkpoint_resume(self, capsys, tmp_path):
        # The result cache is a killed run's checkpoint.  One task
        # wedges, so with no deadline the run cannot finish.
        # Once the other 23 records are in its cache, SIGKILL the whole
        # process group; the rerun simulates only the wedged trial.
        cache = tmp_path / "cache"
        env = dict(os.environ)
        env[HANG_ONCE_ENV] = str(tmp_path / "hang.marker")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        run = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "--quick",
             "--workers", "2", "--cache-dir", str(cache),
             "--out", str(tmp_path / "killed.json")],
            env=env,
            stdout=subprocess.DEVNULL,
            start_new_session=True,
        )

        def logged() -> int:  # complete lines only
            return sum(
                log.read_bytes().count(b"\n") for log in cache.glob("*.jsonl")
            )

        try:
            deadline = time.monotonic() + 300
            while logged() < 23:
                assert run.poll() is None, "the wedged run exited"
                assert time.monotonic() < deadline, "no 23 records"
                time.sleep(0.05)
        finally:
            os.killpg(run.pid, signal.SIGKILL)
            run.wait(timeout=60)
            deadline = time.monotonic() + 60
            while True:  # no worker may outlive the test
                try:
                    os.killpg(run.pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "a worker survived"
                time.sleep(0.05)
        assert logged() == 23

        resumed, fresh = tmp_path / "resumed.json", tmp_path / "fresh.json"
        assert main(
            ["campaign", "--quick", "--workers", "2",
             "--cache-dir", str(cache), "--out", str(resumed)]
        ) == 0
        assert "24 trials: 1 simulated, 23 from cache" in (
            capsys.readouterr().out
        )
        assert main(
            ["campaign", "--quick", "--workers", "1", "--no-cache",
             "--out", str(fresh)]
        ) == 0
        assert resumed.read_bytes() == fresh.read_bytes()


class TestCrash:
    def test_quick_run_then_cache_replay(self, capsys, tmp_path):
        out_file = tmp_path / "BENCH_crash.json"
        args = [
            "crash", "--quick", "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out_file),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "resync: journal" in out
        assert "0 silent corruption event(s)" in out
        assert "4 trials: 4 simulated" in out

        payload = json.loads(out_file.read_text())
        assert payload["bench"] == "crash"
        assert payload["summary"]["corruption_events"] == 0
        # The acceptance bar: journal-on resync measurably beats the
        # full-sweep baseline.
        assert payload["summary"]["resync_speedup"] > 2.0
        for trial in payload["trials"]:
            assert trial["classification"] == "recovered"
            assert trial["resync_ms"] > 0

        # Replay: every trial from cache, byte-identical report.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "4 trials: 0 simulated, 4 from cache" in out
        assert json.loads(out_file.read_text()) == payload


class TestNemesis:
    def test_quick_run_then_cache_replay(self, capsys, tmp_path):
        out_file = tmp_path / "BENCH_nemesis.json"
        args = [
            "nemesis", "--quick", "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out_file),
            "--failures-out", "",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "SILENT CORRUPTION 0" in out
        assert "24 trials: 24 simulated" in out

        payload = json.loads(out_file.read_text())
        assert payload["bench"] == "nemesis"
        assert payload["summary"]["silent_corruption"] == 0
        assert payload["summary"]["trials"] == 24
        assert len(payload["trials"]) == 24
        assert "source_version" in payload["provenance"]
        for trial in payload["trials"]:
            assert trial["classification"] in ("survived", "data_loss")
            assert trial["corruption_events"] == 0

        # Replay: every trial from cache, byte-identical modulo the
        # provenance stamp (identical here — same working tree).
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "24 trials: 0 simulated, 24 from cache" in out
        assert json.loads(out_file.read_text()) == payload

    def test_single_trial_repro(self, capsys, tmp_path):
        out_file = tmp_path / "BENCH_nemesis.json"
        assert main(
            ["nemesis", "--trial", "5", "--no-cache", "--workers", "1",
             "--out", str(out_file), "--failures-out", ""]
        ) == 0
        payload = json.loads(out_file.read_text())
        assert payload["config"]["start"] == 5
        assert payload["summary"]["trials"] == 1
        assert payload["trials"][0]["trial"] == 5


class TestTrafficCommand:
    def test_quick_run_then_cache_replay(self, capsys, tmp_path):
        out_file = tmp_path / "BENCH_traffic.json"
        args = [
            "traffic", "--quick", "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out_file),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "8 trials: 8 simulated" in out
        assert "knee[raid5]" in out

        payload = json.loads(out_file.read_text())
        assert payload["bench"] == "traffic"
        assert payload["summary"]["trials"] == 8
        assert len(payload["trials"]) == 8
        assert "source_version" in payload["provenance"]
        for trial in payload["trials"]:
            assert trial["completed"] + trial["shed"] == trial["offered"]
            assert trial["phase"] in ("ff", "rebuild")
        # The quick sweep already shows the headline divergence: a
        # mid-rebuild raid5 overloads where the fault-free array holds.
        assert any(
            d["layout"] == "raid5" for d in payload["summary"]["divergence"]
        )

        # Replay: every trial from cache, byte-identical.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "8 trials: 0 simulated, 8 from cache" in out
        assert json.loads(out_file.read_text()) == payload

    def test_report_passes_the_compare_gate(self, capsys, tmp_path):
        out_file = tmp_path / "BENCH_traffic.json"
        assert main(
            ["traffic", "--quick", "--no-cache", "--workers", "1",
             "--out", str(out_file)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["bench", "--compare", "--baseline", str(out_file)]
        ) == 0
        assert "OK" in capsys.readouterr().out


class TestFailslowCommand:
    def test_quick_run_then_cache_replay(self, capsys, tmp_path):
        out_file = tmp_path / "BENCH_failslow.json"
        args = [
            "failslow", "--quick", "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out_file),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "8 trials: 8 simulated" in out
        assert "hedge[pddl]" in out
        assert "aimd[pddl]" in out

        payload = json.loads(out_file.read_text())
        assert payload["bench"] == "failslow"
        assert payload["summary"]["trials"] == 8
        assert len(payload["trials"]) == 8
        assert "source_version" in payload["provenance"]
        for trial in payload["trials"]:
            assert trial["completed"] + trial["shed"] == trial["offered"]
            hedged = trial["defense"] in ("hedge", "both")
            assert (trial["hedging"] is not None) == hedged

        # Replay: every trial from cache, byte-identical.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "8 trials: 0 simulated, 8 from cache" in out
        assert json.loads(out_file.read_text()) == payload

    def test_report_passes_the_compare_gate(self, capsys, tmp_path):
        out_file = tmp_path / "BENCH_failslow.json"
        assert main(
            ["failslow", "--quick", "--no-cache", "--workers", "1",
             "--out", str(out_file)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["bench", "--compare", "--baseline", str(out_file)]
        ) == 0
        assert "OK" in capsys.readouterr().out


class TestCorruptionCommand:
    def test_quick_run_then_cache_replay(self, capsys, tmp_path):
        out_file = tmp_path / "BENCH_corruption.json"
        args = [
            "corruption", "--quick", "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out_file),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "24 trials: 24 simulated" in out
        assert "silent by defense:" in out
        assert "defended tiers served 0 silent corruption event(s)" in out
        assert "audit[pddl/audit]:" in out

        payload = json.loads(out_file.read_text())
        assert payload["bench"] == "corruption"
        assert payload["summary"]["trials"] == 24
        assert len(payload["trials"]) == 24
        assert "source_version" in payload["provenance"]
        assert payload["summary"]["defended_silent_total"] == 0
        assert payload["summary"]["undefended_silent_total"] > 0
        for trial in payload["trials"]:
            assert trial["completed"] + trial["shed"] == trial["offered"]
            if trial["defense"] == "none":
                assert trial["checksum"] is None
            else:
                assert trial["corruption"]["silent_total"] == 0

        # Replay: every trial from cache, byte-identical.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "24 trials: 0 simulated, 24 from cache" in out
        assert json.loads(out_file.read_text()) == payload

    def test_report_passes_the_compare_gate(self, capsys, tmp_path):
        out_file = tmp_path / "BENCH_corruption.json"
        assert main(
            ["corruption", "--quick", "--no-cache", "--workers", "1",
             "--out", str(out_file)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["bench", "--compare", "--baseline", str(out_file)]
        ) == 0
        assert "OK" in capsys.readouterr().out


class TestBenchCompare:
    @pytest.fixture()
    def nemesis_report(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_nemesis.json"
        assert main(
            ["nemesis", "--trials", "4", "--no-cache", "--workers", "1",
             "--out", str(out_file), "--failures-out", ""]
        ) == 0
        capsys.readouterr()
        return out_file

    def test_self_check_passes(self, nemesis_report, capsys):
        assert main(
            ["bench", "--compare", "--baseline", str(nemesis_report)]
        ) == 0
        assert "bench-compare: OK" in capsys.readouterr().out

    def test_perturbed_report_fails(self, nemesis_report, tmp_path, capsys):
        payload = json.loads(nemesis_report.read_text())
        payload["summary"]["survived"] += 1
        perturbed = tmp_path / "BENCH_perturbed.json"
        perturbed.write_text(json.dumps(payload))
        code = main(
            ["bench", "--compare", "--baseline", str(nemesis_report),
             "--candidate", str(perturbed)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "summary.survived" in captured.out
        assert "bench-compare: FAIL" in captured.out

    def test_exact_ignores_version_stamp(
        self, nemesis_report, tmp_path, capsys
    ):
        payload = json.loads(nemesis_report.read_text())
        payload["provenance"]["source_version"] = "elsewhere-123"
        other = tmp_path / "BENCH_other.json"
        other.write_text(json.dumps(payload))
        assert main(
            ["bench", "--compare",
             "--baseline", str(nemesis_report), "--candidate", str(other)]
        ) == 0
        assert "bench-compare: OK" in capsys.readouterr().out

    def test_candidate_defaults_to_its_kinds_baseline(
        self, nemesis_report, tmp_path, capsys, monkeypatch
    ):
        workdir = tmp_path / "work"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        shutil.copy(nemesis_report, "BENCH_nemesis.json")
        # Sorts after BENCH_nemesis.json: must not be the baseline.
        shutil.copy(REPO_ROOT / "BENCH_traffic.json", "BENCH_traffic.json")
        assert main(
            ["bench", "--compare", "--candidate", str(nemesis_report)]
        ) == 0
        assert "bench-compare: OK" in capsys.readouterr().out

        campaign = tmp_path / "BENCH_campaign_fresh.json"
        shutil.copy(REPO_ROOT / "BENCH_campaign.json", campaign)
        assert main(["bench", "--compare", "--candidate", str(campaign)]) == 1
        out = capsys.readouterr().out
        assert "cannot read bench report 'BENCH_campaign.json'" in out
        assert "bench-compare: FAIL (1 problem(s))" in out

    def test_missing_reports_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--compare"]) == 1
        assert "no BENCH_*.json" in capsys.readouterr().err


class TestCampaignOracle:
    def test_oracle_enabled_campaign_reports_zero_corruption(
        self, capsys, tmp_path
    ):
        out_file = tmp_path / "BENCH_campaign.json"
        assert main(
            ["campaign", "--quick", "--no-cache", "--workers", "1",
             "--oracle", "--out", str(out_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "oracle: 0 silent corruption event(s)" in out
        payload = json.loads(out_file.read_text())
        assert payload["config"]["oracle"] is True
        assert payload["oracle"]["corruption_events"] == 0


class TestPlan:
    def test_valid(self, capsys):
        assert main(["plan", "13", "4"]) == 0
        out = capsys.readouterr().out
        assert "goals met" in out and "parity" in out

    def test_invalid_shape(self, capsys):
        assert main(["plan", "12", "4"]) == 2

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])
