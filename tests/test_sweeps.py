"""The trial-sweep declarations: the ``--quick`` rule, derived flag
defaults and the per-kind config rules."""

import json

import pytest

from repro.cli import main, parse_args
from repro.experiments.sweep import SWEEP_MODULES, sweep_for, sweeps


def config(argv):
    args = parse_args(argv)
    return args.sweep.config(args)


class TestQuickRule:
    """``--quick`` values stand in for the defaults; a flag given
    explicitly wins over them."""

    def test_quick_values_replace_defaults(self):
        assert config(["campaign", "--quick"])["trials"] == 24
        assert config(["campaign"])["trials"] == 200
        traffic = config(["traffic", "--quick"])
        assert traffic["layouts"] == ["raid5", "pddl"]
        assert traffic["rates_per_s"] == [350.0, 550.0]
        assert traffic["arrivals"] == 150

    def test_explicit_flag_wins_over_quick(self):
        campaign = config(["campaign", "--quick", "--mttf", "1"])
        assert campaign["mttf_hours"] == 1.0 and campaign["trials"] == 24
        traffic = config(
            ["traffic", "--quick", "--layouts", "pddl", "--arrivals", "90"]
        )
        assert traffic["layouts"] == ["pddl"]
        assert traffic["arrivals"] == 90
        assert traffic["rates_per_s"] == [350.0, 550.0]
        # Explicitly equal to the plain default still wins.
        assert config(["corruption", "--quick", "--arrivals", "300"])[
            "arrivals"
        ] == 300
        # Lifecycle's quick dwell is 300 ms, unless one is given.
        assert config(["lifecycle", "--quick"])["degraded_dwell_ms"] == 300.0
        assert config(["lifecycle", "--quick", "--dwell", "0"])[
            "degraded_dwell_ms"
        ] == 0.0

    def test_trial_wins_over_quick(self):
        nemesis = config(["nemesis", "--quick", "--trial", "5"])
        assert (nemesis["trials"], nemesis["start"]) == (1, 5)
        assert config(["nemesis", "--quick"])["trials"] == 24

    def test_explicit_flag_reaches_the_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_campaign.json"
        assert main(
            ["campaign", "--quick", "--trials", "2", "--no-cache",
             "--workers", "1", "--out", str(out)]
        ) == 0
        assert "2 trials: 2 simulated" in capsys.readouterr().out
        assert json.loads(out.read_text())["config"]["trials"] == 2

    @pytest.mark.parametrize("bench", SWEEP_MODULES)
    def test_quick_keys_name_options(self, bench):
        sweep = sweep_for(bench)
        dests = {flag.dest for flag in sweep.flags + sweep.tail}
        assert set(sweep.quick) <= dests


class TestConfigRules:
    def test_campaign_keeps_inactive_features_out(self):
        plain = config(["campaign", "--rebuild-parallel", "2"])
        assert "oracle" not in plain and "transient_io_rate" not in plain
        # The pacing reaches the builder but not the committed block.
        assert plain["rebuild_parallel"] == 2
        assert "rebuild_parallel" in sweep_for("campaign").unreported
        on = config(["campaign", "--oracle", "--transient-io-rate", "0.1"])
        assert on["oracle"] is True and on["transient_io_rate"] == 0.1

    def test_nemesis_journal_and_scrub_switches(self):
        assert config(["nemesis"])["journal"] is True
        assert config(["nemesis", "--no-journal"])["journal"] is False
        assert config(["nemesis"])["scrub_interval_ms"] == 400.0
        off = config(["nemesis", "--scrub-interval", "0"])
        assert off["scrub_interval_ms"] is None

    def test_lifecycle_mttf_replaces_the_scripted_fault(self):
        assert config(["lifecycle"])["fault_time_ms"] == 500.0
        drawn = config(["lifecycle", "--mttf", "0.5"])
        assert drawn["fault_time_ms"] is None
        assert drawn["mttf_hours"] == 0.5

    def test_defaults_come_from_the_spec(self):
        from repro.runner.spec import OpenLoopSpec

        traffic = config(["traffic"])
        for field in ("arrivals", "queue_depth", "service_slots",
                      "slo_p99_ms", "slo_p999_ms", "horizon_ms"):
            assert traffic[field] == getattr(OpenLoopSpec, field), field

    def test_every_sweep_is_a_subcommand(self):
        assert [sweep.bench for sweep in sweeps()] == list(SWEEP_MODULES)


class TestNemesisFailures:
    def test_failing_trials_print_repro_commands(self, tmp_path, capsys):
        args = parse_args(
            ["nemesis", "--failures-out", str(tmp_path / "f.txt")]
        )
        sweep = args.sweep
        code = sweep.finish(
            args, sweep.config(args), {"failing_trials": [3, 7]}
        )
        assert code == 1
        out = capsys.readouterr().out
        command = (
            "python -m repro nemesis --layout pddl --disks 13 --seed 0"
            " --trial 3 --no-cache"
        )
        assert f"reproduce: {command}" in out
        written = json.loads((tmp_path / "f.txt").read_text())
        assert written["failing_trials"] == [3, 7]
        assert written["commands"][0] == command
        assert sweep.finish(args, {}, {"failing_trials": []}) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["--no-journal", "--clients", "4"],
            ["--quick", "--scrub-interval", "0", "--rows", "13"],
            ["--layout", "raid5", "--disks", "5", "--seed", "3",
             "--samples", "90", "--transient-io-rate", "0.05",
             "--lse-per-gb", "1.5"],
        ],
    )
    def test_repro_commands_replay_the_failing_trial(self, argv, capsys):
        from repro.experiments.nemesistrial import SWEEP, nemesis_specs

        args = parse_args(["nemesis", *argv, "--failures-out", ""])
        config = SWEEP.config(args)
        assert SWEEP.finish(args, config, {"failing_trials": [7]}) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("reproduce: ")
        command = lines[0].split()[1:]
        assert command[:3] == ["python", "-m", "repro"]
        replay = parse_args(command[3:])
        original = [s for s in nemesis_specs(**config) if s.trial == 7]
        assert nemesis_specs(**SWEEP.config(replay)) == original
