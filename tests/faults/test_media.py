"""Latent sector errors and the background scrubber."""

import random

import pytest

from repro.array.controller import ArrayController
from repro.errors import ConfigurationError
from repro.faults import FaultScenario, MediaErrorMap, Scrubber
from repro.faults.media import poisson_draw
from repro.layouts import make_layout
from repro.sim.engine import SimulationEngine


class TestPoissonDraw:
    def test_zero_rate_draws_zero(self):
        assert poisson_draw(0.0, random.Random(1)) == 0

    def test_rejects_negative_rate(self):
        with pytest.raises(ConfigurationError):
            poisson_draw(-1.0, random.Random(1))

    def test_seeded_draws_replay(self):
        a = [poisson_draw(2.5, random.Random(s)) for s in range(20)]
        b = [poisson_draw(2.5, random.Random(s)) for s in range(20)]
        assert a == b

    def test_mean_tracks_lambda(self):
        rng = random.Random(7)
        draws = [poisson_draw(3.0, rng) for _ in range(2000)]
        assert 2.7 < sum(draws) / len(draws) < 3.3


class TestMediaErrorMap:
    def test_discovery_counts_each_cell_once(self):
        m = MediaErrorMap({0: {3, 5}})
        assert m.is_bad(0, 3) and m.is_bad(0, 3)
        assert not m.is_bad(0, 4)
        assert m.discovered == 1
        assert m.seeded == 2

    def test_repair_and_clear_account_separately(self):
        m = MediaErrorMap({1: {2, 7}})
        assert m.repair(1, 2)
        assert not m.repair(1, 2)  # already fixed
        assert m.clear(1, 7)
        assert m.remaining == 0
        assert m.repaired == 1 and m.overwritten == 1

    def test_from_rate_is_deterministic(self):
        a = MediaErrorMap.from_rate(13, 26, 8, 5000.0, seed=42)
        b = MediaErrorMap.from_rate(13, 26, 8, 5000.0, seed=42)
        assert a._bad == b._bad
        assert a.seeded > 0

    def test_per_disk_streams_are_stable_under_growth(self):
        # Adding disks must not reshuffle the errors of existing disks.
        small = MediaErrorMap.from_rate(5, 26, 8, 5000.0, seed=9)
        large = MediaErrorMap.from_rate(13, 26, 8, 5000.0, seed=9)
        for disk in range(5):
            assert small._bad.get(disk) == large._bad.get(disk)

    def test_zero_rate_seeds_nothing(self):
        m = MediaErrorMap.from_rate(13, 26, 8, 0.0, seed=0)
        assert m.seeded == 0 and m.remaining == 0


class TestScrubber:
    def build(self):
        engine = SimulationEngine()
        controller = ArrayController(engine, make_layout("pddl", 13, 4))
        return engine, controller

    def test_one_pass_repairs_every_seeded_error(self):
        engine, controller = self.build()
        media = MediaErrorMap({0: {1, 5}, 7: {3}})
        repairs = []
        scrubber = Scrubber(
            controller,
            media,
            interval_ms=10.0,
            rows=13,
            on_repair=lambda d, o: repairs.append((d, o)),
        )
        scrubber.start()
        engine.schedule(20000.0, engine.stop)
        engine.run()
        assert media.remaining == 0
        assert sorted(repairs) == [(0, 1), (0, 5), (7, 3)]
        assert scrubber.passes_completed >= 1
        assert scrubber.found == 3 and scrubber.repaired == 3

    def test_pauses_while_the_array_is_wounded(self):
        engine, controller = self.build()
        media = MediaErrorMap({3: {4}})
        scrubber = Scrubber(controller, media, interval_ms=10.0, rows=13)
        controller.fail_disk(0)  # degraded before the first pass begins
        scrubber.start()
        engine.schedule(500.0, engine.stop)
        engine.run()
        assert scrubber.cells_read == 0
        assert media.remaining == 1

    def test_rejects_double_start(self):
        engine, controller = self.build()
        scrubber = Scrubber(
            controller, MediaErrorMap({}), interval_ms=10.0, rows=13
        )
        scrubber.start()
        with pytest.raises(ConfigurationError):
            scrubber.start()

    def test_validates_knobs(self):
        engine, controller = self.build()
        with pytest.raises(ConfigurationError):
            Scrubber(controller, MediaErrorMap({}), interval_ms=0.0)
        with pytest.raises(ConfigurationError):
            Scrubber(
                controller,
                MediaErrorMap({}),
                interval_ms=5.0,
                throttle_ms=-1.0,
            )


class TestScrubbingSavesTheTrial:
    def test_unscrubbed_trial_loses_scrubbed_trial_survives(self):
        # Heavy LSE seeding and a fault an hour (of scrub passes) in:
        # without scrubbing the rebuild trips an unreadable sector and
        # the trial is lost; with scrubbing every error is repaired
        # before the rebuild needs the cells.
        from repro.experiments.campaign import run_campaign_trial
        from repro.runner import CampaignTrialSpec

        def trial(scrub_interval_ms):
            scenario = FaultScenario(
                fault_time_ms=60000.0,
                failed_disk=0,
                rebuild_rows=26,
                lse_per_gb=20000.0,
                scrub_interval_ms=scrub_interval_ms,
            )
            return run_campaign_trial(
                CampaignTrialSpec(layout="pddl", seed=0), scenario
            )

        unscrubbed = trial(None)
        assert unscrubbed["classification"] == "lost"
        assert "unreadable sector" in unscrubbed["loss_reason"]
        assert unscrubbed["lost_units"] == 1

        scrubbed = trial(10.0)
        assert scrubbed["classification"] == "survived"
        assert scrubbed["media"]["remaining"] == 0
        assert scrubbed["media"]["repaired"] == scrubbed["media"]["seeded"]
        assert scrubbed["scrub"]["passes_completed"] >= 1
