"""Unit and property tests for the silent-corruption fault model."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.faults.corruption import (
    ALL_CORRUPTION_KINDS,
    BITROT_WINDOW_MS,
    CORRUPTION_KINDS,
    CorruptionModel,
)


class TestConstruction:
    def test_validates_knobs(self):
        with pytest.raises(ConfigurationError):
            CorruptionModel(0, 10, seed=0)
        with pytest.raises(ConfigurationError):
            CorruptionModel(4, 0, seed=0)
        with pytest.raises(ConfigurationError):
            CorruptionModel(4, 10, seed=0, lost_rate=-0.1)
        with pytest.raises(ConfigurationError):
            CorruptionModel(4, 10, seed=0, misdirected_rate=1.5)
        with pytest.raises(ConfigurationError):
            CorruptionModel(
                4, 10, seed=0, lost_rate=0.6, misdirected_rate=0.6
            )
        with pytest.raises(ConfigurationError):
            CorruptionModel(4, 10, seed=0, bitrot_cells=-1.0)

    def test_ledger_covers_every_kind(self):
        model = CorruptionModel(4, 10, seed=0)
        for bucket in (
            model.injected,
            model.detected,
            model.silent,
            model.repaired,
        ):
            assert tuple(bucket) == ALL_CORRUPTION_KINDS
        assert "parity-pollution" not in CORRUPTION_KINDS


class TestZeroRateDeterminism:
    def test_zero_rates_draw_nothing(self):
        model = CorruptionModel(13, 26, seed=7)
        for i in range(200):
            assert model.note_write(i % 13, i % 26, 1, float(i)) is None
        assert model.remaining == 0
        assert model.cells_corrupted == 0
        # The lazy per-disk streams were never even created.
        assert model._rngs == {}

    def test_zero_rate_reads_see_nothing(self):
        model = CorruptionModel(13, 26, seed=7)
        assert model.corrupt_cells(0, 0, 26, 1e9) == ()


class TestLostWrite:
    def test_certain_loss_marks_every_covered_cell(self):
        model = CorruptionModel(4, 100, seed=7, lost_rate=1.0)
        assert model.note_write(0, 10, 3, 0.0) == "lost-write"
        hits = model.corrupt_cells(0, 10, 3, 0.0)
        assert sorted(off for off, _ in hits) == [10, 11, 12]
        assert all(kind == "lost-write" for _, kind in hits)
        assert model.injected["lost-write"] == 1
        assert model.cells_corrupted == 3

    def test_clean_write_repairs_covered_cells(self):
        model = CorruptionModel(4, 100, seed=7)
        model.begin_burst(0, 1.0, 0.0)
        model.note_write(0, 10, 2, 0.0)
        model.end_burst(0)
        assert model.remaining == 2
        assert model.note_write(0, 10, 2, 1.0) is None
        assert model.remaining == 0
        assert model.repaired["lost-write"] == 2
        assert model.corrupt_cells(0, 10, 2, 1.0) == ()

    def test_seeded_draws_replay(self):
        def draws(seed):
            model = CorruptionModel(
                4, 100, seed=seed, lost_rate=0.3, misdirected_rate=0.2
            )
            return [
                model.note_write(i % 4, i % 100, 1, float(i))
                for i in range(100)
            ]

        assert draws(11) == draws(11)
        assert draws(11) != draws(12)


class TestMisdirectedWrite:
    def test_marks_intended_and_victim_runs(self):
        model = CorruptionModel(4, 100, seed=7, misdirected_rate=1.0)
        assert model.note_write(1, 20, 2, 0.0) == "misdirected-write"
        hits = model.corrupt_cells(1, 0, 100, 0.0)
        offsets = sorted(off for off, _ in hits)
        # Intended cells stay stale AND a victim run is clobbered.
        assert {20, 21} <= set(offsets)
        assert len(offsets) == 4
        assert all(kind == "misdirected-write" for _, kind in hits)

    @given(
        rows=st.integers(min_value=2, max_value=10_000),
        offset=st.integers(min_value=0, max_value=9_999),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=300, deadline=None)
    def test_victim_never_escapes_lba_range(self, rows, offset, seed):
        """The address-perturbation arithmetic: the victim offset is
        always a valid LBA on the disk and never the intended offset
        itself (which would be a correct write, not a misdirection)."""
        offset = offset % rows
        model = CorruptionModel(4, rows, seed=0)
        victim = model.misdirect_target(offset, random.Random(seed))
        assert 0 <= victim < rows
        assert victim != offset

    def test_single_row_disk_degenerates_safely(self):
        model = CorruptionModel(4, 1, seed=0)
        assert model.misdirect_target(0, random.Random(3)) == 0


class TestBitRot:
    def test_onsets_absorbed_by_clock(self):
        model = CorruptionModel(4, 50, seed=3, bitrot_cells=2.0)
        total = len(model._bitrot_pending)
        assert total > 0
        assert all(
            0.0 <= onset < BITROT_WINDOW_MS
            for onset, _, _ in model._bitrot_pending
        )
        model.corrupt_cells(0, 0, 50, -1.0)
        assert model.injected["bit-rot"] == 0
        model.corrupt_cells(0, 0, 50, BITROT_WINDOW_MS)
        assert model.injected["bit-rot"] == total

    def test_construction_draws_are_deterministic(self):
        def cells(seed):
            model = CorruptionModel(4, 50, seed=seed, bitrot_cells=2.0)
            return sorted(model._bitrot_pending)

        assert cells(5) == cells(5)

    def test_adding_disks_does_not_reshuffle_existing_streams(self):
        small = CorruptionModel(4, 50, seed=5, bitrot_cells=2.0)
        large = CorruptionModel(8, 50, seed=5, bitrot_cells=2.0)
        small_by_disk = sorted(
            e for e in small._bitrot_pending if e[1] < 4
        )
        large_by_disk = sorted(
            e for e in large._bitrot_pending if e[1] < 4
        )
        assert small_by_disk == large_by_disk


class TestBursts:
    def test_burst_overrides_then_restores_base_rates(self):
        model = CorruptionModel(4, 100, seed=7)
        assert not model.burst_active(2)
        model.begin_burst(2, 1.0, 0.0)
        assert model.burst_active(2)
        assert model.note_write(2, 5, 1, 0.0) == "lost-write"
        # Other disks stay at the base (zero) rates.
        assert model.note_write(1, 5, 1, 0.0) is None
        model.end_burst(2)
        assert not model.burst_active(2)
        assert model.note_write(2, 50, 1, 1.0) is None

    def test_burst_validates_inputs(self):
        model = CorruptionModel(4, 100, seed=7)
        with pytest.raises(ConfigurationError):
            model.begin_burst(9, 0.1, 0.0)
        with pytest.raises(ConfigurationError):
            model.begin_burst(0, 0.8, 0.8)
        with pytest.raises(ConfigurationError):
            model.begin_burst(0, -0.1, 0.2)


class TestLedger:
    def test_report_shape_and_totals(self):
        model = CorruptionModel(4, 100, seed=7)
        model.pollute(0, 3)
        model.note_detected("parity-pollution")
        model.note_silent("lost-write")
        report = model.report()
        assert report["injected"]["parity-pollution"] == 1
        assert report["detected_total"] == 1
        assert report["silent_total"] == 1
        assert report["cells_corrupted"] == 1
        assert report["remaining"] == 1
        for bucket in ("injected", "detected", "silent", "repaired"):
            assert tuple(report[bucket]) == ALL_CORRUPTION_KINDS

    def test_double_mark_counts_one_cell(self):
        model = CorruptionModel(4, 100, seed=7)
        model.pollute(0, 3)
        model.pollute(0, 3)
        assert model.injected["parity-pollution"] == 2
        assert model.cells_corrupted == 1
        assert model.remaining == 1
