"""Tests for disk-op classification and counters."""

from repro.disk.stats import DiskOpClass, DiskStats, classify_operation


class TestClassification:
    def test_non_local_always_wins(self):
        for cyl in (False, True):
            for head in (False, True):
                assert (
                    classify_operation(False, cyl, head)
                    is DiskOpClass.NON_LOCAL_SEEK
                )

    def test_local_cylinder_switch(self):
        assert (
            classify_operation(True, True, True)
            is DiskOpClass.CYLINDER_SWITCH
        )
        assert (
            classify_operation(True, True, False)
            is DiskOpClass.CYLINDER_SWITCH
        )

    def test_local_track_switch(self):
        assert (
            classify_operation(True, False, True) is DiskOpClass.TRACK_SWITCH
        )

    def test_local_no_switch(self):
        assert classify_operation(True, False, False) is DiskOpClass.NO_SWITCH


class TestDiskStats:
    def test_record_accumulates(self):
        s = DiskStats()
        s.record(DiskOpClass.NO_SWITCH, 0.0, 3.0, 1.5)
        s.record(DiskOpClass.NON_LOCAL_SEEK, 8.0, 2.0, 1.5)
        assert s.operations == 2
        assert s.busy_ms == 16.0
        assert s.by_class[DiskOpClass.NO_SWITCH] == 1
        assert s.by_class[DiskOpClass.NON_LOCAL_SEEK] == 1

