"""The drive's table-backed service path against its scalar reference.

``DiskDrive.service`` serves requests from the shared ``ServiceTables``
(seek curve by distance, sector angles by zone density, a memo of
transfer walks); ``DiskDrive.service_reference`` recomputes everything
from the geometry per request.  These tests pin the tables entry by entry
to their scalar definitions and the two service paths to each other,
request by request, over random sequences that cross tracks, cylinders
and zones at arbitrary clocks, with and without a fail-slow model.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.disk.drive import DiskDrive, DiskRequest
from repro.disk.geometry import DiskGeometry, Zone
from repro.disk.hp2247 import HP2247_SEEK, make_hp2247
from repro.disk.seek import SeekModel
from repro.faults.failslow import FailSlowModel


def small_zoned_drive() -> DiskDrive:
    """Three zones, short tracks: short requests cross tracks, cylinders
    and zone boundaries (where sectors per track changes mid-transfer)."""
    geometry = DiskGeometry(
        heads=3, zones=[Zone(0, 4, 12), Zone(4, 3, 9), Zone(7, 5, 7)]
    )
    seek = SeekModel(12, 2.0, 0.5, 0.1)
    return DiskDrive(
        geometry, seek, rpm=7200, head_switch_ms=0.8, cylinder_switch_ms=1.7
    )


DRIVES = {"hp2247": make_hp2247, "small": small_zoned_drive}


class TestTableEntries:
    def test_seek_by_distance_matches_the_curve(self):
        tables = make_hp2247().tables
        m = HP2247_SEEK
        fresh = SeekModel(m.cylinders, m.single_ms, m.alpha, m.beta)
        assert len(tables.seek_by_distance) == m.cylinders
        assert tables.seek_by_distance[0] == 0.0
        for d in range(1, m.cylinders):
            curve = m.single_ms + m.alpha * math.sqrt(d - 1) + m.beta * (d - 1)
            assert tables.seek_by_distance[d] == curve == fresh.seek_time(d), d

    def test_angle_by_spt_matches_sector_angles(self):
        for factory in DRIVES.values():
            drive = factory()
            tables = drive.tables
            rev = drive.revolution_ms
            densities = {z.sectors_per_track for z in drive.geometry.zones}
            assert set(tables.angle_by_spt) == densities
            for spt in densities:
                assert tables.angle_by_spt[spt] == [
                    (sector / spt) * rev for sector in range(spt)
                ]


@st.composite
def request_sequences(draw, total_sectors: int, max_sectors: int):
    """(lba, sectors, is_write, now_ms) with a non-decreasing clock."""
    now = 0.0
    out = []
    for _ in range(draw(st.integers(1, 25))):
        sectors = draw(st.integers(1, max_sectors))
        lba = draw(st.integers(0, total_sectors - sectors))
        now += draw(
            st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False)
        )
        out.append((lba, sectors, draw(st.booleans()), now))
    return out


def assert_paths_agree(factory, requests, fail_slow: bool) -> None:
    fast, ref = factory(), factory()
    if fail_slow:
        fast.fail_slow = FailSlowModel(3.5, onset_ms=40.0)
        ref.fail_slow = FailSlowModel(3.5, onset_ms=40.0)
    for lba, sectors, is_write, now in requests:
        request = DiskRequest(lba, sectors, is_write, access_id=0)
        assert fast.service(request, now) == ref.service_reference(
            request, now
        ), (lba, sectors, now)
        assert (fast.cylinder, fast.head) == (ref.cylinder, ref.head)


_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestServiceMatchesReference:
    @_SETTINGS
    @given(
        requests=request_sequences(
            small_zoned_drive().geometry.total_sectors, max_sectors=80
        ),
        fail_slow=st.booleans(),
    )
    def test_small_zoned_drive(self, requests, fail_slow):
        assert_paths_agree(small_zoned_drive, requests, fail_slow)

    @_SETTINGS
    @given(
        # Up to two cylinders' worth (13 heads x 96 sectors): the long
        # requests cross tracks and cylinders, the short ones stay put.
        requests=request_sequences(
            make_hp2247().geometry.total_sectors, max_sectors=2600
        ),
        fail_slow=st.booleans(),
    )
    def test_hp2247(self, requests, fail_slow):
        assert_paths_agree(make_hp2247, requests, fail_slow)
