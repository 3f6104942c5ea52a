"""Analytic models of declustered-array behaviour.

Closed-form expectations that the paper's framework implies, used to
sanity-check the simulator and to reason about configurations without
running it:

- the *declustering ratio* ``alpha = (k - 1) / (n - 1)`` (Holland &
  Gibson's knob: fraction of each surviving disk's bandwidth consumed by
  reconstruction),
- expected degraded-mode load inflation for reads and writes,
- expected physical operations per logical access by size and mode,
- super-stripe geometry for goal #8.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.layouts.base import Layout


def declustering_ratio(layout: Layout) -> float:
    """alpha = (k - 1) / (n - 1): 1.0 for RAID-5, lower when declustered.

    >>> from repro.layouts import make_layout
    >>> declustering_ratio(make_layout("raid5", 13, 13))
    1.0
    >>> round(declustering_ratio(make_layout("pddl", 13, 4)), 3)
    0.25
    """
    return (layout.k - 1) / (layout.n - 1)


def degraded_read_inflation(layout: Layout) -> float:
    """Expected physical reads per requested data unit with one disk dead.

    A unit lives on the failed disk with probability 1/n', where n' counts
    disks holding client data for the layout; lost units cost ``k - 1``
    reads.  For layouts storing data uniformly over all n disks the
    expectation is ``1 + (k - 2) / n``.
    """
    n = layout.n
    k = layout.k
    return (1 / n) * (k - 1) + (1 - 1 / n)


def surviving_disk_load_factor(layout: Layout) -> float:
    """Degraded-mode load multiplier on each surviving disk (reads).

    RAID-5 doubles (alpha = 1); a k=4/n=13 declustered layout adds only
    25%.  This is the paper's core motivation: "Within RAID-5, the
    workload on the surviving disks doubles during degraded read
    accesses."

    >>> from repro.layouts import make_layout
    >>> surviving_disk_load_factor(make_layout("raid5", 13, 13))
    2.0
    >>> surviving_disk_load_factor(make_layout("pddl", 13, 4))
    1.25
    """
    return 1.0 + declustering_ratio(layout)


@dataclass(frozen=True)
class WriteCost:
    """Expected physical operations of one stripe-aligned write."""

    pre_reads: float
    writes: float

    @property
    def total(self) -> float:
        return self.pre_reads + self.writes


def write_cost(layout: Layout, units_written: int) -> WriteCost:
    """Fault-free physical-op cost of writing ``m`` units of one stripe.

    Mirrors the planner's small/large/full decision; useful for reasoning
    about the small-write crossovers of §4.2 without simulation.

    >>> from repro.layouts import make_layout
    >>> write_cost(make_layout("raid5", 13, 13), 12).total  # full stripe
    13.0
    >>> write_cost(make_layout("raid5", 13, 13), 6).total   # small write
    14.0
    """
    dps = layout.data_per_stripe
    c = layout.checks_per_stripe
    m = units_written
    if not 1 <= m <= dps:
        raise ConfigurationError(
            f"a stripe holds 1..{dps} data units, got {m}"
        )
    if m == dps:
        return WriteCost(pre_reads=0.0, writes=float(m + c))
    if m <= dps // 2:
        return WriteCost(pre_reads=float(m + c), writes=float(m + c))
    return WriteCost(pre_reads=float(dps - m), writes=float(m + c))


def expected_read_ops(layout: Layout, span_units: int) -> float:
    """Fault-free reads are always one op per unit."""
    if span_units < 1:
        raise ConfigurationError("span must be >= 1")
    return float(span_units)


def expected_degraded_read_ops(layout: Layout, span_units: int) -> float:
    """Expected ops for a degraded read of ``span_units`` units.

    Each unit is lost with probability ~1/n and then costs k - 1 reads.
    """
    if span_units < 1:
        raise ConfigurationError("span must be >= 1")
    return span_units * degraded_read_inflation(layout)


def super_stripe_units(layout: Layout) -> int:
    """Goal #8's access quantum: ``n - g - 1`` data units (one full row of
    client data in a PDDL pattern)."""
    if not layout.has_sparing:
        raise ConfigurationError(
            f"{layout.name} has no sparing; goal #8 does not apply"
        )
    g = (layout.n - 1) // layout.k
    return layout.n - g - 1


def rebuild_reads_per_pattern(layout: Layout) -> int:
    """Total reconstruction reads one failed disk costs per pattern."""
    spare_cells = sum(1 for disk, _ in layout.spare_cells() if disk == 0)
    lost_units = layout.period - spare_cells
    return lost_units * (layout.k - 1)
