"""Mean time to data loss (MTTDL) Markov models.

All models assume exponential disk lifetimes (rate ``1 / mttf``) and
exponential repairs (rate ``1 / mttr``), the standard Gibson-Patterson
analysis.  Data loss means a second failure strikes a stripe that has not
regained redundancy.

Three regimes:

- **RAID-5 / no sparing**: after a failure, the array is exposed until a
  *replacement* disk is installed and rebuilt (``mttr_replace``, hours on
  a good day — a human has to swap hardware).
- **Declustered, no sparing**: same exposure window, but declustering
  shortens rebuild once the replacement arrives; the exposure is dominated
  by replacement time.
- **Distributed sparing (PDDL)**: rebuild starts immediately into spare
  space at rate ``1 / mttr_rebuild`` (minutes to hours, no human in the
  loop); after rebuild, redundancy is restored even before the dead disk
  is replaced.  This is why the paper calls distributed sparing "a sure
  win".

The k-out-of-n structure: during the exposed window, any failure among the
``k - 1`` stripe peers of a lost unit loses data; declustering spreads the
risk over all survivors, so the classic formula uses the full surviving
population for the second-failure rate with a ``(k-1)/(n-1)`` data-loss
probability factor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ConfigurationError

HOURS_PER_YEAR = 24 * 365.25
MS_PER_HOUR = 3_600_000.0


@dataclass(frozen=True)
class ArrayReliability:
    """MTTDL result with its inputs, for reporting."""

    scheme: str
    n: int
    k: int
    mttf_hours: float
    repair_hours: float
    mttdl_hours: float

    @property
    def mttdl_years(self) -> float:
        return self.mttdl_hours / HOURS_PER_YEAR

    def as_row(self) -> str:
        return (
            f"{self.scheme:28s} n={self.n:<3d} k={self.k:<3d}"
            f" repair={self.repair_hours:7.2f}h"
            f" MTTDL={self.mttdl_years:12.1f} years"
        )


def _validate(n: int, k: int, mttf: float, repair: float) -> None:
    if n < 2 or not 2 <= k <= n:
        raise ConfigurationError(f"bad array shape n={n}, k={k}")
    if mttf <= 0 or repair <= 0:
        raise ConfigurationError("mttf and repair time must be positive")
    if repair >= mttf:
        raise ConfigurationError(
            "repair must be much shorter than disk lifetime"
        )


def mttdl_raid5(
    n: int, mttf_hours: float, mttr_replace_hours: float
) -> ArrayReliability:
    """Classic two-state model: MTTDL = mttf^2 / (n (n-1) mttr).

    Every second failure during the exposure window loses data (the whole
    array is one reliability group).
    """
    _validate(n, n, mttf_hours, mttr_replace_hours)
    mttdl = mttf_hours**2 / (n * (n - 1) * mttr_replace_hours)
    return ArrayReliability(
        scheme="RAID-5 (no sparing)",
        n=n,
        k=n,
        mttf_hours=mttf_hours,
        repair_hours=mttr_replace_hours,
        mttdl_hours=mttdl,
    )


def mttdl_declustered(
    n: int,
    k: int,
    mttf_hours: float,
    mttr_replace_hours: float,
) -> ArrayReliability:
    """Declustered array without spare space.

    A second failure during the window hits a stripe shared with the dead
    disk with probability ~ (k-1)/(n-1) per failed peer; equivalently the
    loss rate scales by that factor relative to RAID-5's.
    """
    _validate(n, k, mttf_hours, mttr_replace_hours)
    loss_fraction = (k - 1) / (n - 1)
    mttdl = mttf_hours**2 / (
        n * (n - 1) * mttr_replace_hours * loss_fraction
    )
    return ArrayReliability(
        scheme="Declustered (no sparing)",
        n=n,
        k=k,
        mttf_hours=mttf_hours,
        repair_hours=mttr_replace_hours,
        mttdl_hours=mttdl,
    )


def mttdl_distributed_sparing(
    n: int,
    k: int,
    mttf_hours: float,
    mttr_rebuild_hours: float,
) -> ArrayReliability:
    """Declustered array with distributed sparing (PDDL).

    The exposure window is the *rebuild into spare space* — no human, no
    replacement drive — after which the array tolerates a further failure
    (running without spare headroom until serviced).  Same formula, much
    smaller repair time, same (k-1)/(n-1) declustering factor over the
    n-1 survivors that keep serving.
    """
    _validate(n, k, mttf_hours, mttr_rebuild_hours)
    loss_fraction = (k - 1) / (n - 1)
    mttdl = mttf_hours**2 / (
        n * (n - 1) * mttr_rebuild_hours * loss_fraction
    )
    return ArrayReliability(
        scheme="PDDL (distributed sparing)",
        n=n,
        k=k,
        mttf_hours=mttf_hours,
        repair_hours=mttr_rebuild_hours,
        mttdl_hours=mttdl,
    )


def exponential_lifetime_ms(
    mttf_hours: float, rng: random.Random
) -> float:
    """One exponential disk-lifetime draw in simulator milliseconds.

    The same MTTF that parameterizes the MTTDL models above also drives
    stochastic fault injection (`repro.faults`): a disk's time-to-failure
    is exponential with rate ``1 / mttf``.
    """
    if mttf_hours <= 0:
        raise ConfigurationError(f"mttf must be positive, got {mttf_hours}")
    return rng.expovariate(1.0 / (mttf_hours * MS_PER_HOUR))


def earliest_failures(
    mttf_hours: float, seed: int, n_disks: int, count: int
) -> List[Tuple[float, int]]:
    """The ``count`` earliest disk failures as ``(time_ms, disk)``, in
    time order.

    Disk ``d`` draws one :func:`exponential_lifetime_ms` from the named
    stream ``"{seed}/disk-{d}"``; equal draws break ties by disk id, so
    the list is a pure function of the arguments.
    """
    lifetimes = [
        (
            exponential_lifetime_ms(
                mttf_hours, random.Random(f"{seed}/disk-{disk}")
            ),
            disk,
        )
        for disk in range(n_disks)
    ]
    lifetimes.sort()
    return lifetimes[:count]


def campaign_loss_probability(
    n: int, mttf_hours: float, window_hours: float
) -> float:
    """P(a second failure lands inside the exposure window).

    After the first failure, each of the ``n - 1`` survivors keeps its
    exponential lifetime (memorylessness), so the time to the *next*
    failure is exponential with rate ``(n - 1) / mttf`` and the second
    failure falls inside a ``window_hours`` exposure with probability
    ``1 - exp(-(n - 1) * window / mttf)``.  This is the per-cycle loss
    probability the multi-fault campaigns estimate empirically — the
    same exposure logic the MTTDL models above integrate analytically.
    """
    if n < 2:
        raise ConfigurationError(f"need >= 2 disks, got {n}")
    if mttf_hours <= 0:
        raise ConfigurationError(f"mttf must be positive, got {mttf_hours}")
    if window_hours < 0:
        raise ConfigurationError(f"negative window {window_hours}")
    return 1.0 - math.exp(-(n - 1) * window_hours / mttf_hours)


@dataclass(frozen=True)
class CampaignPrediction:
    """Analytic per-cycle loss probability, with its inputs."""

    n: int
    mttf_hours: float
    window_hours: float
    loss_probability: float


def predict_campaign_loss(
    n: int, mttf_hours: float, window_hours: float
) -> CampaignPrediction:
    """The analytic counterpart of a simulated multi-fault campaign.

    ``window_hours`` is the exposure per cycle — the degraded dwell plus
    the rebuild duration, both measured by the simulator — over which a
    second whole-disk failure loses data.
    """
    return CampaignPrediction(
        n=n,
        mttf_hours=mttf_hours,
        window_hours=window_hours,
        loss_probability=campaign_loss_probability(
            n, mttf_hours, window_hours
        ),
    )


def rebuild_hours_from_simulation(
    rebuild_ms_per_pattern: float,
    patterns_per_disk: int,
) -> float:
    """Convert a simulated per-pattern rebuild time into a full-disk
    rebuild duration in hours."""
    if rebuild_ms_per_pattern <= 0 or patterns_per_disk < 1:
        raise ConfigurationError("need positive rebuild time and patterns")
    return rebuild_ms_per_pattern * patterns_per_disk / 3_600_000.0
