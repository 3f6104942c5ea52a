"""Declarative fault scenarios.

A :class:`FaultScenario` is pure data: JSON-scalar fields only, frozen —
the same discipline as the runner's experiment specs, so scenarios
cross ``multiprocessing`` boundaries without surprises.  Drivers build
them from their specs; no record, cache key or sweep hash carries one.

Fault timing comes in two flavours:

- **deterministic**: ``fault_time_ms`` pins the failure of
  ``failed_disk`` to an exact simulation time (reproduction runs);
- **stochastic**: ``mttf_hours`` draws an independent exponential
  lifetime per disk (rate ``1/MTTF``, the MTTDL models' assumption) from
  named streams seeded by ``fault_seed``; the shortest-lived disk fails.
  Seeded draws are deterministic, so these scenarios replay exactly too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.reliability.mttdl import exponential_lifetime_ms


@dataclass(frozen=True)
class FaultScenario:
    """One array-lifetime script: a failure plus the rebuild's behaviour.

    Exactly one of ``fault_time_ms`` (deterministic) and ``mttf_hours``
    (seeded-exponential; ``failed_disk`` is then ignored in favour of the
    draw) must be set.  ``degraded_dwell_ms`` is the delay between the
    failure and the rebuild sweep starting (detection + spare-up time);
    ``rebuild_rows`` bounds the sweep (``None`` = the whole disk);
    ``rebuild_throttle_ms`` idles each rebuild slot between steps so the
    client/rebuild interference is tunable.

    >>> FaultScenario(fault_time_ms=100.0, failed_disk=3).draw_faults(13)
    [(100.0, 3)]
    """

    failed_disk: int = 0
    fault_time_ms: Optional[float] = None
    mttf_hours: Optional[float] = None
    fault_seed: int = 0
    degraded_dwell_ms: float = 0.0
    rebuild_rows: Optional[int] = None
    rebuild_parallel: int = 1
    rebuild_throttle_ms: float = 0.0
    # Multi-fault extensions (all inactive by default).
    # A scripted second whole-disk failure, and/or further stochastic
    # failures: with ``mttf_hours`` set, ``max_faults`` of the per-disk
    # lifetime draws are scheduled in time order instead of only the
    # earliest.
    second_fault_time_ms: Optional[float] = None
    second_failed_disk: Optional[int] = None
    max_faults: int = 1
    # Latent sector errors: expected errors per GB of swept capacity,
    # drawn per disk from seeded Poisson counts (see repro.faults.media).
    lse_per_gb: float = 0.0
    # Background scrubbing: a full-pass read of every live cell each
    # ``scrub_interval_ms``, throttled like the reconstructor.
    scrub_interval_ms: Optional[float] = None
    scrub_throttle_ms: float = 0.0
    # Transient I/O errors: per-operation failure probability, drawn from
    # per-disk named streams ``"{fault_seed}/transient-{disk}"`` (distinct
    # from the *persistent* latent sector errors above; recovered by the
    # controller's retry/escalation machinery, see
    # ``ArrayController.enable_transient_errors``).
    transient_io_rate: float = 0.0

    def __post_init__(self):
        if (self.fault_time_ms is None) == (self.mttf_hours is None):
            raise ConfigurationError(
                "set exactly one of fault_time_ms (deterministic) and"
                " mttf_hours (seeded-exponential)"
            )
        if self.fault_time_ms is not None and self.fault_time_ms < 0:
            raise ConfigurationError(
                f"negative fault time {self.fault_time_ms}"
            )
        if self.mttf_hours is not None and self.mttf_hours <= 0:
            raise ConfigurationError(f"mttf must be > 0: {self.mttf_hours}")
        if self.failed_disk < 0:
            raise ConfigurationError(f"bad failed disk {self.failed_disk}")
        if self.degraded_dwell_ms < 0:
            raise ConfigurationError(
                f"negative degraded dwell {self.degraded_dwell_ms}"
            )
        if self.rebuild_rows is not None and self.rebuild_rows < 1:
            raise ConfigurationError(
                f"need >= 1 rebuild row, got {self.rebuild_rows}"
            )
        if self.rebuild_parallel < 1:
            raise ConfigurationError("need >= 1 rebuild slot")
        if self.rebuild_throttle_ms < 0:
            raise ConfigurationError(
                f"negative rebuild throttle {self.rebuild_throttle_ms}"
            )
        if self.second_fault_time_ms is not None:
            if self.fault_time_ms is None:
                raise ConfigurationError(
                    "a scripted second fault needs a scripted first fault"
                    " (set fault_time_ms)"
                )
            if self.second_fault_time_ms <= self.fault_time_ms:
                raise ConfigurationError(
                    f"second fault at {self.second_fault_time_ms} must land"
                    f" strictly after the first at {self.fault_time_ms}"
                )
            if self.second_failed_disk is None:
                raise ConfigurationError(
                    "a scripted second fault needs second_failed_disk"
                )
        if self.second_failed_disk is not None:
            if self.second_fault_time_ms is None:
                raise ConfigurationError(
                    "second_failed_disk needs second_fault_time_ms"
                )
            if self.second_failed_disk < 0:
                raise ConfigurationError(
                    f"bad second failed disk {self.second_failed_disk}"
                )
            if self.second_failed_disk == self.failed_disk:
                raise ConfigurationError(
                    "second failure must strike a different disk"
                )
        if self.max_faults < 1:
            raise ConfigurationError(
                f"need >= 1 fault, got max_faults={self.max_faults}"
            )
        if self.max_faults > 1 and self.mttf_hours is None:
            raise ConfigurationError(
                "max_faults > 1 draws extra failures from disk lifetimes"
                " and needs mttf_hours (script a pair with"
                " second_fault_time_ms instead)"
            )
        if self.lse_per_gb < 0:
            raise ConfigurationError(
                f"negative latent-error rate {self.lse_per_gb}"
            )
        if self.scrub_interval_ms is not None and self.scrub_interval_ms <= 0:
            raise ConfigurationError(
                f"scrub interval must be > 0, got {self.scrub_interval_ms}"
            )
        if self.scrub_throttle_ms < 0:
            raise ConfigurationError(
                f"negative scrub throttle {self.scrub_throttle_ms}"
            )
        if not 0.0 <= self.transient_io_rate < 1.0:
            raise ConfigurationError(
                "transient I/O rate must be in [0, 1), got"
                f" {self.transient_io_rate}"
            )

    # ------------------------------------------------------------------
    # Fault timing.
    # ------------------------------------------------------------------

    def draw_faults(self, n_disks: int) -> List[Tuple[float, int]]:
        """Every scheduled failure as ``(time_ms, disk)``, in time order.

        Deterministic scenarios return the scripted first (and optional
        second) failure; stochastic scenarios draw one exponential
        lifetime per disk and schedule the ``max_faults`` earliest.
        Equal draws break ties by disk id, so the sequence is a pure
        function of the scenario and ``n_disks``.
        """
        if self.fault_time_ms is not None:
            faults = [(self.fault_time_ms, self.failed_disk)]
            if self.second_fault_time_ms is not None:
                if not 0 <= self.second_failed_disk < n_disks:
                    raise ConfigurationError(
                        f"second failed disk {self.second_failed_disk}"
                        f" outside 0..{n_disks - 1}"
                    )
                faults.append(
                    (self.second_fault_time_ms, self.second_failed_disk)
                )
            if not 0 <= self.failed_disk < n_disks:
                raise ConfigurationError(
                    f"failed disk {self.failed_disk} outside"
                    f" 0..{n_disks - 1}"
                )
            return faults
        lifetimes = [
            (
                exponential_lifetime_ms(
                    self.mttf_hours,
                    random.Random(f"{self.fault_seed}/disk-{disk}"),
                ),
                disk,
            )
            for disk in range(n_disks)
        ]
        lifetimes.sort()
        return lifetimes[: self.max_faults]
