"""Experiment specifications: one sweep point as pure data.

A spec is a frozen dataclass of JSON-scalar fields, so it pickles across
``multiprocessing`` workers, serializes into cache files, and hashes
stably: :func:`spec_hash` is SHA-256 over the canonical JSON of the
fields plus a schema version, identical across process restarts and
platforms.  The hash names a sweep point, not the code that simulates
it: the result cache files each record under a fingerprint of the
source (:func:`repro.runner.cache.source_fingerprint`), so a code change
never needs a hash change.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import ClassVar, Optional, Union

from repro.array.raidops import ArrayMode
from repro.errors import ConfigurationError
from repro.workload.spec import AccessSpec

#: Part of every content hash.  It stays 1: every committed
#: ``sweep_hash`` includes it, and the result cache is kept fresh by
#: its source fingerprint instead.
SPEC_SCHEMA_VERSION = 1

#: Spec fields added after v1 shipped, per kind, with their inactive
#: defaults.  :func:`spec_to_dict` omits them while they hold these
#: values, so specs predating the fields keep the ``spec`` block of
#: their records, and with it the record digests the repo benchmark
#: pins (``benchmarks/perf/expected.json``) and the committed sweep
#: hashes.
_V1_SPEC_OPTIONAL = {
    "lifecycle": {"oracle": False},
    "campaign-trial": {"oracle": False, "transient_io_rate": 0.0},
    "nemesis-trial": {
        "transient_io_rate": 0.0,
        "lse_per_gb": 0.0,
        "max_failslow": 0,
        "failslow_multiplier": 5.0,
        "max_corruption_bursts": 0,
        "corruption_rate": 0.05,
        "checksums": False,
    },
}

#: Canonical short names for the array modes (CLI and spec encoding).
MODES = {
    "ff": ArrayMode.FAULT_FREE,
    "f1": ArrayMode.DEGRADED,
    "post": ArrayMode.POST_RECONSTRUCTION,
}


def trial_stream_root(seed: int, trial: int) -> int:
    """The integer every random stream of one trial derives from.

    A large odd multiplier keeps per-trial streams disjoint across
    campaign seeds.
    """
    return seed * 1_000_003 + trial


def _access_units(size_kb: int) -> int:
    """Stripe units of one ``size_kb`` access, so a size that is not
    whole stripe units fails at construction, not mid-sweep in a
    worker."""
    return AccessSpec(size_kb, False).units()


def _check_rebuild(
    dwell_ms: float,
    rows: Optional[int],
    parallel: int,
    throttle_ms: float = 0.0,
) -> None:
    """The rebuild values a spec hands its
    :class:`~repro.faults.lifecycle.ArrayLifecycle`: the degraded dwell,
    the sweep's row bound (``None`` = the whole disk), its slots and its
    per-slot throttle."""
    if dwell_ms < 0:
        raise ConfigurationError(f"negative degraded dwell {dwell_ms}")
    if rows is not None and rows < 1:
        raise ConfigurationError(f"need >= 1 rebuild row, got {rows}")
    if parallel < 1:
        raise ConfigurationError(f"need >= 1 rebuild slot, got {parallel}")
    if throttle_ms < 0:
        raise ConfigurationError(f"negative rebuild throttle {throttle_ms}")


def _check_transient_rate(rate: float) -> None:
    """A per-operation transient I/O error probability."""
    if not 0.0 <= rate < 1.0:
        raise ConfigurationError(
            f"transient I/O rate must be in [0, 1), got {rate}"
        )


def _check_open_loop(spec) -> None:
    """The checks every open-loop trial spec shares: arrival rate and
    count, admission-queue geometry, horizon and failed disk."""
    if spec.rate_per_s <= 0:
        raise ConfigurationError(
            f"arrival rate must be positive, got {spec.rate_per_s}"
        )
    if spec.arrivals < 1:
        raise ConfigurationError(f"need >= 1 arrival, got {spec.arrivals}")
    if spec.queue_depth < 1 or spec.service_slots < 1:
        raise ConfigurationError("need positive queue geometry")
    if spec.horizon_ms <= 0:
        raise ConfigurationError(
            f"horizon must be positive, got {spec.horizon_ms}"
        )
    if not 0 <= spec.failed_disk < spec.disks:
        raise ConfigurationError(f"bad failed disk {spec.failed_disk}")


def mode_name(mode: ArrayMode) -> str:
    """The spec encoding of an :class:`ArrayMode`."""
    for name, value in MODES.items():
        if value is mode:
            return name
    raise ConfigurationError(f"unknown array mode {mode!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One response-time simulation point (Figures 5/6/8/9/...).

    ``width=None`` follows Table 2 (RAID-5 stripes the whole array, the
    declustered layouts use the paper's stripe width); the run stops at
    the paper's 2%-at-95% precision target or after ``max_samples``
    measured responses, whichever comes first; ``timelines`` adds
    per-disk busy/queue-depth series to the result record.
    ``use_stopping_rule`` is inert: every point runs under the stopping
    rule, and the field stays only because every response record's
    ``spec`` block (and so its digest) carries it.

    >>> spec = ExperimentSpec(layout="pddl", size_kb=96, clients=8)
    >>> spec_hash(spec) == spec_hash(ExperimentSpec(layout="pddl",
    ...                                             size_kb=96, clients=8))
    True
    """

    kind: ClassVar[str] = "response"

    layout: str
    disks: int = 13
    width: Optional[int] = None
    size_kb: int = 8
    is_write: bool = False
    clients: int = 1
    mode: str = "ff"
    failed_disk: int = 0
    seed: int = 0
    max_samples: int = 300
    warmup: int = 50
    use_stopping_rule: bool = False
    coalesce: bool = True
    timelines: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(
                f"mode must be one of {sorted(MODES)}, got {self.mode!r}"
            )
        if self.clients < 1:
            raise ConfigurationError(f"need >= 1 client, got {self.clients}")
        if self.max_samples < 1:
            raise ConfigurationError("need >= 1 sample")
        _access_units(self.size_kb)


@dataclass(frozen=True)
class Table1Spec:
    """One Table 1 cell: the base-permutation search for (k, g)."""

    kind: ClassVar[str] = "table1"

    k: int
    g: int
    seed: int = 0
    restarts: int = 8
    max_steps: int = 1500
    p_max: int = 3

    def __post_init__(self):
        if self.k < 2 or self.g < 1:
            raise ConfigurationError(f"bad Table 1 cell ({self.k}, {self.g})")


@dataclass(frozen=True)
class LifecycleSpec:
    """One reconstruction-under-load lifecycle run (Figures 8-14, 18).

    Exactly one of ``fault_time_ms`` (scripted failure of
    ``failed_disk``) or ``mttf_hours`` (seeded exponential lifetimes
    from ``fault_seed``, earliest disk fails) selects the fault; the
    remaining fields parameterize the rebuild sweep and the per-mode
    sampling bounds.  ``rebuild_throttle_ms`` is the idle time
    per rebuild slot between steps — the offered-load knob behind the
    rebuild-duration-vs-load curves.

    >>> spec = LifecycleSpec(layout="pddl", fault_time_ms=500.0)
    >>> spec_hash(spec) == spec_hash(LifecycleSpec(layout="pddl",
    ...                                            fault_time_ms=500.0))
    True
    """

    kind: ClassVar[str] = "lifecycle"

    layout: str
    disks: int = 13
    width: Optional[int] = None
    size_kb: int = 8
    is_write: bool = False
    clients: int = 4
    seed: int = 0
    failed_disk: int = 0
    fault_time_ms: Optional[float] = None
    mttf_hours: Optional[float] = None
    fault_seed: int = 0
    degraded_dwell_ms: float = 0.0
    rebuild_rows: Optional[int] = None
    rebuild_parallel: int = 1
    rebuild_throttle_ms: float = 0.0
    post_samples: int = 100
    max_samples: int = 4000
    timelines: bool = False
    # Post-v1 (hash-omitted at default, see _V1_SPEC_OPTIONAL): attach
    # the integrity oracle and record its verification in the result.
    oracle: bool = False

    def __post_init__(self):
        if self.clients < 1:
            raise ConfigurationError(f"need >= 1 client, got {self.clients}")
        if self.max_samples < 1 or self.post_samples < 1:
            raise ConfigurationError("need positive sample bounds")
        _access_units(self.size_kb)
        if (self.fault_time_ms is None) == (self.mttf_hours is None):
            raise ConfigurationError(
                "set exactly one of fault_time_ms (scripted) and"
                " mttf_hours (seeded-exponential)"
            )
        if self.fault_time_ms is not None and self.fault_time_ms < 0:
            raise ConfigurationError(
                f"negative fault time {self.fault_time_ms}"
            )
        if self.mttf_hours is not None and self.mttf_hours <= 0:
            raise ConfigurationError(f"mttf must be > 0: {self.mttf_hours}")
        if not 0 <= self.failed_disk < self.disks:
            raise ConfigurationError(f"bad failed disk {self.failed_disk}")
        _check_rebuild(
            self.degraded_dwell_ms,
            self.rebuild_rows,
            self.rebuild_parallel,
            self.rebuild_throttle_ms,
        )


@dataclass(frozen=True)
class CampaignTrialSpec:
    """One multi-fault reliability trial (campaign Monte-Carlo sample).

    Each trial fails the ``faults`` earliest of its exponential disk
    lifetimes (MTTF ``mttf_hours``), drawn by
    :func:`~repro.reliability.mttdl.earliest_failures` from
    :func:`trial_stream_root`, which also seeds the latent sector and
    transient errors, and simulates the repair arc to completion or
    data loss.
    ``clients = 0`` (the default) runs the arc unloaded; positive
    values add the lifecycle experiments' closed-loop clients.

    >>> spec = CampaignTrialSpec(layout="pddl", trial=7)
    >>> spec_hash(spec) == spec_hash(CampaignTrialSpec(layout="pddl",
    ...                                                trial=7))
    True
    """

    kind: ClassVar[str] = "campaign-trial"

    layout: str
    disks: int = 13
    width: Optional[int] = None
    trial: int = 0
    seed: int = 0
    mttf_hours: float = 1000.0
    faults: int = 2
    degraded_dwell_ms: float = 0.0
    rebuild_rows: Optional[int] = None
    rebuild_parallel: int = 1
    rebuild_throttle_ms: float = 0.0
    lse_per_gb: float = 0.0
    scrub_interval_ms: Optional[float] = None
    scrub_throttle_ms: float = 0.0
    clients: int = 0
    size_kb: int = 8
    is_write: bool = False
    # Post-v1 (hash-omitted at defaults, see _V1_SPEC_OPTIONAL):
    # per-operation transient I/O errors and the integrity oracle.
    transient_io_rate: float = 0.0
    oracle: bool = False

    def __post_init__(self):
        if self.trial < 0:
            raise ConfigurationError(f"negative trial index {self.trial}")
        if self.clients < 0:
            raise ConfigurationError(
                f"negative client count {self.clients}"
            )
        _access_units(self.size_kb)
        if self.mttf_hours is None or self.mttf_hours <= 0:
            raise ConfigurationError(f"mttf must be > 0: {self.mttf_hours}")
        if self.faults < 1:
            raise ConfigurationError(f"need >= 1 fault, got {self.faults}")
        _check_rebuild(
            self.degraded_dwell_ms,
            self.rebuild_rows,
            self.rebuild_parallel,
            self.rebuild_throttle_ms,
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
        _check_transient_rate(self.transient_io_rate)


@dataclass(frozen=True)
class CrashTrialSpec:
    """One controller-crash + recovery trial (``repro crash``).

    Closed-loop clients write until the crash fires — at a scripted
    simulation time (``crash_time_ms``), at a scripted write-plan phase
    boundary (``crash_boundary``), or at a boundary drawn from the
    ``crash_seed`` stream; exactly one must be set.  ``journal=True``
    replays the NVRAM dirty-stripe log on restart; ``journal=False`` is
    the full-sweep baseline, with the sweep bounded by ``resync_rows``
    the way rebuild sweeps are.  ``fail_disk_at_ms`` optionally fails a
    disk first, so the crash lands on a degraded array and dirty stripes
    on the failed disk's parity chains surface as data loss.

    >>> spec = CrashTrialSpec(layout="pddl", crash_boundary=3)
    >>> spec_hash(spec) == spec_hash(CrashTrialSpec(layout="pddl",
    ...                                             crash_boundary=3))
    True
    """

    kind: ClassVar[str] = "crash-trial"

    layout: str
    disks: int = 13
    width: Optional[int] = None
    clients: int = 4
    size_kb: int = 8
    seed: int = 0
    journal: bool = True
    journal_latency_ms: float = 0.05
    crash_time_ms: Optional[float] = None
    crash_boundary: Optional[int] = None
    crash_seed: Optional[int] = None
    crash_max_boundary: int = 64
    fail_disk_at_ms: Optional[float] = None
    failed_disk: int = 0
    transient_io_rate: float = 0.0
    restart_delay_ms: float = 10.0
    resync_rows: int = 26
    resync_parallel: int = 1
    max_pre_samples: int = 200
    post_samples: int = 50

    def __post_init__(self):
        if self.clients < 1:
            raise ConfigurationError(f"need >= 1 client, got {self.clients}")
        configured = sum(
            x is not None
            for x in (self.crash_time_ms, self.crash_boundary, self.crash_seed)
        )
        if configured != 1:
            raise ConfigurationError(
                "set exactly one of crash_time_ms, crash_boundary,"
                f" crash_seed (got {configured})"
            )
        if self.crash_time_ms is not None and self.crash_time_ms < 0:
            raise ConfigurationError(
                f"negative crash time {self.crash_time_ms}"
            )
        if self.crash_boundary is not None and self.crash_boundary < 0:
            raise ConfigurationError(
                f"negative crash boundary {self.crash_boundary}"
            )
        if self.crash_max_boundary < 1:
            raise ConfigurationError(
                "crash_max_boundary must be >= 1, got"
                f" {self.crash_max_boundary}"
            )
        if self.journal_latency_ms < 0:
            raise ConfigurationError(
                f"negative journal latency {self.journal_latency_ms}"
            )
        if self.fail_disk_at_ms is not None and self.fail_disk_at_ms < 0:
            raise ConfigurationError(
                f"negative fault time {self.fail_disk_at_ms}"
            )
        if not 0 <= self.failed_disk < self.disks:
            raise ConfigurationError(f"bad failed disk {self.failed_disk}")
        _check_transient_rate(self.transient_io_rate)
        if self.restart_delay_ms < 0:
            raise ConfigurationError(
                f"negative restart delay {self.restart_delay_ms}"
            )
        if self.resync_rows < 1:
            raise ConfigurationError(
                f"need >= 1 resync row, got {self.resync_rows}"
            )
        if self.resync_parallel < 1:
            raise ConfigurationError("need >= 1 resync slot")
        if self.max_pre_samples < 1 or self.post_samples < 0:
            raise ConfigurationError("need positive sample bounds")
        _access_units(self.size_kb)


@dataclass(frozen=True)
class NemesisTrialSpec:
    """One composed-fault nemesis trial (``repro nemesis``).

    The schedule is not stored in the spec — it is re-drawn from
    :func:`trial_stream_root` (the campaign trial-stream convention)
    with the ``max_*`` envelope below, so the spec stays a flat record
    of JSON scalars and a failing trial reproduces from its index alone.
    Every trial runs with the integrity oracle attached; there is no
    knob to turn it off — the silent-corruption invariant *is* the
    experiment.

    >>> spec = NemesisTrialSpec(layout="pddl", trial=7)
    >>> spec_hash(spec) == spec_hash(NemesisTrialSpec(layout="pddl",
    ...                                               trial=7))
    True
    """

    kind: ClassVar[str] = "nemesis-trial"

    layout: str
    disks: int = 13
    width: Optional[int] = None
    trial: int = 0
    seed: int = 0
    # Schedule envelope (see NemesisSchedule.draw).
    horizon_ms: float = 20000.0
    max_disk_failures: int = 2
    max_crashes: int = 2
    max_lse_bursts: int = 2
    max_storms: int = 1
    max_scrub_windows: int = 1
    storm_rate: float = 0.02
    # Workload and repair knobs (lifecycle/crash-trial conventions).
    clients: int = 2
    size_kb: int = 8
    is_write: bool = True
    rows: int = 26
    degraded_dwell_ms: float = 1500.0
    rebuild_parallel: int = 1
    journal: bool = True
    journal_latency_ms: float = 0.05
    scrub_interval_ms: Optional[float] = 400.0
    scrub_throttle_ms: float = 0.0
    restart_delay_ms: float = 10.0
    max_samples: int = 240
    # Post-v1 (hash-omitted at defaults, see _V1_SPEC_OPTIONAL):
    # ambient transient errors, up-front seeded latent sector errors,
    # and fail-slow (gray failure) windows in the drawn schedule.
    transient_io_rate: float = 0.0
    lse_per_gb: float = 0.0
    max_failslow: int = 0
    failslow_multiplier: float = 5.0
    # Post-v1: corruption-burst windows in the drawn schedule, plus the
    # checksum defense (validation + parity-audit scrub) against them.
    max_corruption_bursts: int = 0
    corruption_rate: float = 0.05
    checksums: bool = False

    def __post_init__(self):
        if self.trial < 0:
            raise ConfigurationError(f"negative trial index {self.trial}")
        if self.clients < 0:
            raise ConfigurationError(
                f"negative client count {self.clients}"
            )
        if self.max_samples < 1:
            raise ConfigurationError("need >= 1 sample")
        _check_rebuild(
            self.degraded_dwell_ms, self.rows, self.rebuild_parallel
        )
        _check_transient_rate(self.transient_io_rate)
        if self.restart_delay_ms < 0:
            raise ConfigurationError(
                f"negative restart delay {self.restart_delay_ms}"
            )
        _access_units(self.size_kb)
        # Envelope validation (ranges, rates, windows) lives in
        # NemesisSchedule.draw/validate; draw the schedule now so bad
        # specs fail at construction, not mid-campaign in a worker.
        self.schedule()

    def schedule(self):
        """The :class:`~repro.faults.nemesis.NemesisSchedule` this encodes."""
        from repro.faults.nemesis import NemesisSchedule

        return NemesisSchedule.draw(
            seed=trial_stream_root(self.seed, self.trial),
            n_disks=self.disks,
            rows=self.rows,
            horizon_ms=self.horizon_ms,
            max_disk_failures=self.max_disk_failures,
            max_crashes=self.max_crashes,
            max_lse_bursts=self.max_lse_bursts,
            max_storms=self.max_storms,
            max_scrub_windows=self.max_scrub_windows,
            storm_rate=self.storm_rate,
            max_failslow=self.max_failslow,
            failslow_multiplier=self.failslow_multiplier,
            max_corruption_bursts=self.max_corruption_bursts,
            corruption_rate=self.corruption_rate,
        )


@dataclass(frozen=True)
class OpenLoopSpec:
    """One open-loop traffic trial (``repro traffic``).

    Seeded arrivals (Poisson / bursty MMPP / diurnal trace) are offered
    to the array through a bounded admission queue; the trial measures
    the offer-to-completion tail (p99/p999/max), SLO time-in-violation,
    shed counts, and the overload detector's verdict.  ``phase`` picks
    the array state the traffic sees: fault-free, degraded (rebuild not
    started), or mid-rebuild.  Whole-new kind, so no
    ``_V1_SPEC_OPTIONAL`` entry is needed: there are no pre-existing
    hashes to preserve.

    >>> spec = OpenLoopSpec(layout="pddl", rate_per_s=400.0)
    >>> spec_hash(spec) == spec_hash(OpenLoopSpec(layout="pddl",
    ...                                           rate_per_s=400.0))
    True
    """

    kind: ClassVar[str] = "openloop"

    layout: str
    rate_per_s: float = 300.0
    arrival: str = "poisson"
    phase: str = "ff"
    arrivals: int = 300
    seed: int = 0
    disks: int = 13
    width: Optional[int] = None
    size_kb: int = 8
    is_write: bool = False
    # Arrival-model shape knobs (MMPP / trace only).
    burst_ratio: float = 6.0
    burst_fraction: float = 0.15
    burst_dwell_ms: float = 120.0
    trace_period_ms: float = 600.0
    # Fault machinery (non-``ff`` phases).
    failed_disk: int = 0
    degraded_dwell_ms: float = 40.0
    rebuild_parallel: int = 1
    rebuild_throttle_ms: float = 4.0
    # Admission and SLO accounting.
    queue_depth: int = 64
    service_slots: int = 12
    slo_p99_ms: float = 120.0
    slo_p999_ms: float = 250.0
    window_ms: float = 100.0
    overload_windows: int = 3
    horizon_ms: float = 30000.0
    timelines: bool = False

    def __post_init__(self):
        # Phase / arrival-model / queue / SLO validation lives with the
        # traffic machinery; exercise the constructors now so bad specs
        # fail at construction, not mid-sweep in a worker.
        from repro.experiments.openloop import ARRIVALS, PHASES
        from repro.traffic.sla import SloPolicy

        if self.phase not in PHASES:
            raise ConfigurationError(
                f"phase must be one of {PHASES}, got {self.phase!r}"
            )
        if self.arrival not in ARRIVALS:
            raise ConfigurationError(
                f"arrival model must be one of {ARRIVALS},"
                f" got {self.arrival!r}"
            )
        _check_open_loop(self)
        _check_rebuild(
            self.degraded_dwell_ms,
            None,
            self.rebuild_parallel,
            self.rebuild_throttle_ms,
        )
        if self.window_ms <= 0 or self.overload_windows < 1:
            raise ConfigurationError("need positive detection windows")
        _access_units(self.size_kb)
        SloPolicy(p99_ms=self.slo_p99_ms, p999_ms=self.slo_p999_ms)


@dataclass(frozen=True)
class FailSlowTrialSpec:
    """One fail-slow defense trial (``repro failslow``).

    Open-loop Poisson traffic hits an array that is rebuilding one
    failed disk while a *different* disk serves every operation
    ``slow_multiplier`` x slower (the gray failure).  ``defense``
    switches the tail-tolerance mechanisms: ``none``, ``hedge`` (hedged
    degraded-reads plus the slow-disk detector), ``adaptive``
    (SLO-feedback AIMD rebuild throttling), or ``both``.  Whole-new
    kind, so no ``_V1_SPEC_OPTIONAL`` entry is needed: there are no
    pre-existing hashes to preserve.

    >>> spec = FailSlowTrialSpec(layout="pddl", defense="hedge")
    >>> spec_hash(spec) == spec_hash(FailSlowTrialSpec(layout="pddl",
    ...                                                defense="hedge"))
    True
    """

    kind: ClassVar[str] = "failslow"

    layout: str
    defense: str = "none"
    rate_per_s: float = 40.0
    arrivals: int = 1000
    seed: int = 2
    disks: int = 13
    width: Optional[int] = None
    size_kb: int = 8
    # The gray failure and the scripted fault.
    failed_disk: int = 0
    slow_disk: int = 1
    slow_multiplier: float = 5.0
    degraded_dwell_ms: float = 40.0
    # Rebuild pacing (the static baseline the AIMD throttle replaces).
    rebuild_rows: Optional[int] = 300
    rebuild_parallel: int = 4
    rebuild_throttle_ms: float = 16.0
    # Defense knobs.
    hedge_deferral_ms: float = 30.0
    adaptive_max_ms: float = 512.0
    # Admission and SLO accounting.
    queue_depth: int = 64
    service_slots: int = 12
    slo_p99_ms: float = 250.0
    slo_p999_ms: float = 1500.0
    window_ms: float = 100.0
    horizon_ms: float = 120000.0

    def __post_init__(self):
        # Exercise the SLO policy constructor now so bad specs fail at
        # construction, not mid-sweep in a worker.
        from repro.experiments.failslow import DEFENSES
        from repro.traffic.sla import SloPolicy

        if self.defense not in DEFENSES:
            raise ConfigurationError(
                f"defense must be one of {DEFENSES},"
                f" got {self.defense!r}"
            )
        _check_open_loop(self)
        if not 0 <= self.slow_disk < self.disks:
            raise ConfigurationError(f"bad slow disk {self.slow_disk}")
        if self.slow_disk == self.failed_disk:
            raise ConfigurationError(
                "the fail-slow disk must differ from the failed disk,"
                f" both are {self.slow_disk}"
            )
        if self.slow_multiplier <= 1.0:
            raise ConfigurationError(
                f"fail-slow multiplier must exceed 1.0,"
                f" got {self.slow_multiplier}"
            )
        _check_rebuild(
            self.degraded_dwell_ms,
            self.rebuild_rows,
            self.rebuild_parallel,
            self.rebuild_throttle_ms,
        )
        if self.adaptive_max_ms < 0:
            raise ConfigurationError(
                f"negative adaptive throttle cap {self.adaptive_max_ms}"
            )
        if self.hedge_deferral_ms <= 0:
            raise ConfigurationError(
                "hedge deferral must be positive, got"
                f" {self.hedge_deferral_ms}"
            )
        if self.window_ms <= 0:
            raise ConfigurationError(
                f"window must be positive, got {self.window_ms}"
            )
        _access_units(self.size_kb)
        SloPolicy(p99_ms=self.slo_p99_ms, p999_ms=self.slo_p999_ms)


@dataclass(frozen=True)
class CorruptionTrialSpec:
    """One silent-corruption defense trial (``repro corruption``).

    Open-loop Poisson traffic over a small, re-read working set while a
    seeded :class:`~repro.faults.corruption.CorruptionModel` loses and
    misdirects writes.  ``defense`` switches the protection stack one
    layer at a time: ``none``, ``checksum`` (per-unit checksum+version
    validation on every read path), ``verify`` (checksum plus read-back
    after write), or ``audit`` (checksum plus the parity-audit scrub).
    Whole-new kind, so no ``_V1_SPEC_OPTIONAL`` entry is needed: there
    are no pre-existing hashes to preserve.

    >>> spec = CorruptionTrialSpec(layout="pddl", defense="checksum")
    >>> spec_hash(spec) == spec_hash(CorruptionTrialSpec(
    ...     layout="pddl", defense="checksum"))
    True
    """

    kind: ClassVar[str] = "corruption"

    layout: str
    defense: str = "none"
    trial: int = 0
    seed: int = 0
    # The corruption fault model (per-write draw rates, Poisson rot).
    lost_rate: float = 0.02
    misdirected_rate: float = 0.01
    bitrot_cells: float = 0.0
    # Open-loop workload over the re-read working set.
    rate_per_s: float = 60.0
    arrivals: int = 300
    read_fraction: float = 0.5
    span_units: int = 64
    size_kb: int = 8
    disks: int = 13
    width: Optional[int] = None
    # Optional mid-trial disk failure; the array stays degraded.
    fail_at_ms: Optional[float] = None
    failed_disk: int = 0
    # Defense knobs.
    checksum_latency_ms: float = 0.02
    scrub_interval_ms: float = 120.0
    # Admission geometry and the runaway backstop.
    queue_depth: int = 64
    service_slots: int = 12
    horizon_ms: float = 60000.0

    def __post_init__(self):
        from repro.experiments.corruption import DEFENSES

        if self.defense not in DEFENSES:
            raise ConfigurationError(
                f"defense must be one of {DEFENSES},"
                f" got {self.defense!r}"
            )
        if self.trial < 0:
            raise ConfigurationError(f"negative trial index {self.trial}")
        for name, rate in (
            ("lost_rate", self.lost_rate),
            ("misdirected_rate", self.misdirected_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {rate}"
                )
        if self.bitrot_cells < 0:
            raise ConfigurationError(
                f"negative bitrot_cells {self.bitrot_cells}"
            )
        _check_open_loop(self)
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError(
                f"read fraction must be in [0, 1],"
                f" got {self.read_fraction}"
            )
        if self.span_units < _access_units(self.size_kb):
            raise ConfigurationError(
                f"a span of {self.span_units} units cannot hold one"
                f" {self.size_kb} KB access"
            )
        if self.fail_at_ms is not None and self.fail_at_ms < 0:
            raise ConfigurationError(
                f"negative fault time {self.fail_at_ms}"
            )
        if self.checksum_latency_ms < 0:
            raise ConfigurationError(
                f"negative checksum latency {self.checksum_latency_ms}"
            )
        if self.scrub_interval_ms <= 0:
            raise ConfigurationError(
                f"scrub interval must be > 0, got {self.scrub_interval_ms}"
            )


Spec = Union[
    ExperimentSpec,
    Table1Spec,
    LifecycleSpec,
    CampaignTrialSpec,
    CrashTrialSpec,
    NemesisTrialSpec,
    OpenLoopSpec,
    FailSlowTrialSpec,
    CorruptionTrialSpec,
]

_SPEC_TYPES = {
    cls.kind: cls
    for cls in (
        ExperimentSpec,
        Table1Spec,
        LifecycleSpec,
        CampaignTrialSpec,
        CrashTrialSpec,
        NemesisTrialSpec,
        OpenLoopSpec,
        FailSlowTrialSpec,
        CorruptionTrialSpec,
    )
}


def spec_to_dict(spec: Spec) -> dict:
    """Flat JSON-able form, ``kind`` included.

    Post-v1 fields are omitted while at their inactive defaults so old
    specs keep their original hashes (see ``_V1_SPEC_OPTIONAL``).  Every
    field is a JSON scalar, so a shallow walk builds what
    ``dataclasses.asdict`` would, without its deep copy.
    """
    data = {f.name: getattr(spec, f.name) for f in fields(spec)}
    optional = _V1_SPEC_OPTIONAL.get(spec.kind)
    if optional:
        for name, default in optional.items():
            if data[name] == default:
                del data[name]
    data["kind"] = spec.kind
    return data


def spec_from_dict(data: dict) -> Spec:
    """Inverse of :func:`spec_to_dict` (used to replay cached sweeps)."""
    data = dict(data)
    kind = data.pop("kind")
    cls = _SPEC_TYPES.get(kind)
    if cls is None:
        raise ConfigurationError(f"unknown spec kind {kind!r}")
    names = {f.name for f in fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigurationError(f"unknown spec fields {sorted(unknown)}")
    return cls(**data)


def spec_hash(spec: Spec) -> str:
    """Stable content hash — the cache key."""
    payload = {"schema": SPEC_SCHEMA_VERSION}
    payload.update(spec_to_dict(spec))
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
