"""Fail-slow (gray failure) fault model: a disk that degrades, not dies.

Every other fault in the repo is fail-stop — the disk either serves at
full speed or not at all.  Real arrays mostly see the other thing: a
spindle that silently falls to a fraction of its service rate (media
retries, firmware recalibration storms, vibration) while still
completing every request.  :class:`FailSlowModel` attaches to one
:class:`~repro.disk.drive.DiskDrive` (like ``TransientErrorModel``) and
inflates the mechanical service-time components of each operation by a
constant multiplier from a scripted onset.

Determinism contract, matching the other optional fault hooks:

- a drive with no model attached (the default) is byte-identical to one
  that never imported this module;
- an attached model draws no randomness — the per-service multiplier is
  a pure function of the simulated clock;
- before onset the multiplier is exactly 1.0 and the drive's arithmetic
  is untouched.  The episode ends when the owner detaches the model.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class FailSlowModel:
    """Per-spindle service-time inflation from a scripted onset.

    ``multiplier`` (>= 1.0) inflates every operation that starts at or
    after ``onset_ms``.

    >>> model = FailSlowModel(5.0, onset_ms=100.0)
    >>> model.multiplier_at(50.0), model.multiplier_at(150.0)
    (1.0, 5.0)
    """

    def __init__(self, multiplier: float, onset_ms: float = 0.0):
        if multiplier < 1.0:
            raise ConfigurationError(
                f"fail-slow multiplier must be >= 1.0, got {multiplier}"
            )
        if onset_ms < 0:
            raise ConfigurationError(
                f"fail-slow onset must be >= 0, got {onset_ms}"
            )
        self.multiplier = multiplier
        self.onset_ms = onset_ms
        #: Operations whose service time was actually inflated.
        self.applications = 0

    def multiplier_at(self, now_ms: float) -> float:
        """The inflation factor for an operation starting at ``now_ms``.

        Pure function of the clock — no randomness, no state mutation —
        so serial and worker execution see identical service times.
        """
        return self.multiplier if now_ms >= self.onset_ms else 1.0

    def scale(self, now_ms: float) -> float:
        """``multiplier_at`` plus application accounting (drive hook)."""
        m = self.multiplier_at(now_ms)
        if m != 1.0:
            self.applications += 1
        return m

    def report(self) -> dict:
        """JSON-able summary for trial records (committed baselines
        carry the ``profile`` key)."""
        return {
            "multiplier": self.multiplier,
            "onset_ms": self.onset_ms,
            "profile": "constant",
            "applications": self.applications,
        }

    def __repr__(self) -> str:
        return (
            f"FailSlowModel(x{self.multiplier:g} constant"
            f" @{self.onset_ms:g}ms)"
        )
