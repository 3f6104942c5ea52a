"""Seeded open-loop arrival processes.

Each process answers one question — "how long until the next request?" —
by drawing from a caller-owned :class:`random.Random`, so arrivals obey
the repository's named-stream discipline (``"{seed}/arrivals"`` and
friends) and every trial is a pure function of its spec: serial and
multi-worker runs stay byte-identical.

Three models, in increasing burstiness:

- :class:`PoissonArrivals` — memoryless constant-rate arrivals, the
  M/G/k baseline every queueing result is stated against;
- :class:`MMPPArrivals` — Markov-modulated Poisson: the rate switches
  between states (>= 2) with exponential dwell times, producing the
  correlated bursts real storage frontends see;
- :class:`TraceArrivals` — a deterministic piecewise-constant rate
  schedule (e.g. a compressed diurnal curve), cycling forever.

The state-switching processes use boundary restarts: a draw that would
cross into the next rate regime is truncated at the boundary and
redrawn at the new rate — exact for exponential inter-arrivals by
memorylessness, no thinning required.
"""

from __future__ import annotations

import abc
import random
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.sim.random import exponential_ms

#: Diurnal rate multipliers (mean 1.0): night trough, morning ramp,
#: midday peak, evening shoulder.  One full cycle spans the schedule's
#: period; offered load averages the nominal rate.
DIURNAL_MULTIPLIERS = (0.35, 0.75, 1.35, 1.9, 1.1, 0.55)


def _rate_to_mean_ms(rate_per_s: float) -> float:
    if rate_per_s <= 0:
        raise ConfigurationError(
            f"arrival rate must be positive, got {rate_per_s}"
        )
    return 1000.0 / rate_per_s


class ArrivalProcess(abc.ABC):
    """Produces successive inter-arrival delays, in ms."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    @abc.abstractmethod
    def next_delay_ms(self) -> float:
        """Delay from the previous arrival to the next one."""


class PoissonArrivals(ArrivalProcess):
    """Constant-rate memoryless arrivals.

    >>> p = PoissonArrivals(100.0, random.Random("x"))
    >>> p.next_delay_ms() >= 0.0
    True
    """

    def __init__(self, rate_per_s: float, rng: random.Random):
        super().__init__(rng)
        self.rate_per_s = rate_per_s
        self._mean_ms = _rate_to_mean_ms(rate_per_s)

    def next_delay_ms(self) -> float:
        return exponential_ms(self._mean_ms, self.rng)


class MMPPArrivals(ArrivalProcess):
    """Markov-modulated Poisson arrivals (>= 2 states).

    ``rates_per_s[i]`` is the arrival rate while in state ``i``;
    ``dwells_ms[i]`` the mean (exponential) time spent there before
    cycling to the next state.  :meth:`bursty` builds the canonical
    two-state low/high process from an offered mean rate.
    """

    def __init__(
        self,
        rates_per_s: Sequence[float],
        dwells_ms: Sequence[float],
        rng: random.Random,
    ):
        super().__init__(rng)
        if len(rates_per_s) < 2:
            raise ConfigurationError(
                f"MMPP needs >= 2 states, got {len(rates_per_s)}"
            )
        if len(dwells_ms) != len(rates_per_s):
            raise ConfigurationError(
                f"{len(rates_per_s)} rates but {len(dwells_ms)} dwells"
            )
        for dwell in dwells_ms:
            if dwell <= 0:
                raise ConfigurationError(
                    f"state dwell must be positive, got {dwell}"
                )
        self._means_ms = [_rate_to_mean_ms(r) for r in rates_per_s]
        self.dwells_ms = list(dwells_ms)
        self.state = 0
        self._until_switch = exponential_ms(self.dwells_ms[0], self.rng)

    @classmethod
    def bursty(
        cls,
        rate_per_s: float,
        burst_ratio: float,
        burst_fraction: float,
        dwell_ms: float,
        rng: random.Random,
    ) -> "MMPPArrivals":
        """Two-state low/high process averaging ``rate_per_s``.

        The high state runs ``burst_ratio`` times hotter than the low
        state and holds a ``burst_fraction`` share of time; dwell means
        are chosen so the stationary high-state fraction is exactly
        ``burst_fraction`` with a low-state mean dwell of ``dwell_ms``.
        """
        if burst_ratio < 1:
            raise ConfigurationError(
                f"burst ratio must be >= 1, got {burst_ratio}"
            )
        if not 0 < burst_fraction < 1:
            raise ConfigurationError(
                f"burst fraction must be in (0, 1), got {burst_fraction}"
            )
        low = rate_per_s / (1 - burst_fraction + burst_fraction * burst_ratio)
        high = low * burst_ratio
        high_dwell = dwell_ms * burst_fraction / (1 - burst_fraction)
        return cls([low, high], [dwell_ms, high_dwell], rng)

    def next_delay_ms(self) -> float:
        delay = 0.0
        while True:
            gap = exponential_ms(self._means_ms[self.state], self.rng)
            if gap <= self._until_switch:
                self._until_switch -= gap
                return delay + gap
            # The draw crossed a state boundary: advance to it and
            # redraw at the new rate (exact, by memorylessness).
            delay += self._until_switch
            self.state = (self.state + 1) % len(self._means_ms)
            self._until_switch = exponential_ms(
                self.dwells_ms[self.state], self.rng
            )


class TraceArrivals(ArrivalProcess):
    """Piecewise-constant rate schedule, cycling forever.

    ``schedule`` is ``[(duration_ms, rate_per_s), ...]``; arrivals in
    each segment are Poisson at that segment's rate, with boundary
    restarts at segment changes.
    """

    def __init__(
        self,
        schedule: Sequence[Tuple[float, float]],
        rng: random.Random,
    ):
        super().__init__(rng)
        if not schedule:
            raise ConfigurationError("empty trace schedule")
        self._means_ms: List[float] = []
        self._durations: List[float] = []
        for duration_ms, rate_per_s in schedule:
            if duration_ms <= 0:
                raise ConfigurationError(
                    f"segment duration must be positive, got {duration_ms}"
                )
            self._means_ms.append(_rate_to_mean_ms(rate_per_s))
            self._durations.append(duration_ms)
        self.segment = 0
        self._remaining = self._durations[0]

    @classmethod
    def diurnal(
        cls,
        rate_per_s: float,
        period_ms: float,
        rng: random.Random,
    ) -> "TraceArrivals":
        """A compressed day: :data:`DIURNAL_MULTIPLIERS` over ``period_ms``."""
        if period_ms <= 0:
            raise ConfigurationError(
                f"trace period must be positive, got {period_ms}"
            )
        segment_ms = period_ms / len(DIURNAL_MULTIPLIERS)
        return cls(
            [(segment_ms, rate_per_s * m) for m in DIURNAL_MULTIPLIERS],
            rng,
        )

    def next_delay_ms(self) -> float:
        delay = 0.0
        while True:
            gap = exponential_ms(self._means_ms[self.segment], self.rng)
            if gap <= self._remaining:
                self._remaining -= gap
                return delay + gap
            delay += self._remaining
            self.segment = (self.segment + 1) % len(self._means_ms)
            self._remaining = self._durations[self.segment]
