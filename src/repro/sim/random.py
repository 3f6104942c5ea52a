"""Named, independently seeded random streams and shared samplers.

Keeping each stochastic component (one stream per client, one for failures,
...) on its own generator makes experiments reproducible under configuration
changes: adding a client does not perturb the other clients' draws.

The samplers here are the single home for distribution draws used across
subsystems (latent-sector-error counts, open-loop inter-arrival times), so
every consumer shares one numerically vetted implementation.
"""

from __future__ import annotations

import math
import random
from typing import Dict

from repro.errors import ConfigurationError

#: Above this mean, ``exp(-lam)`` loses enough precision that the product
#: form of Knuth's method drifts (and underflows outright near lam ~ 745);
#: the log-space accumulation takes over.  Below it, the product form is
#: kept verbatim so historical seeded draws stay byte-identical.
_POISSON_PRODUCT_LIMIT = 500.0


def poisson_draw(lam: float, rng: random.Random) -> int:
    """One Poisson(lam) draw, numerically safe for arbitrary ``lam``.

    Knuth's product method, in two regimes sharing the same uniform-draw
    sequence: for small means the classic running product is compared
    against ``exp(-lam)`` (bit-for-bit the historical behaviour the
    media-error regression pins rely on); for large means the product
    would underflow, so the comparison moves to log space —
    ``sum(log u_i) > -lam`` — which consumes the identical number of
    draws without ever forming a subnormal.

    >>> poisson_draw(0.0, random.Random(1))
    0
    >>> poisson_draw(2.5, random.Random(7)) == poisson_draw(
    ...     2.5, random.Random(7))
    True
    """
    if lam < 0:
        raise ConfigurationError(f"negative Poisson rate {lam}")
    if lam == 0:
        return 0
    if lam <= _POISSON_PRODUCT_LIMIT:
        limit = math.exp(-lam)
        count = 0
        product = rng.random()
        while product > limit:
            count += 1
            product *= rng.random()
        return count
    count = 0
    total = math.log(rng.random())
    while total > -lam:
        count += 1
        total += math.log(rng.random())
    return count


def exponential_ms(mean_ms: float, rng: random.Random) -> float:
    """One exponential inter-arrival draw with the given mean, in ms.

    Inverse-CDF on ``1 - u`` so the half-open ``[0, 1)`` uniform can
    never reach ``log(0)``; the draw is always finite and non-negative.

    >>> exponential_ms(10.0, random.Random(3)) >= 0.0
    True
    """
    if mean_ms <= 0:
        raise ConfigurationError(
            f"exponential mean must be positive, got {mean_ms}"
        )
    return -mean_ms * math.log(1.0 - rng.random())


class RandomStreams:
    """A family of :class:`random.Random` instances keyed by name.

    >>> streams = RandomStreams(42)
    >>> a = streams.get("client-0").random()
    >>> b = RandomStreams(42).get("client-0").random()
    >>> a == b
    True
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(f"{self.seed}/{name}")
            self._streams[name] = stream
        return stream
