"""Capped exponential backoff shared by every retry loop in the repo.

Two retry loops grew the same arithmetic independently — the
controller's transient-error retries (milliseconds, simulated clock)
and the hardened worker pool's requeue path (seconds, wall clock).
Both sequences are pinned by regression tests and by byte-determinism
contracts (the controller's delays feed the event engine, so changing
them changes golden traces), so the helper must reproduce
``min(base * 2**(attempt-1), cap)`` exactly — same operation order,
same float semantics.
"""

from __future__ import annotations

__all__ = ["capped_exponential"]


def capped_exponential(attempt: int, base: float, cap: float) -> float:
    """Delay before retry ``attempt`` (1-indexed): ``base`` doubling per
    attempt, never exceeding ``cap``.

    Attempt 1 waits ``base``, attempt 2 waits ``2*base``, and so on;
    units are the caller's (the controller passes milliseconds, the
    worker pool seconds).  Callers validate ``attempt >= 1`` and
    ``0 <= base <= cap`` themselves — this helper is pure arithmetic on
    the hot retry path.
    """
    return min(base * (2 ** (attempt - 1)), cap)
