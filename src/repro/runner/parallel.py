"""The parallel experiment runner.

Fans a spec list across worker processes — always the pipe-based pool
of :mod:`repro.runner.workers`, so a failing worker surfaces as a
:class:`~repro.errors.RunnerError` naming its spec.  Determinism is
structural, not lucky: each spec carries its own seed and
:func:`repro.runner.execute.execute_spec` derives every RNG from it, so
a worker computes exactly what a serial loop would — result records are
byte-identical for any worker count (asserted by the determinism test
suite).  With a :class:`~repro.runner.cache.ResultCache` attached,
previously computed specs are served from disk and only the misses are
simulated; duplicate specs within one call are computed once.

Each simulated record goes into the cache the moment it lands, so a
killed run resumes from the cache where it stopped, with byte-identical
final records either way.  Long campaigns opt into hardening: a
per-spec ``timeout_s`` and crash/hang ``retries`` with capped
exponential backoff, which run every miss on the worker pool.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.runner.cache import ResultCache
from repro.runner.execute import execute_spec
from repro.runner.spec import Spec, spec_hash
from repro.runner.workers import run_hardened


def default_workers() -> int:
    """``$REPRO_BENCH_WORKERS`` (>= 1), else 1 (serial).

    An unparsable or non-positive value falls back to serial — loudly:
    silently dropping to one worker turns a typo into a mysterious 8x
    slowdown, so the bad value is named in a :class:`RuntimeWarning`.
    """
    raw = os.environ.get("REPRO_BENCH_WORKERS")
    if raw is None:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        warnings.warn(
            f"ignoring invalid REPRO_BENCH_WORKERS={raw!r}"
            " (need an integer >= 1); running serial",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1
    return workers


@dataclass
class RunReport:
    """What one :meth:`ParallelRunner.run` call did.

    ``records`` is in spec order; ``executed`` counts simulations
    actually run and ``cache_hits`` counts unique specs served from the
    cache (in-call duplicates resolve to the first occurrence and count
    as neither).
    """

    records: List[dict]
    executed: int
    cache_hits: int


class ParallelRunner:
    """Run experiment specs, possibly in parallel, possibly cached.

    ``workers=None`` reads ``$REPRO_BENCH_WORKERS`` (default serial).
    ``timeout_s``/``retries`` harden a run against crashed or wedged
    workers (see :mod:`repro.runner.workers`): with either set, every
    miss runs on the pool, even with one worker.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        timeout_s: Optional[float] = None,
        retries: int = 0,
    ):
        self.workers = default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise ConfigurationError(
                f"need >= 1 worker, got {self.workers}"
            )
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {timeout_s}")
        if retries < 0:
            raise ConfigurationError(f"negative retry budget {retries}")
        self.cache = cache
        self.timeout_s = timeout_s
        self.retries = retries

    def run(self, specs: Sequence[Spec]) -> RunReport:
        specs = list(specs)
        keys = [spec_hash(spec) for spec in specs]

        resolved: Dict[str, dict] = {}
        todo: List[tuple] = []  # (key, spec), unique, in first-seen order
        seen = set()
        cache_hits = 0
        for key, spec in zip(keys, specs):
            if key in seen:
                continue
            seen.add(key)
            if self.cache is not None:
                record = self.cache.get(key)
                if record is not None:
                    resolved[key] = record
                    cache_hits += 1
                    continue
            todo.append((key, spec))

        if todo:
            computed = self._execute(todo)
            for (key, _), record in zip(todo, computed):
                resolved[key] = record

        return RunReport(
            records=[resolved[key] for key in keys],
            executed=len(todo),
            cache_hits=cache_hits,
        )

    def _landed(self, record: dict) -> None:
        """Cache one simulated record the moment it lands, so a kill
        between specs (or a spec that raises) loses nothing already
        computed."""
        if self.cache is not None:
            self.cache.put(record["spec_hash"], record)

    def _execute(self, todo: List[tuple]) -> List[dict]:
        specs = [spec for _, spec in todo]
        hardened = self.timeout_s is not None or self.retries > 0
        if hardened or (self.workers > 1 and len(specs) > 1):
            return run_hardened(
                specs,
                workers=self.workers,
                timeout_s=self.timeout_s,
                retries=self.retries,
                on_record=self._landed,
            )
        computed = []
        for spec in specs:
            record = execute_spec(spec)
            self._landed(record)
            computed.append(record)
        return computed
