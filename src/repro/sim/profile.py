"""Whole-spec profiling harness (``repro profile``).

Wraps one :func:`~repro.runner.execute.execute_spec` run in
:mod:`cProfile` and reduces the result to the numbers that matter for
the simulator's hot path: end-to-end events/second and the top functions
by cumulative (or internal) time.  The report is JSON-able, so profiles
can be archived and diffed across optimization passes.

Caveat for absolute numbers: the profiler's tracing hook inflates
call-heavy code by roughly 2x, so events/second from a profiled run is
*not* comparable with the untraced wall clock of the repository
benchmark (``python -m benchmarks.perf``).  Use the profile for *where
the time goes*, the benchmark for *how fast it is*.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from dataclasses import dataclass
from typing import List, NamedTuple

from repro.errors import ConfigurationError
from repro.runner.execute import execute_spec
from repro.runner.spec import Spec, spec_to_dict

#: Valid ``sort`` arguments for :func:`profile_spec`.
SORT_KEYS = ("cumulative", "tottime")


class HotFunction(NamedTuple):
    """One row of the profile: a function and its aggregate costs."""

    function: str        # "path:lineno(name)", path shortened to the package
    calls: int           # primitive call count
    total_ms: float      # time inside the function itself (tottime)
    cumulative_ms: float  # time including callees (cumtime)


@dataclass(frozen=True)
class ProfileReport:
    """Profile of one spec execution."""

    spec: dict
    wall_ms: float
    events_processed: int
    events_per_second: float
    sort: str
    hot_functions: List[HotFunction]

    def to_dict(self) -> dict:
        """Flat JSON-able form."""
        return {
            "spec": self.spec,
            "wall_ms": self.wall_ms,
            "events_processed": self.events_processed,
            "events_per_second": self.events_per_second,
            "sort": self.sort,
            "hot_functions": [f._asdict() for f in self.hot_functions],
        }

    def render(self) -> str:
        """Aligned text table for terminal output."""
        lines = [
            f"profiled: {_spec_label(self.spec)}",
            f"wall: {self.wall_ms:.1f} ms,"
            f" {self.events_processed} engine events,"
            f" {self.events_per_second:.0f} ev/s (under profiler)",
            "",
            f"{'calls':>9}  {'tottime':>9}  {'cumtime':>9}"
            f"  function (sorted by {self.sort})",
        ]
        for row in self.hot_functions:
            lines.append(
                f"{row.calls:>9}  {row.total_ms:>8.1f}m"
                f"  {row.cumulative_ms:>8.1f}m  {row.function}"
            )
        return "\n".join(lines)


def _spec_label(spec_dict: dict) -> str:
    kind = spec_dict.get("kind", "?")
    layout = spec_dict.get("layout", "?")
    size = spec_dict.get("size_kb", "?")
    clients = spec_dict.get("clients", "?")
    return f"{kind}/{layout}/{size}KB/c{clients}"


def _short_path(path: str) -> str:
    """Shorten absolute source paths to start at the package root."""
    for marker in ("repro/", "site-packages/", "lib/python"):
        index = path.rfind(marker)
        if index >= 0:
            return path[index:]
    return path


def _hot_functions(
    profiler: cProfile.Profile, top: int, sort: str
) -> List[HotFunction]:
    stats = pstats.Stats(profiler)
    rows = []
    for (path, line, name), (cc, _nc, tt, ct, _callers) in (
        stats.stats.items()  # type: ignore[attr-defined]
    ):
        if path == "~":  # built-ins: show just the name
            function = name
        else:
            function = f"{_short_path(path)}:{line}({name})"
        rows.append(
            HotFunction(
                function=function,
                calls=cc,
                total_ms=tt * 1000.0,
                cumulative_ms=ct * 1000.0,
            )
        )
    key = (
        (lambda r: r.cumulative_ms)
        if sort == "cumulative"
        else (lambda r: r.total_ms)
    )
    rows.sort(key=key, reverse=True)
    return rows[:top]


@dataclass(frozen=True)
class ProfileDiff:
    """Per-function deltas between two profile reports.

    Built by :func:`diff_profiles` from the JSON forms (``to_dict`` or
    a report loaded back from ``--out``), so a profile archived last
    month diffs against a fresh run without re-profiling anything.
    """

    baseline_wall_ms: float
    candidate_wall_ms: float
    baseline_events_per_second: float
    candidate_events_per_second: float
    changed: List[dict]   # both sides; sorted by |cumulative delta|
    appeared: List[dict]  # hot in candidate only
    vanished: List[dict]  # hot in baseline only

    def to_dict(self) -> dict:
        return {
            "baseline_wall_ms": self.baseline_wall_ms,
            "candidate_wall_ms": self.candidate_wall_ms,
            "baseline_events_per_second": self.baseline_events_per_second,
            "candidate_events_per_second": self.candidate_events_per_second,
            "changed": self.changed,
            "appeared": self.appeared,
            "vanished": self.vanished,
        }

    def render(self) -> str:
        """Aligned text table for terminal output."""
        wall_delta = self.candidate_wall_ms - self.baseline_wall_ms
        lines = [
            f"wall: {self.baseline_wall_ms:.1f} ms ->"
            f" {self.candidate_wall_ms:.1f} ms ({wall_delta:+.1f} ms)",
            f"ev/s: {self.baseline_events_per_second:.0f} ->"
            f" {self.candidate_events_per_second:.0f} (under profiler)",
        ]
        if self.changed:
            lines += [
                "",
                f"{'cum delta':>10}  {'cum base':>9}  {'cum cand':>9}"
                "  function",
            ]
            for row in self.changed:
                lines.append(
                    f"{row['cumulative_delta_ms']:>+9.1f}m"
                    f"  {row['baseline_cumulative_ms']:>8.1f}m"
                    f"  {row['candidate_cumulative_ms']:>8.1f}m"
                    f"  {row['function']}"
                )
        for title, rows in (
            ("new hot functions:", self.appeared),
            ("no longer hot:", self.vanished),
        ):
            if rows:
                lines += ["", title]
                for row in rows:
                    lines.append(
                        f"  {row['cumulative_ms']:>8.1f}m  {row['function']}"
                    )
        return "\n".join(lines)


def diff_profiles(baseline: dict, candidate: dict) -> ProfileDiff:
    """Diff two profile reports (JSON dict form, as written by ``--out``).

    Functions present in both reports land in ``changed`` with their
    cumulative/tottime deltas; functions hot in only one side land in
    ``appeared``/``vanished``.  Both reports should profile the same
    spec for the deltas to mean anything, but that is not enforced —
    cross-spec diffs are occasionally useful and obviously so.
    """
    for name, report in (("baseline", baseline), ("candidate", candidate)):
        if "hot_functions" not in report:
            raise ConfigurationError(
                f"{name} is not a profile report (no hot_functions)"
            )
    base_by_fn = {
        row["function"]: row for row in baseline["hot_functions"]
    }
    cand_by_fn = {
        row["function"]: row for row in candidate["hot_functions"]
    }
    changed = []
    for function, cand in cand_by_fn.items():
        base = base_by_fn.get(function)
        if base is None:
            continue
        changed.append(
            {
                "function": function,
                "baseline_cumulative_ms": base["cumulative_ms"],
                "candidate_cumulative_ms": cand["cumulative_ms"],
                "cumulative_delta_ms": round(
                    cand["cumulative_ms"] - base["cumulative_ms"], 3
                ),
                "baseline_total_ms": base["total_ms"],
                "candidate_total_ms": cand["total_ms"],
                "total_delta_ms": round(
                    cand["total_ms"] - base["total_ms"], 3
                ),
                "baseline_calls": base["calls"],
                "candidate_calls": cand["calls"],
            }
        )
    changed.sort(
        key=lambda row: abs(row["cumulative_delta_ms"]), reverse=True
    )
    appeared = [
        row for fn, row in cand_by_fn.items() if fn not in base_by_fn
    ]
    vanished = [
        row for fn, row in base_by_fn.items() if fn not in cand_by_fn
    ]
    appeared.sort(key=lambda row: row["cumulative_ms"], reverse=True)
    vanished.sort(key=lambda row: row["cumulative_ms"], reverse=True)
    return ProfileDiff(
        baseline_wall_ms=baseline.get("wall_ms", 0.0),
        candidate_wall_ms=candidate.get("wall_ms", 0.0),
        baseline_events_per_second=baseline.get("events_per_second", 0.0),
        candidate_events_per_second=candidate.get("events_per_second", 0.0),
        changed=changed,
        appeared=appeared,
        vanished=vanished,
    )


def profile_spec(
    spec: Spec, top: int = 15, sort: str = "cumulative"
) -> ProfileReport:
    """Execute ``spec`` under cProfile and distill the hot functions.

    ``sort`` is "cumulative" (time including callees — where the run
    went) or "tottime" (time inside each function — what to optimize).
    """
    if sort not in SORT_KEYS:
        raise ConfigurationError(
            f"sort must be one of {SORT_KEYS}, got {sort!r}"
        )
    if top < 1:
        raise ConfigurationError(f"need top >= 1, got {top}")
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        record = execute_spec(spec)
    finally:
        profiler.disable()
    wall_s = time.perf_counter() - started
    # Table 1 search specs run no simulation engine: count 0 events.
    engine = record.get("instrumentation", {}).get("engine", {})
    events = engine.get("events_processed", 0)
    return ProfileReport(
        spec=spec_to_dict(spec),
        wall_ms=wall_s * 1000.0,
        events_processed=events,
        events_per_second=events / wall_s if wall_s > 0 else 0.0,
        sort=sort,
        hot_functions=_hot_functions(profiler, top, sort),
    )
