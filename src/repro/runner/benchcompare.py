"""Bench-regression gate: compare ``BENCH_*.json`` reports across history.

Every simulated quantity in the committed baselines is deterministic —
same specs, same seeds, same event loop — so any difference between two
reports of the same sweep is a behaviour change, not noise, and CI can
gate on exact agreement of everything but the version stamp.

Two modes, both behind ``repro bench --compare``:

:func:`check_invariants`
    Self-check one report: internal consistency (counts add up, CIs
    bracket their estimate, trial-sweep reports carry provenance) plus
    the hard oracle invariants (zero corruption events, zero
    silent-corruption trials).  Run against the committed baselines in
    CI so a hand-edited or truncated report fails loudly.
:func:`compare_reports`
    Compare a candidate with a baseline of the same sweep: every path
    where the two differ (:func:`diff_reports`), ignoring only
    ``provenance.source_version``.  Each difference names both reports'
    version stamps, so it is attributable to the commit range between
    them.  This is what CI uses instead of ``cmp`` to check that a fresh
    run reproduces a committed baseline.
"""

from __future__ import annotations

import json
from typing import List, Optional

from repro.errors import RunnerError
from repro.experiments.sweep import sweep_for


def load_report(path: str) -> dict:
    """One ``BENCH_*.json`` report, or a clean error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except OSError as exc:
        raise RunnerError(f"cannot read bench report {path!r}: {exc}")
    except ValueError as exc:
        raise RunnerError(f"bench report {path!r} is not JSON: {exc}")
    if not isinstance(report, dict) or "bench" not in report:
        raise RunnerError(
            f"bench report {path!r} has no 'bench' discriminator"
        )
    return report


def _version(report: dict) -> str:
    return report.get("provenance", {}).get("source_version", "unversioned")


def check_invariants(report: dict) -> List[str]:
    """Internal-consistency problems of one report (empty = healthy):
    the checks its bench kind's sweep declares."""
    kind = report["bench"]
    sweep = sweep_for(kind)
    if sweep is None:
        return [f"unknown bench kind {kind!r}"]
    problems: List[str] = []
    try:
        sweep.check(report, problems)
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed {kind} report: missing {exc}")
    return problems


def _strip_provenance(report: dict) -> dict:
    """A copy with the repo-state-dependent version stamp removed."""
    clean = dict(report)
    provenance = clean.get("provenance")
    if isinstance(provenance, dict):
        provenance = dict(provenance)
        provenance.pop("source_version", None)
        clean["provenance"] = provenance
    return clean


def _walk_diff(a, b, path: str, out: List[str], limit: int) -> None:
    if len(out) >= limit:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            where = f"{path}.{key}" if path else key
            if key not in a:
                out.append(f"{where}: only in candidate")
            elif key not in b:
                out.append(f"{where}: only in baseline")
            else:
                _walk_diff(a[key], b[key], where, out, limit)
            if len(out) >= limit:
                return
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: {len(a)} vs {len(b)} entries")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _walk_diff(x, y, f"{path}[{i}]", out, limit)
            if len(out) >= limit:
                return
        return
    if a != b:
        out.append(f"{path}: {a!r} vs {b!r}")


def diff_reports(baseline: dict, candidate: dict, limit: int = 20) -> List[str]:
    """Paths where the reports differ, ignoring the version stamp."""
    out: List[str] = []
    _walk_diff(
        _strip_provenance(baseline),
        _strip_provenance(candidate),
        "",
        out,
        limit,
    )
    return out


def compare_reports(baseline: dict, candidate: dict) -> List[str]:
    """Differences between two reports of one sweep (empty = no change).

    A kind, config or sweep-hash mismatch is the one problem reported:
    the reports measured different sweeps, so their numbers are
    incomparable.  Otherwise each path where the reports differ
    (ignoring only the version stamp) is one line naming both versions.
    """
    if baseline["bench"] != candidate["bench"]:
        return [
            f"bench kinds differ: {baseline['bench']!r} vs"
            f" {candidate['bench']!r} — nothing to compare"
        ]
    if baseline.get("config") != candidate.get("config"):
        return ["configs differ — these reports measured different sweeps"]
    hashes = [
        report.get("provenance", {}).get("sweep_hash")
        for report in (baseline, candidate)
    ]
    if None not in hashes and hashes[0] != hashes[1]:
        return ["sweep hashes differ — these reports measured different sweeps"]
    versions = (
        f"(baseline {_version(baseline)}, candidate {_version(candidate)})"
    )
    return [
        f"{entry} {versions}" for entry in diff_reports(baseline, candidate)
    ]


def _load_checked(path: str, problems: List[str]) -> Optional[dict]:
    """One report, self-checked into ``problems``; None if unreadable.

    An unreadable file is one problem among many, not a hard stop:
    every failing report must surface in a single run.
    """
    try:
        report = load_report(path)
    except RunnerError as exc:
        problems.append(str(exc))
        return None
    for problem in check_invariants(report):
        problems.append(f"{path}: {problem}")
    return report


def run_compare(
    baseline_paths: List[str], candidate_path: Optional[str] = None
) -> List[str]:
    """The ``repro bench --compare`` engine; problem lines (empty = pass).

    With only baselines: invariant self-check of each report.  With a
    candidate: :func:`compare_reports` against the last baseline — by
    default ``BENCH_<kind>.json`` in the working directory, for the
    candidate's bench kind.  Either way every report read is also
    invariant-checked, so a truncated or hand-edited file never passes.
    """
    problems: List[str] = []
    reports = []
    for path in baseline_paths:
        report = _load_checked(path, problems)
        if report is not None:
            reports.append((path, report))
    if candidate_path is None:
        return problems
    candidate = _load_checked(candidate_path, problems)
    if candidate is None:
        return problems
    if not baseline_paths:
        default = f"BENCH_{candidate['bench']}.json"
        report = _load_checked(default, problems)
        if report is None:
            return problems
        reports.append((default, report))
    if not reports:
        problems.append(
            "no readable baseline to compare the candidate against"
        )
        return problems
    base_path, baseline = reports[-1]
    for entry in compare_reports(baseline, candidate):
        problems.append(f"{base_path} vs {candidate_path}: {entry}")
    return problems
