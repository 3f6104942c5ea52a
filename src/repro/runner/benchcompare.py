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

#: Bench kinds with committed baselines (BENCH_<kind>.json at the root).
KNOWN_BENCHES = (
    "campaign",
    "corruption",
    "crash",
    "failslow",
    "lifecycle",
    "nemesis",
    "traffic",
)

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


def _check_provenance(report: dict, problems: List[str]) -> None:
    provenance = report.get("provenance")
    if provenance is None:
        problems.append(f"{report['bench']} report lacks a provenance block")
    elif "sweep_hash" not in provenance:
        problems.append("provenance block lacks sweep_hash")


def _check_admission(label: str, trial: dict, problems: List[str]) -> None:
    """Every offered arrival was either completed or shed."""
    if trial["completed"] + trial["shed"] != trial["offered"]:
        problems.append(
            f"{label}: completed {trial['completed']} + shed"
            f" {trial['shed']} != offered {trial['offered']}"
        )


def _check_tail_order(label: str, tail: dict, problems: List[str]) -> None:
    if tail["count"]:
        ordered = (
            tail["p50_ms"]
            <= tail["p99_ms"]
            <= tail["p999_ms"]
            <= tail["max_ms"] * 1.05  # bucketed p999 vs exact max
        )
        if not ordered:
            problems.append(f"{label}: tail percentiles out of order")


def _check_campaign(report: dict, problems: List[str]) -> None:
    summary = report["summary"]
    trials = summary["trials"]
    if not 0 <= summary["losses"] <= trials:
        problems.append(f"losses {summary['losses']} outside [0, {trials}]")
    if not 0.0 <= summary["loss_probability"] <= 1.0:
        problems.append(
            f"loss probability {summary['loss_probability']} outside [0, 1]"
        )
    if not summary["ci_low"] <= summary["loss_probability"] <= summary["ci_high"]:
        problems.append(
            f"CI [{summary['ci_low']}, {summary['ci_high']}] does not"
            f" bracket the estimate {summary['loss_probability']}"
        )
    oracle = report.get("oracle")
    if oracle is not None and oracle["corruption_events"] != 0:
        problems.append(
            f"{oracle['corruption_events']} silent corruption event(s)"
        )


def _check_crash(report: dict, problems: List[str]) -> None:
    summary = report["summary"]
    if summary["corruption_events"] != 0:
        problems.append(
            f"{summary['corruption_events']} silent corruption event(s)"
        )
    if summary["resync_speedup"] <= 1.0:
        problems.append(
            "journaled resync no faster than the full sweep"
            f" (speedup {summary['resync_speedup']})"
        )
    for trial in report["trials"]:
        if trial["corruption_events"] != 0:
            problems.append(
                f"trial {trial['layout']}/{trial['clients']} clients has"
                f" {trial['corruption_events']} corruption event(s)"
            )


def _check_nemesis(report: dict, problems: List[str]) -> None:
    summary = report["summary"]
    if summary["silent_corruption"] != 0:
        problems.append(
            f"{summary['silent_corruption']} SILENT_CORRUPTION trial(s):"
            f" {summary['failing_trials']}"
        )
    if summary["corruption_events"] != 0:
        problems.append(
            f"{summary['corruption_events']} oracle corruption event(s)"
        )
    counted = (
        summary["survived"]
        + summary["data_loss"]
        + summary["silent_corruption"]
    )
    if counted != summary["trials"]:
        problems.append(
            f"outcomes sum to {counted}, not {summary['trials']}"
        )


def _check_lifecycle(report: dict, problems: List[str]) -> None:
    if not report["runs"]:
        problems.append("no lifecycle runs recorded")


def _check_traffic(report: dict, problems: List[str]) -> None:
    summary = report["summary"]
    trials = report["trials"]
    overloaded = sum(1 for t in trials if t["overloaded"])
    if overloaded != summary["overloaded_trials"]:
        problems.append(
            f"summary says {summary['overloaded_trials']} overloaded"
            f" trial(s) but the trials show {overloaded}"
        )
    for trial in trials:
        label = f"{trial['layout']}/{trial['phase']}@{trial['rate_per_s']}"
        _check_admission(label, trial, problems)
        _check_tail_order(label, trial["tail"], problems)


def _check_failslow(report: dict, problems: List[str]) -> None:
    summary = report["summary"]
    trials = report["trials"]
    for trial in trials:
        label = f"{trial['layout']}/{trial['defense']}"
        _check_admission(label, trial, problems)
        _check_tail_order(label, trial["tail"], problems)
        hedging = trial.get("hedging")
        if trial["defense"] in ("hedge", "both"):
            if hedging is None:
                problems.append(f"{label}: hedging defense lacks counters")
            elif hedging["won"] + hedging["lost"] > hedging["launched"]:
                problems.append(
                    f"{label}: hedge wins {hedging['won']} + losses"
                    f" {hedging['lost']} exceed launches"
                    f" {hedging['launched']}"
                )
        elif hedging is not None:
            problems.append(
                f"{label}: hedge counters on a non-hedging defense"
            )
    for layout, entry in summary.get("hedging", {}).items():
        launched, won = entry["launched"], entry["won"]
        if won > launched:
            problems.append(
                f"summary.hedging.{layout}: {won} wins from"
                f" {launched} launches"
            )
        rate = entry["win_rate"]
        if launched and (rate is None or not 0.0 <= rate <= 1.0):
            problems.append(
                f"summary.hedging.{layout}: win rate {rate} outside [0, 1]"
            )


def _check_corruption(report: dict, problems: List[str]) -> None:
    summary = report["summary"]
    trials = report["trials"]
    # The defense invariant the whole bench exists to assert: no
    # checksummed tier ever serves corrupt data as good.
    if summary["defended_silent_total"] != 0:
        problems.append(
            f"{summary['defended_silent_total']} silent corruption"
            " event(s) served by defended tiers"
        )
    for defense, count in summary["silent_by_defense"].items():
        if defense != "none" and count != 0:
            problems.append(
                f"defense {defense!r} served {count} silent"
                " corruption event(s)"
            )
    for trial in trials:
        label = f"{trial['layout']}/{trial['defense']}#{trial['trial']}"
        _check_admission(label, trial, problems)
        ledger = trial["corruption"]
        if ledger["silent_total"] != sum(ledger["silent"].values()):
            problems.append(
                f"{label}: silent_total {ledger['silent_total']}"
                " is not the sum of the per-kind silent ledger"
            )
        if trial["defense"] != "none":
            if ledger["silent_total"] != 0:
                problems.append(
                    f"{label}: defended trial served"
                    f" {ledger['silent_total']} silent corruption"
                    " event(s)"
                )
            if trial["classification"] == "silent_corruption":
                problems.append(
                    f"{label}: defended trial classified"
                    " silent_corruption"
                )


_CHECKERS = {
    "campaign": _check_campaign,
    "corruption": _check_corruption,
    "crash": _check_crash,
    "nemesis": _check_nemesis,
    "lifecycle": _check_lifecycle,
    "traffic": _check_traffic,
    "failslow": _check_failslow,
}


def check_invariants(report: dict) -> List[str]:
    """Internal-consistency problems of one report (empty = healthy)."""
    kind = report["bench"]
    checker = _CHECKERS.get(kind)
    if checker is None:
        return [f"unknown bench kind {kind!r}"]
    problems: List[str] = []
    try:
        if kind != "lifecycle":
            # Every other kind is a trial sweep: summary + trials, with
            # the provenance block that the compare mode's sweep-hash
            # stop relies on.
            claimed, recorded = report["summary"]["trials"], report["trials"]
            if claimed != len(recorded):
                problems.append(
                    f"summary says {claimed} trials but {len(recorded)}"
                    " are recorded"
                )
            _check_provenance(report, problems)
        checker(report, problems)
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
