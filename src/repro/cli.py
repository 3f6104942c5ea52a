"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the experiment drivers, so every table and
figure of the paper can be regenerated from a shell:

- ``goals``      — the §1 goal matrix, machine-checked per layout
- ``figure3``    — disk working set sizes
- ``response``   — response-time points (Figures 5/6/8/9/...)
- ``seeks``      — seek/no-switch mixes (Figures 4/7/15/16)
- ``table1``     — satisfactory base permutation search
- ``table3``     — scheme implementation costs
- ``plan``       — PDDL capacity planning for an (n, k) array
- ``bench``      — parallel, cached response-time sweeps (see RUNNER.md)
- ``lifecycle``  — reconstruction-under-load lifecycle runs (Figs 8-14, 18)
- ``campaign``   — multi-fault reliability campaigns (loss probability,
  MTTDL cross-check; see EXPERIMENTS.md "Campaigns")
- ``crash``      — controller-crash trials: journaled vs full-sweep
  resync after a torn write (see EXPERIMENTS.md "Crash trials")
- ``nemesis``    — composed-fault campaigns under the integrity oracle
  (see EXPERIMENTS.md "Nemesis campaigns")
- ``traffic``    — open-loop offered-load sweeps with SLO/overload
  accounting (see EXPERIMENTS.md "Open-loop traffic")
- ``failslow``   — tail-tolerance defenses under a fail-slow disk
  mid-rebuild (see EXPERIMENTS.md "Fail-slow trials")
- ``corruption`` — silent-corruption defense tiers: checksums,
  write-verify, parity-audit scrub (see EXPERIMENTS.md
  "Corruption trials")

``bench --compare`` gates on the committed ``BENCH_*.json`` baselines:
invariant self-checks, and a ``--candidate`` report's exact agreement
with its ``--baseline`` apart from the provenance version stamp (see
RUNNER.md "The bench-regression gate").
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional, Tuple

from repro.errors import ReproError, RunnerError
from repro.runner import (
    ExperimentSpec,
    ParallelRunner,
    ResultCache,
    RunCheckpoint,
    RunReport,
    cells_from_records,
    curves_from_records,
    default_cache_dir,
    lifecycle_sweep_specs,
    rebuild_load_curves,
    response_sweep_specs,
    run_compare,
    sweep_provenance,
    table1_specs,
)
from repro.runner.spec import MODES as _MODES

DEFAULT_LAYOUTS = ["datum", "parity-declustering", "raid5", "pddl", "prime"]


def _write_report(path: str, payload: dict) -> None:
    """Write a JSON report, or fail with a clean CLI error.

    An unwritable ``--out`` (missing directory, permission, path through
    a regular file) must exit nonzero with one clear line, not a
    traceback — the runner may have just spent minutes simulating, and
    the user needs to know the results still live in the cache.
    """
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        raise RunnerError(
            f"cannot write report to {path!r}: {exc}"
            " (simulated results are preserved in the cache;"
            " rerun with a writable --out)"
        ) from None
    print(f"wrote {path}")


def _add_runner_flags(
    parser: argparse.ArgumentParser, out: Optional[str] = None
) -> None:
    """The runner flags every sweep command shares.

    A trial command passes its default report path as ``out`` and also
    gets the hardened-pool flags (``--timeout``, ``--retries``,
    ``--checkpoint``) and ``--out``; ``bench`` and ``lifecycle`` take
    only ``--workers``, ``--cache-dir`` and ``--no-cache``.
    """
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: $REPRO_BENCH_WORKERS or 1)",
    )
    if out is not None:
        parser.add_argument(
            "--timeout", type=float, default=None,
            help="per-trial deadline in seconds (enables the hardened pool)",
        )
        parser.add_argument(
            "--retries", type=int, default=0,
            help="crash/timeout retries per trial (capped exponential"
            " backoff)",
        )
        parser.add_argument(
            "--checkpoint", default=None,
            help="JSONL checkpoint file; a killed run resumes from it",
        )
    parser.add_argument(
        "--cache-dir", default=None,
        help="result cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument("--no-cache", action="store_true")
    if out is not None:
        parser.add_argument(
            "--out", default=out,
            help="JSON report path (deterministic content; '' to skip)",
        )


def _run(
    args: argparse.Namespace, specs: list
) -> Tuple[ParallelRunner, RunReport, float]:
    """Run ``specs`` on a runner built from the runner flags; returns
    the runner, its report and the wall-clock seconds the run took."""
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    # bench and lifecycle have no hardened-pool flags.
    checkpoint = getattr(args, "checkpoint", None)
    runner = ParallelRunner(
        workers=args.workers,
        cache=cache,
        timeout_s=getattr(args, "timeout", None),
        retries=getattr(args, "retries", 0),
        checkpoint=RunCheckpoint(checkpoint) if checkpoint else None,
    )
    started = time.perf_counter()
    report = runner.run(specs)
    return runner, report, time.perf_counter() - started


def _print_tally(
    runner: ParallelRunner, report: RunReport, elapsed: float
) -> None:
    """A trial command's closing lines: where each trial came from."""
    print(
        f"{len(report.records)} trials: {report.executed} simulated,"
        f" {report.cache_hits} from cache,"
        f" {report.checkpoint_hits} from checkpoint"
        f" ({runner.workers} workers, {elapsed:.2f}s)"
    )
    if runner.cache is not None:
        print(f"cache dir: {runner.cache.root}")


def _print_io_recovery(summary: dict) -> None:
    """One line of aggregate transient-recovery counters.

    Sweeps that never installed a retry or hedge policy have no
    ``io_recovery`` block and print nothing.
    """
    stats = summary.get("io_recovery")
    if not stats:
        return
    line = (
        f"  io-recovery: {stats.get('retries', 0)} retried,"
        f" {stats.get('escalated_reads', 0)} escalated,"
        f" {stats.get('repaired_sectors', 0)} sector(s) repaired"
        f" ({stats['trials_reporting']} trial(s) reporting)"
    )
    if "hedges_launched" in stats:
        line += (
            f"; hedges {stats.get('hedges_won', 0)}"
            f"/{stats['hedges_launched']} won"
        )
    print(line)


def _print_scrub(summary: dict) -> None:
    """Aggregate scrub repair/detection counters, when any trial
    scrubbed; a second line for the parity-audit counters when any
    trial audited."""
    scrub = summary.get("scrub")
    if not scrub:
        return
    print(
        f"  scrub: {scrub.get('passes_completed', 0)} pass(es),"
        f" {scrub.get('cells_read', 0)} cells read,"
        f" {scrub.get('found', 0)} latent error(s) found,"
        f" {scrub.get('repaired', 0)} repaired"
        f" ({scrub['trials_reporting']} trial(s) reporting)"
    )
    if "stripes_audited" in scrub:
        print(
            f"  parity audit: {scrub['stripes_audited']} stripe(s)"
            f" audited, {scrub.get('audit_mismatches', 0)} mismatch(es),"
            f" {scrub.get('audit_repairs', 0)} repaired,"
            f" {scrub.get('audit_unrepairable', 0)} unrepairable"
        )


def _cmd_goals(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_table
    from repro.layouts import make_layout
    from repro.layouts.properties import check_layout
    from repro.layouts.registry import DISPLAY_NAMES

    rows = []
    for name in args.layouts:
        k = args.disks if name in ("raid5", "raid-5") else args.width
        layout = make_layout(name, args.disks, k)
        met = set(check_layout(layout).goals_met())
        rows.append(
            [DISPLAY_NAMES.get(name, name)]
            + ["o" if g in met else "." for g in range(1, 9)]
        )
    print(render_table(["layout", *(f"#{g}" for g in range(1, 9))], rows))
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_working_set_table
    from repro.experiments.workingset import figure3_table

    table = figure3_table(
        sizes_kb=args.sizes, layout_names=tuple(args.layouts)
    )
    print(render_working_set_table(table, args.sizes))
    return 0


def _cmd_response(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_response_curves

    specs = [
        ExperimentSpec(
            layout=layout,
            size_kb=args.size,
            is_write=args.write,
            clients=c,
            mode=args.mode,
            seed=args.seed,
            max_samples=args.samples,
        )
        for layout in dict.fromkeys(args.layouts)  # one curve per layout
        for c in args.clients
    ]
    records = ParallelRunner(workers=1).run(specs).records
    print(render_response_curves(curves_from_records(records)[args.size]))
    return 0


def _cmd_seeks(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_seek_mix_table
    from repro.experiments.seeks import run_seek_mix

    mixes = run_seek_mix(
        args.layouts,
        args.sizes,
        args.write,
        mode=_MODES[args.mode],
        samples_per_point=args.samples,
    )
    print(render_seek_mix_table(mixes, args.sizes))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.core.tables import PAPER_TABLE1
    from repro.experiments.report import render_table

    specs = table1_specs(
        args.widths,
        args.stripes,
        restarts=args.restarts,
        max_steps=args.max_steps,
    )
    cells = cells_from_records(ParallelRunner(workers=1).run(specs).records)
    rows = []
    for g in args.stripes:
        row = [f"g={g}"]
        for k in args.widths:
            paper = PAPER_TABLE1.get((k, g))
            row.append(
                f"{cells[(k, g)].rendered()}|"
                f"{'?' if paper is None else paper}"
            )
        rows.append(row)
    print("ours | paper")
    print(render_table(["", *(f"k={k}" for k in args.widths)], rows))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.experiments.table3 import table3_rows

    for row in table3_rows(iterations=args.iterations).values():
        print(row.as_row())
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro import check_layout, pddl_for

    n, k = args.disks, args.width
    if (n - 1) % k != 0:
        print(f"error: {n} disks cannot host width-{k} stripes + 1 spare")
        return 2
    layout = pddl_for((n - 1) // k, k)
    print(layout.describe())
    for i, perm in enumerate(layout.group.permutations):
        print(f"permutation {i}: {perm.values}")
    print(f"goals met: {check_layout(layout).goals_met()}")
    print(
        f"capacity: data {1 - layout.parity_overhead - layout.spare_overhead:.1%},"
        f" parity {layout.parity_overhead:.1%},"
        f" spare {layout.spare_overhead:.1%}"
    )
    return 0


def _bench_compare(args: argparse.Namespace) -> int:
    """The ``bench --compare`` regression gate (no simulation)."""
    import glob

    # A lone --candidate picks its own kind's baseline in run_compare.
    baselines = args.baseline or (
        [] if args.candidate else sorted(glob.glob("BENCH_*.json"))
    )
    if not baselines and not args.candidate:
        print(
            "error: no BENCH_*.json reports here and no --baseline given",
            file=sys.stderr,
        )
        return 1
    problems = run_compare(baselines, candidate_path=args.candidate)
    if problems:
        for line in problems:
            print(f"bench-compare: {line}")
        print(f"bench-compare: FAIL ({len(problems)} problem(s))")
        return 1
    if args.candidate:
        print(f"bench-compare: OK ({args.candidate} matches its baseline)")
    else:
        print(f"bench-compare: OK ({len(baselines)} report(s), self-check)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_response_curves

    if args.compare or args.baseline or args.candidate:
        return _bench_compare(args)
    if args.quick:
        sizes, clients, samples = [8, 48], [1, 4], 40
    else:
        sizes, clients, samples = args.sizes, args.clients, args.samples
    specs = response_sweep_specs(
        sizes,
        clients,
        args.write,
        args.mode,
        samples,
        seed=args.seed,
        layouts=args.layouts,
    )
    runner, report, elapsed = _run(args, specs)

    kind = "writes" if args.write else "reads"
    for size_kb, curves in sorted(curves_from_records(report.records).items()):
        print()
        print(f"bench: {size_kb}KB {kind}, {args.mode}")
        print(render_response_curves(curves))

    events = sum(
        r["instrumentation"]["engine"]["events_processed"]
        for r in report.records
    )
    heap_high = max(
        r["instrumentation"]["engine"]["heap_high_water"]
        for r in report.records
    )
    queue_high = max(
        r["instrumentation"]["max_queue_high_water"] for r in report.records
    )
    print()
    print(
        f"instrumentation: {events} engine events,"
        f" heap high-water {heap_high},"
        f" per-disk queue high-water {queue_high}"
    )
    print(
        f"{len(specs)} points: {report.executed} simulated,"
        f" {report.cache_hits} from cache"
        f" ({runner.workers} workers, {elapsed:.2f}s)"
    )
    if runner.cache is not None:
        print(f"cache dir: {runner.cache.root}")
    return 0


def _cmd_lifecycle(args: argparse.Namespace) -> int:
    if args.quick:
        layouts = ["pddl", "parity-declustering"]
        clients = [4]
        rebuild_rows: Optional[int] = 26
        post_samples, max_samples = 40, 1500
        # A dwell window so degraded mode collects samples too.
        dwell = 300.0 if args.dwell == 0.0 else args.dwell
    else:
        layouts = args.layouts
        clients = args.clients
        rebuild_rows = args.rebuild_rows
        post_samples, max_samples = args.post_samples, args.samples
        dwell = args.dwell
    specs = lifecycle_sweep_specs(
        layouts,
        clients,
        size_kb=args.size,
        is_write=args.write,
        fault_time_ms=None if args.mttf is not None else args.fault_time,
        mttf_hours=args.mttf,
        degraded_dwell_ms=dwell,
        rebuild_rows=rebuild_rows,
        rebuild_parallel=args.rebuild_parallel,
        rebuild_throttle_ms=args.rebuild_throttle,
        post_samples=post_samples,
        max_samples=max_samples,
        seed=args.seed,
        disks=args.disks,
        oracle=args.oracle,
    )
    runner, report, elapsed = _run(args, specs)

    for record in report.records:
        life = record["lifecycle"]
        print()
        print(
            f"lifecycle: {life['layout']}, {life['spec_label']},"
            f" {life['clients']} clients"
            f" (fault on disk {life['fault_disk']}"
            f" at {life['fault_time_ms']:.0f} ms)"
        )
        for mode, t in life["transitions"]:
            print(f"  {t:10.1f} ms  -> {mode}")
        if life["rebuild_duration_ms"] is not None:
            print(
                f"  rebuild: {life['rebuild_steps']} steps"
                f" in {life['rebuild_duration_ms']:.1f} ms"
            )
        else:
            print(
                f"  rebuild: incomplete"
                f" ({life['rebuild_steps']}/{life['rebuild_total_steps']}"
                f" steps)"
            )
        for mode, mean in life["mode_means_ms"].items():
            n = record["histograms"][mode]["count"]
            print(f"  {mode:20s} n={n:<5d} mean={mean:8.2f} ms")
        if args.oracle:
            print(
                f"  oracle: {life['oracle']['corruption_events']}"
                " corruption event(s)"
            )

    print()
    for layout, curve in sorted(rebuild_load_curves(report.records).items()):
        rendered = ", ".join(
            f"{c} cl: {'--' if ms is None else f'{ms:.0f} ms'}"
            for c, ms in curve
        )
        print(f"rebuild vs load [{layout}]: {rendered}")
    print(
        f"{len(specs)} runs: {report.executed} simulated,"
        f" {report.cache_hits} from cache"
        f" ({runner.workers} workers, {elapsed:.2f}s)"
    )
    if runner.cache is not None:
        print(f"cache dir: {runner.cache.root}")

    if args.out:
        summary = {
            "bench": "lifecycle",
            "disks": args.disks,
            "runs": [
                {
                    "layout": life["layout"],
                    "clients": life["clients"],
                    "spec_label": life["spec_label"],
                    "complete": life["complete"],
                    "rebuild_duration_ms": life["rebuild_duration_ms"],
                    "mode_means_ms": life["mode_means_ms"],
                }
                for life in (r["lifecycle"] for r in report.records)
            ],
        }
        if args.oracle:
            summary["oracle"] = {
                "corruption_events": sum(
                    r["lifecycle"]["oracle"]["corruption_events"]
                    for r in report.records
                ),
            }
        _write_report(args.out, summary)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import campaign_specs, summarize_campaign

    if args.quick:
        trials = 24
        mttf = 0.03
        dwell = 4000.0
        rebuild_rows: Optional[int] = 26
    else:
        trials = args.trials
        mttf = args.mttf
        dwell = args.dwell
        rebuild_rows = args.rebuild_rows
    config = {
        "layout": args.layout,
        "disks": args.disks,
        "trials": trials,
        "faults": args.faults,
        "mttf_hours": mttf,
        "degraded_dwell_ms": dwell,
        "rebuild_rows": rebuild_rows,
        "lse_per_gb": args.lse_per_gb,
        "scrub_interval_ms": args.scrub_interval,
        "clients": args.clients,
        "seed": args.seed,
    }
    # New keys appear only when their features are on, so default
    # campaign reports stay byte-identical to pre-oracle builds.
    if args.oracle:
        config["oracle"] = True
    if args.transient_io_rate:
        config["transient_io_rate"] = args.transient_io_rate
    # The committed config block leaves the rebuild/scrub pacing out.
    specs = campaign_specs(
        rebuild_parallel=args.rebuild_parallel,
        rebuild_throttle_ms=args.rebuild_throttle,
        scrub_throttle_ms=args.scrub_throttle,
        **config,
    )
    runner, report, elapsed = _run(args, specs)

    trial_records = [r["trial"] for r in report.records]
    summary = summarize_campaign(trial_records)

    print(
        f"campaign: {args.layout}, {args.disks} disks,"
        f" {summary['trials']} trials, up to {args.faults} faults each"
        f" (MTTF {mttf} h, dwell {dwell:.0f} ms)"
    )
    print(
        f"  lost {summary['losses']}/{summary['trials']}"
        f" -> loss probability {summary['loss_probability']:.3f}"
        f" (95% CI [{summary['ci_low']:.3f}, {summary['ci_high']:.3f}])"
    )
    if summary["analytic"] is not None:
        analytic = summary["analytic"]
        verdict = "inside" if analytic["within_ci"] else "OUTSIDE"
        print(
            f"  analytic prediction {analytic['loss_probability']:.3f}"
            f" ({verdict} the CI;"
            f" exposure window {analytic['window_hours'] * 3600:.1f} s)"
        )
    if summary["empirical_mttdl_hours"] is not None:
        print(
            f"  empirical MTTDL {summary['empirical_mttdl_hours']:.4f} h"
            + (
                f" vs analytic {summary['analytic']['mttdl_hours']:.4f} h"
                if summary["analytic"] is not None
                else ""
            )
        )
    if args.oracle:
        corruption = sum(
            t["oracle"]["corruption_events"] for t in trial_records
        )
        print(
            f"  oracle: {corruption} silent corruption event(s)"
            f" across {summary['trials']} shadow-verified trials"
        )
    _print_io_recovery(summary)
    _print_scrub(summary)
    _print_tally(runner, report, elapsed)

    if args.out:
        # Deterministic payload (no wall-clock anywhere): the CI resume
        # job byte-compares this file across interrupted/uninterrupted
        # runs.
        payload = {
            "bench": "campaign",
            # Version stamp + sweep hash, so bench --compare attributes
            # a difference to a commit range (the comparison itself
            # ignores the version stamp).
            "provenance": sweep_provenance(specs),
            "config": config,
            "summary": summary,
            "trials": [
                {
                    "trial": t["trial"],
                    "classification": t["classification"],
                    "cycle_ms": t["cycle_ms"],
                    "lost_units": t["lost_units"],
                    "second_faults": len(t["second_faults"]),
                }
                for t in trial_records
            ],
        }
        if args.oracle:
            payload["oracle"] = {
                "corruption_events": sum(
                    t["oracle"]["corruption_events"] for t in trial_records
                ),
                "torn_writes": sum(
                    t["oracle"]["torn_writes"] for t in trial_records
                ),
            }
        _write_report(args.out, payload)
    return 0


def _cmd_crash(args: argparse.Namespace) -> int:
    from repro.experiments.crashtrial import crash_specs, summarize_crash

    if args.quick:
        layouts = ["pddl"]
        clients = [2, 4]
        pre_samples, post_samples = 80, 20
        # The boundary must land before the pre-crash budget runs out.
        boundary = 60
    else:
        layouts = args.layouts
        clients = args.clients
        pre_samples, post_samples = args.pre_samples, args.post_samples
        boundary = args.boundary
    config = {
        "layouts": layouts,
        "clients": clients,
        "disks": args.disks,
        "size_kb": args.size,
        "seed": args.seed,
        "crash_boundary": boundary,
        "journal_latency_ms": args.journal_latency,
        "resync_rows": args.resync_rows,
        "pre_samples": pre_samples,
        "post_samples": post_samples,
    }
    specs = crash_specs(**config)
    runner, report, elapsed = _run(args, specs)

    trial_records = [r["crash_trial"] for r in report.records]
    summary = summarize_crash(trial_records)

    for t in trial_records:
        journal = "journal" if t["journal"] else "full-sweep"
        resync = (
            "--"
            if t["resync_ms"] is None
            else f"{t['resync_ms']:8.1f} ms"
        )
        print(
            f"crash: {t['layout']}, {t['clients']} clients, {journal:10s}"
            f" -> {t['classification']:9s}"
            f" torn {len(t['crash']['torn_stripes']):2d}"
            f" resync {resync}"
            f" oracle {t['oracle']['corruption_events']}"
        )
    print()
    print(
        f"resync: journal {summary['journal_resync_ms']:.1f} ms"
        f" vs full sweep {summary['full_sweep_resync_ms']:.1f} ms"
        f" ({summary['resync_speedup']:.1f}x),"
        f" recomputed {summary['stripes_recomputed_journal']}"
        f" vs {summary['stripes_recomputed_full_sweep']} stripes"
    )
    print(
        f"oracle: {summary['corruption_events']} silent corruption"
        f" event(s), {summary['data_loss_trials']} declared data-loss"
        f" trial(s) in {summary['trials']} trials"
    )
    _print_tally(runner, report, elapsed)

    if args.out:
        # Deterministic payload (no wall-clock anywhere): CI byte-compares
        # a resumed run's file against the committed baseline.
        payload = {
            "bench": "crash",
            # Version stamp + sweep hash for bench --compare attribution
            # (the comparison itself ignores the version stamp).
            "provenance": sweep_provenance(specs),
            "config": config,
            "summary": summary,
            "trials": [
                {
                    "layout": t["layout"],
                    "clients": t["clients"],
                    "journal": t["journal"],
                    "classification": t["classification"],
                    "crashed_at_ms": t["crash"]["crashed_at_ms"],
                    "torn_stripes": len(t["crash"]["torn_stripes"]),
                    "resync_ms": t["resync_ms"],
                    "stripes_swept": (
                        None
                        if t["resync"] is None
                        else t["resync"]["stripes_swept"]
                    ),
                    "pre_mean_ms": t["pre"]["mean_ms"],
                    "post_mean_ms": t["post"]["mean_ms"],
                    "corruption_events": t["oracle"]["corruption_events"],
                }
                for t in trial_records
            ],
        }
        _write_report(args.out, payload)
    return 0


def _cmd_nemesis(args: argparse.Namespace) -> int:
    from repro.experiments.nemesistrial import (
        nemesis_specs,
        summarize_nemesis,
    )

    trials = 24 if args.quick else args.trials
    start = 0
    if args.trial is not None:
        # Replay exactly one schedule (the failing-seed repro path).
        trials, start = 1, args.trial
    config = {
        "layout": args.layout,
        "disks": args.disks,
        "trials": trials,
        "start": start,
        "seed": args.seed,
        "clients": args.clients,
        "rows": args.rows,
        "journal": not args.no_journal,
        "scrub_interval_ms": (
            args.scrub_interval if args.scrub_interval > 0 else None
        ),
        "max_samples": args.samples,
        "transient_io_rate": args.transient_io_rate,
        "lse_per_gb": args.lse_per_gb,
    }
    specs = nemesis_specs(**config)
    runner, report, elapsed = _run(args, specs)

    trial_records = [r["nemesis_trial"] for r in report.records]
    summary = summarize_nemesis(trial_records)

    print(
        f"nemesis: {args.layout}, {args.disks} disks,"
        f" {summary['trials']} composed-fault trial(s), oracle on"
    )
    print(
        f"  survived {summary['survived']},"
        f" data-loss {summary['data_loss']},"
        f" SILENT CORRUPTION {summary['silent_corruption']}"
    )
    applied = summary["events_applied"]
    print(
        "  faults applied: "
        + ", ".join(f"{k} x{v}" for k, v in applied.items())
    )
    if summary["events_skipped"]:
        print(
            "  skipped (legality): "
            + ", ".join(
                f"{k} x{v}" for k, v in summary["skip_reasons"].items()
            )
        )
    if summary["mean_resync_ms"] is not None:
        print(
            f"  {summary['crashes']} crash(es), mean resync"
            f" {summary['mean_resync_ms']:.1f} ms,"
            f" {summary['write_hole_stripes']} write-hole stripe(s)"
        )
    _print_io_recovery(summary)
    _print_scrub(summary)
    _print_tally(runner, report, elapsed)

    failing = summary["failing_trials"]
    if failing:
        # One self-contained repro command per failing schedule, for
        # the CI artifact and for running locally.
        lines = [
            f"python -m repro nemesis --layout {args.layout}"
            f" --disks {args.disks} --seed {args.seed}"
            f" --trial {t} --no-cache"
            for t in failing
        ]
        for line in lines:
            print(f"reproduce: {line}")
        if args.failures_out:
            _write_report(
                args.failures_out,
                {"failing_trials": failing, "commands": lines},
            )

    if args.out:
        # Deterministic payload modulo the provenance version stamp:
        # CI compares a fresh run against the committed baseline with
        # bench --compare.
        payload = {
            "bench": "nemesis",
            "provenance": sweep_provenance(specs),
            "config": config,
            "summary": summary,
            "trials": [
                {
                    "trial": t["trial"],
                    "classification": t["classification"],
                    "schedule_hash": t["schedule_hash"],
                    "events": [
                        {"kind": e["kind"], "outcome": e["outcome"]}
                        for e in t["events"]
                    ],
                    "crashes": len(t["crashes"]),
                    "lost_units": t["lost_units"],
                    "corruption_events": t["oracle"]["corruption_events"],
                    "samples": t["samples"],
                }
                for t in trial_records
            ],
        }
        _write_report(args.out, payload)
    return 1 if failing else 0


def _cmd_traffic(args: argparse.Namespace) -> int:
    from repro.experiments.openloop import (
        openloop_specs,
        summarize_openloop,
    )

    layouts = args.layouts
    rates = args.rates
    arrivals = args.arrivals
    if args.quick:
        layouts = ["raid5", "pddl"]
        rates = [350.0, 550.0]
        arrivals = 150
    config = {
        "layouts": list(layouts),
        "rates_per_s": list(rates),
        "phases": list(args.phases),
        "arrival": args.arrival,
        "arrivals": arrivals,
        "seed": args.seed,
        "disks": args.disks,
        "queue_depth": args.queue_depth,
        "service_slots": args.service_slots,
        "slo_p99_ms": args.slo_p99,
        "slo_p999_ms": args.slo_p999,
        "horizon_ms": args.horizon,
    }
    specs = openloop_specs(**config)
    runner, report, elapsed = _run(args, specs)

    trial_records = [r["openloop"] for r in report.records]
    summary = summarize_openloop(trial_records)

    print(
        f"traffic: {args.arrival} arrivals, {len(layouts)} layout(s) x"
        f" {len(rates)} offered load(s) x {len(args.phases)} phase(s),"
        f" {arrivals} arrivals/trial"
    )
    print(
        f"  overloaded {summary['overloaded_trials']}/{summary['trials']}"
        f" trial(s), SLO-violating {summary['slo_violated_trials']},"
        f" shed {summary['shed_total']} arrival(s)"
    )
    for layout in sorted(summary["knees"]):
        knees = summary["knees"][layout]
        rendered = ", ".join(
            f"{phase}: {'-' if rate is None else f'{rate:g}/s'}"
            for phase, rate in sorted(knees.items())
        )
        print(f"  knee[{layout}]  {rendered}")
    for entry in summary["divergence"]:
        print(
            f"  diverges: {entry['layout']} @ {entry['rate_per_s']:g}/s"
            f" — rebuild p999 {entry['rebuild_p999_ms']:.1f} ms"
            f" (ff {entry['ff_p999_ms']:.1f} ms,"
            f" {entry['rebuild_shed']} shed)"
        )
    _print_io_recovery(summary)
    _print_tally(runner, report, elapsed)

    if args.out:
        # Deterministic payload modulo the provenance version stamp:
        # CI compares a fresh run against the committed baseline with
        # bench --compare.  Trials are summarized (no raw
        # histogram buckets or per-disk counters) to keep the committed
        # file small; the full records live in the result cache.
        payload = {
            "bench": "traffic",
            "provenance": sweep_provenance(specs),
            "config": config,
            "summary": summary,
            "trials": [
                {
                    "layout": t["layout"],
                    "phase": t["phase"],
                    "rate_per_s": t["rate_per_s"],
                    "offered": t["offered"],
                    "completed": t["completed"],
                    "shed": t["shed"],
                    "truncated": t["truncated"],
                    "overloaded": t["overloaded"],
                    "slo_violated": t["slo_violated"],
                    "tail": t["tail"],
                    "time_in_violation_ms": t["slo"][
                        "time_in_violation_ms"
                    ],
                    "violation_windows": t["slo"]["violation_windows"],
                    "queue_high_water": t["queue"]["queue_high_water"],
                    "mean_wait_ms": t["queue"]["mean_wait_ms"],
                    "overload": t["overload"],
                    "modes": t["modes"],
                }
                for t in trial_records
            ],
        }
        _write_report(args.out, payload)
    return 0


def _cmd_failslow(args: argparse.Namespace) -> int:
    from repro.experiments.failslow import (
        failslow_specs,
        summarize_failslow,
    )

    layouts = args.layouts
    arrivals = args.arrivals
    rebuild_rows = args.rebuild_rows
    if args.quick:
        layouts = ["raid5", "pddl"]
        arrivals = 150
        rebuild_rows = 60
    config = {
        "layouts": list(layouts),
        "defenses": list(args.defenses),
        "rate_per_s": args.rate,
        "arrivals": arrivals,
        "seed": args.seed,
        "disks": args.disks,
        "slow_disk": args.slow_disk,
        "slow_multiplier": args.slow_multiplier,
        "rebuild_rows": rebuild_rows,
        "hedge_deferral_ms": args.hedge_deferral,
        "adaptive_max_ms": args.adaptive_max,
        "slo_p99_ms": args.slo_p99,
        "slo_p999_ms": args.slo_p999,
        "horizon_ms": args.horizon,
    }
    specs = failslow_specs(**config)
    runner, report, elapsed = _run(args, specs)

    trial_records = [r["failslow"] for r in report.records]
    summary = summarize_failslow(trial_records)

    print(
        f"failslow: {len(layouts)} layout(s) x"
        f" {len(args.defenses)} defense(s),"
        f" {arrivals} arrivals/trial @ {args.rate:g}/s,"
        f" {args.slow_multiplier:g}x fail-slow disk"
    )
    print(
        f"  SLO-violating {summary['slo_violated_trials']}"
        f"/{summary['trials']} trial(s),"
        f" truncated {summary['truncated_trials']}"
    )
    for layout in sorted(summary["hedging"]):
        h = summary["hedging"][layout]
        win = "-" if h["win_rate"] is None else f"{h['win_rate']:.0%}"
        both = (
            ""
            if h["both_p999_ms"] is None
            else f" (both: {h['both_p999_ms']:.1f})"
        )
        print(
            f"  hedge[{layout}]  p999 {h['none_p999_ms']:.1f} ->"
            f" {h['hedge_p999_ms']:.1f} ms{both},"
            f" {h['won']}/{h['launched']} won ({win}),"
            f" {h['quarantines']} quarantine(s)"
        )
    for layout in sorted(summary["adaptive"]):
        a = summary["adaptive"][layout]
        inflation = (
            "-"
            if a["rebuild_inflation"] is None
            else f"{a['rebuild_inflation']:.2f}x"
        )
        print(
            f"  aimd[{layout}]   p99 violated"
            f" {a['none_p99_violated']} -> {a['adaptive_p99_violated']},"
            f" rebuild {inflation},"
            f" {a['backoffs']} backoff(s) / {a['sprints']} sprint(s)"
        )
    _print_io_recovery(summary)
    _print_scrub(summary)
    _print_tally(runner, report, elapsed)

    if args.out:
        # Deterministic payload modulo the provenance version stamp —
        # CI compares a fresh run against the committed baseline with
        # bench --compare.  Trials are summarized (tails and
        # defense counters, no raw instrumentation) to keep the
        # committed file small.
        payload = {
            "bench": "failslow",
            "provenance": sweep_provenance(specs),
            "config": config,
            "summary": summary,
            "trials": [
                {
                    "layout": t["layout"],
                    "defense": t["defense"],
                    "rate_per_s": t["rate_per_s"],
                    "offered": t["offered"],
                    "completed": t["completed"],
                    "shed": t["shed"],
                    "truncated": t["truncated"],
                    "slo_violated": t["slo_violated"],
                    "tail": t["tail"],
                    "time_in_violation_ms": t["slo"][
                        "time_in_violation_ms"
                    ],
                    "violation_windows": t["slo"]["violation_windows"],
                    "rebuild": {
                        "finished": t["rebuild"]["finished"],
                        "steps": t["rebuild"]["steps"],
                        "duration_ms": t["rebuild"]["duration_ms"],
                    },
                    "failslow": t["failslow"],
                    "hedging": t.get("hedging"),
                    "adaptive": t.get("adaptive"),
                }
                for t in trial_records
            ],
        }
        _write_report(args.out, payload)
    return 0


def _cmd_corruption(args: argparse.Namespace) -> int:
    from repro.experiments.corruption import (
        corruption_specs,
        summarize_corruption,
    )

    layouts = args.layouts
    trials = args.trials
    arrivals = args.arrivals
    if args.quick:
        layouts = ["raid5", "pddl"]
        trials = 3
        arrivals = 120
    config = {
        "layouts": list(layouts),
        "defenses": list(args.defenses),
        "trials": trials,
        "seed": args.seed,
        "start": args.start,
        "disks": args.disks,
        "lost_rate": args.lost_rate,
        "misdirected_rate": args.misdirected_rate,
        "bitrot_cells": args.bitrot_cells,
        "rate_per_s": args.rate,
        "arrivals": arrivals,
        "read_fraction": args.read_fraction,
        "span_units": args.span,
        "fail_at_ms": args.fail_at,
        "checksum_latency_ms": args.checksum_latency,
        "scrub_interval_ms": args.scrub_interval,
        "horizon_ms": args.horizon,
    }
    specs = corruption_specs(**config)
    runner, report, elapsed = _run(args, specs)

    trial_records = [r["corruption"] for r in report.records]
    summary = summarize_corruption(trial_records)

    print(
        f"corruption: {len(layouts)} layout(s) x"
        f" {len(args.defenses)} defense(s) x {trials} trial(s),"
        f" {arrivals} arrivals/trial @ {args.rate:g}/s"
    )
    silent = summary["silent_by_defense"]
    print(
        "  silent by defense: "
        + ", ".join(f"{d}={silent[d]}" for d in sorted(silent))
    )
    print(
        f"  defended tiers served {summary['defended_silent_total']}"
        " silent corruption event(s);"
        f" undefended served {summary['undefended_silent_total']}"
    )
    for layout in summary["layouts"]:
        tiers = summary["by_tier"][layout]
        cost = summary["latency_cost_vs_none"].get(layout, {})
        parts = []
        for defense in sorted(tiers):
            entry = tiers[defense]
            factor = cost.get(defense)
            label = (
                f"{defense} {entry['mean_latency_ms']:.2f}ms"
                if entry["mean_latency_ms"] is not None
                else f"{defense} -"
            )
            if factor is not None and defense != "none":
                label += f" ({factor:.2f}x)"
            parts.append(label)
        print(f"  latency[{layout}]: " + ", ".join(parts))
        for defense in sorted(tiers):
            audit = tiers[defense].get("scrub_audit")
            if audit:
                print(
                    f"  audit[{layout}/{defense}]:"
                    f" {audit['stripes_audited']} stripe-cells audited,"
                    f" {audit['audit_mismatches']} mismatch(es),"
                    f" {audit['audit_repairs']} repaired,"
                    f" {audit['audit_unrepairable']} unrepairable"
                )
    _print_tally(runner, report, elapsed)

    if args.out:
        # Deterministic payload modulo the provenance version stamp —
        # CI compares a fresh run against the committed baseline with
        # bench --compare.  Trials are summarized (ledger and
        # latency, no raw instrumentation) to keep the file small.
        payload = {
            "bench": "corruption",
            "provenance": sweep_provenance(specs),
            "config": config,
            "summary": summary,
            "trials": [
                {
                    "layout": t["layout"],
                    "defense": t["defense"],
                    "trial": t["trial"],
                    "classification": t["classification"],
                    "offered": t["offered"],
                    "completed": t["completed"],
                    "shed": t["shed"],
                    "truncated": t["truncated"],
                    "latency": t["latency"]["all"],
                    "throughput_per_s": t["throughput_per_s"],
                    "corruption": t["corruption"],
                    "checksum": t.get("checksum"),
                    "scrub_audit": t.get("scrub_audit"),
                }
                for t in trial_records
            ],
        }
        _write_report(args.out, payload)
    return 0


def _int_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PDDL disk-array declustering reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    goals = sub.add_parser("goals", help="machine-checked layout goals")
    goals.add_argument("--layouts", nargs="+", default=DEFAULT_LAYOUTS)
    goals.add_argument("--disks", "-n", type=int, default=13)
    goals.add_argument("--width", "-k", type=int, default=4)
    goals.set_defaults(func=_cmd_goals)

    fig3 = sub.add_parser("figure3", help="disk working set sizes")
    fig3.add_argument(
        "--sizes", type=_int_list, default=[8, 48, 96, 144, 192, 240]
    )
    fig3.add_argument("--layouts", nargs="+", default=DEFAULT_LAYOUTS)
    fig3.set_defaults(func=_cmd_figure3)

    resp = sub.add_parser("response", help="response-time experiment")
    resp.add_argument("--size", type=int, default=96, help="access KB")
    resp.add_argument("--write", action="store_true")
    resp.add_argument("--clients", type=_int_list, default=[1, 8, 25])
    resp.add_argument("--mode", choices=sorted(_MODES), default="ff")
    resp.add_argument("--samples", type=int, default=300)
    resp.add_argument("--seed", type=int, default=0)
    resp.add_argument("--layouts", nargs="+", default=DEFAULT_LAYOUTS)
    resp.set_defaults(func=_cmd_response)

    seeks = sub.add_parser("seeks", help="seek/no-switch operation mixes")
    seeks.add_argument("--sizes", type=_int_list, default=[8, 96, 336])
    seeks.add_argument("--write", action="store_true")
    seeks.add_argument("--mode", choices=sorted(_MODES), default="ff")
    seeks.add_argument("--samples", type=int, default=200)
    seeks.add_argument("--layouts", nargs="+", default=DEFAULT_LAYOUTS)
    seeks.set_defaults(func=_cmd_seeks)

    t1 = sub.add_parser("table1", help="base permutation search")
    t1.add_argument("--widths", type=_int_list, default=[5, 6, 7])
    t1.add_argument("--stripes", type=_int_list, default=[1, 2, 3, 4])
    t1.add_argument("--restarts", type=int, default=10)
    t1.add_argument("--max-steps", type=int, default=2000)
    t1.set_defaults(func=_cmd_table1)

    t3 = sub.add_parser("table3", help="scheme implementation costs")
    t3.add_argument("--iterations", type=int, default=20_000)
    t3.set_defaults(func=_cmd_table3)

    plan = sub.add_parser("plan", help="plan a PDDL deployment")
    plan.add_argument("disks", type=int)
    plan.add_argument("width", type=int)
    plan.set_defaults(func=_cmd_plan)

    bench = sub.add_parser(
        "bench", help="parallel, cached response-time sweep"
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="small canned sweep (8/48 KB, 1/4 clients, 40 samples)",
    )
    bench.add_argument("--sizes", type=_int_list, default=[8, 48, 96, 240])
    bench.add_argument("--clients", type=_int_list, default=[1, 4, 10, 25])
    bench.add_argument("--samples", type=int, default=150)
    bench.add_argument("--write", action="store_true")
    bench.add_argument("--mode", choices=sorted(_MODES), default="ff")
    bench.add_argument("--seed", type=int, default=0)
    _add_runner_flags(bench)
    bench.add_argument("--layouts", nargs="+", default=DEFAULT_LAYOUTS)
    bench.add_argument(
        "--compare", action="store_true",
        help="regression gate instead of a sweep: self-check the"
        " committed BENCH_*.json reports (or --baseline/--candidate"
        " pairs) and exit non-zero on any problem",
    )
    bench.add_argument(
        "--baseline", action="append", default=None, metavar="FILE",
        help="bench report(s) to check; with --candidate, the last one"
        " is the comparison baseline (default: ./BENCH_*.json, or"
        " ./BENCH_<kind>.json for the candidate's kind)",
    )
    bench.add_argument(
        "--candidate", default=None, metavar="FILE",
        help="fresh report that must match the baseline exactly,"
        " except for the provenance version stamp",
    )
    bench.set_defaults(func=_cmd_bench)

    life = sub.add_parser(
        "lifecycle",
        help="reconstruction-under-load lifecycle runs (Figures 8-14, 18)",
    )
    life.add_argument(
        "--quick", action="store_true",
        help="small canned sweep (pddl vs parity-declustering, 4 clients)",
    )
    life.add_argument(
        "--layouts", nargs="+", default=["pddl", "parity-declustering"]
    )
    life.add_argument("--clients", type=_int_list, default=[1, 4, 10])
    life.add_argument("--size", type=int, default=8, help="access KB")
    life.add_argument("--write", action="store_true")
    life.add_argument("--disks", "-n", type=int, default=13)
    life.add_argument(
        "--fault-time", type=float, default=500.0,
        help="scripted failure time in ms (ignored with --mttf)",
    )
    life.add_argument(
        "--mttf", type=float, default=None,
        help="draw the failure from per-disk exponential lifetimes"
        " with this MTTF in hours",
    )
    life.add_argument(
        "--dwell", type=float, default=0.0,
        help="degraded dwell before the rebuild starts, ms",
    )
    life.add_argument(
        "--rebuild-rows", type=int, default=None,
        help="limit the rebuild sweep to this many rows",
    )
    life.add_argument("--rebuild-parallel", type=int, default=1)
    life.add_argument(
        "--rebuild-throttle", type=float, default=0.0,
        help="idle ms per rebuild slot between steps",
    )
    life.add_argument("--post-samples", type=int, default=100)
    life.add_argument(
        "--samples", type=int, default=4000,
        help="overall response budget per run",
    )
    life.add_argument("--seed", type=int, default=0)
    _add_runner_flags(life)
    life.add_argument(
        "--oracle", action="store_true",
        help="shadow every run with the integrity oracle and report"
        " silent-corruption counts",
    )
    life.add_argument(
        "--out", default=None,
        help="write a JSON summary (rebuild duration, per-mode means)",
    )
    life.set_defaults(func=_cmd_lifecycle)

    camp = sub.add_parser(
        "campaign",
        help="multi-fault reliability campaign (loss probability, MTTDL)",
    )
    camp.add_argument(
        "--quick", action="store_true",
        help="small canned campaign (24 trials, aggressive MTTF/dwell so"
        " double faults actually land mid-rebuild)",
    )
    camp.add_argument("--layout", default="pddl")
    camp.add_argument("--disks", "-n", type=int, default=13)
    camp.add_argument("--trials", type=int, default=200)
    camp.add_argument(
        "--faults", type=int, default=2,
        help="whole-disk failures drawn per trial",
    )
    camp.add_argument(
        "--mttf", type=float, default=0.03,
        help="per-disk MTTF in hours (small on purpose: the exposure"
        " window is milliseconds of simulated time)",
    )
    camp.add_argument(
        "--dwell", type=float, default=4000.0,
        help="degraded dwell before each rebuild starts, ms",
    )
    camp.add_argument(
        "--rebuild-rows", type=int, default=26,
        help="limit the rebuild sweep to this many rows",
    )
    camp.add_argument("--rebuild-parallel", type=int, default=1)
    camp.add_argument(
        "--rebuild-throttle", type=float, default=0.0,
        help="idle ms per rebuild slot between steps",
    )
    camp.add_argument(
        "--lse-per-gb", type=float, default=0.0,
        help="expected latent sector errors seeded per GB of capacity",
    )
    camp.add_argument(
        "--scrub-interval", type=float, default=None,
        help="periodic scrub pass interval in ms (off by default)",
    )
    camp.add_argument(
        "--scrub-throttle", type=float, default=0.0,
        help="idle ms between scrub reads",
    )
    camp.add_argument(
        "--clients", type=int, default=0,
        help="foreground client load during each trial",
    )
    camp.add_argument(
        "--transient-io-rate", type=float, default=0.0,
        help="per-operation transient I/O error probability, recovered"
        " by the controller's retry/escalation machinery",
    )
    camp.add_argument(
        "--oracle", action="store_true",
        help="shadow every trial with the integrity oracle and report"
        " silent-corruption counts",
    )
    camp.add_argument("--seed", type=int, default=0)
    _add_runner_flags(camp, out="BENCH_campaign.json")
    camp.set_defaults(func=_cmd_campaign)

    crash = sub.add_parser(
        "crash",
        help="controller-crash trials: journaled vs full-sweep resync",
    )
    crash.add_argument(
        "--quick", action="store_true",
        help="small canned sweep (pddl, 2/4 clients, journal on/off)",
    )
    crash.add_argument("--layouts", nargs="+", default=["pddl"])
    crash.add_argument("--clients", type=_int_list, default=[2, 4, 8])
    crash.add_argument("--disks", "-n", type=int, default=13)
    crash.add_argument("--size", type=int, default=8, help="access KB")
    crash.add_argument(
        "--boundary", type=int, default=150,
        help="crash at this write-plan phase boundary (array-wide count;"
        " keep it below --pre-samples or the crash never fires)",
    )
    crash.add_argument(
        "--journal-latency", type=float, default=0.05,
        help="NVRAM journal write latency in ms (journal-on trials)",
    )
    crash.add_argument(
        "--resync-rows", type=int, default=26,
        help="rows the full-sweep resync baseline covers (client writes"
        " are confined to the same region)",
    )
    crash.add_argument("--pre-samples", type=int, default=200)
    crash.add_argument("--post-samples", type=int, default=50)
    crash.add_argument("--seed", type=int, default=0)
    _add_runner_flags(crash, out="BENCH_crash.json")
    crash.set_defaults(func=_cmd_crash)

    nem = sub.add_parser(
        "nemesis",
        help="composed-fault campaigns under the integrity oracle",
    )
    nem.add_argument(
        "--quick", action="store_true",
        help="small canned campaign (24 drawn schedules)",
    )
    nem.add_argument("--layout", default="pddl")
    nem.add_argument("--disks", "-n", type=int, default=13)
    nem.add_argument("--trials", type=int, default=200)
    nem.add_argument(
        "--trial", type=int, default=None,
        help="replay exactly this trial index (the failing-seed repro"
        " path; overrides --trials/--quick)",
    )
    nem.add_argument("--seed", type=int, default=0)
    nem.add_argument(
        "--clients", type=int, default=2,
        help="closed-loop writers per cohort (a crash stalls the live"
        " cohort; recovery starts a fresh one)",
    )
    nem.add_argument(
        "--rows", type=int, default=26,
        help="rows covered by rebuild/resync/scrub sweeps (client"
        " writes are confined to the same region)",
    )
    nem.add_argument(
        "--no-journal", action="store_true",
        help="recover crashes with the full-sweep resync baseline"
        " instead of the NVRAM dirty-stripe journal",
    )
    nem.add_argument(
        "--scrub-interval", type=float, default=400.0,
        help="periodic scrub pass interval in ms (scrub-off windows"
        " pause it; pass 0 to disable scrubbing entirely)",
    )
    nem.add_argument(
        "--samples", type=int, default=240,
        help="total client responses per trial across all cohorts",
    )
    nem.add_argument(
        "--transient-io-rate", type=float, default=0.0,
        help="ambient per-operation transient error probability"
        " outside storm windows",
    )
    nem.add_argument(
        "--lse-per-gb", type=float, default=0.0,
        help="latent sector errors seeded up front per GB (bursts in"
        " the schedule add more mid-run)",
    )
    _add_runner_flags(nem, out="BENCH_nemesis.json")
    nem.add_argument(
        "--failures-out", default="nemesis_failures.txt",
        help="repro-command file written when any trial silently"
        " corrupts ('' to skip)",
    )
    nem.set_defaults(func=_cmd_nemesis)

    traffic = sub.add_parser(
        "traffic",
        help="open-loop offered-load sweeps with SLO/overload accounting",
    )
    traffic.add_argument(
        "--quick", action="store_true",
        help="small canned sweep (raid5+pddl at two offered loads)",
    )
    traffic.add_argument("--layouts", nargs="+", default=DEFAULT_LAYOUTS)
    traffic.add_argument(
        "--rates", nargs="+", type=float,
        default=[250.0, 350.0, 450.0, 550.0],
        help="offered loads in arrivals/second",
    )
    traffic.add_argument(
        "--phases", nargs="+", default=["ff", "rebuild"],
        choices=["ff", "degraded", "rebuild"],
        help="array states the traffic is offered against",
    )
    traffic.add_argument(
        "--arrival", default="poisson",
        choices=["poisson", "mmpp", "trace"],
        help="arrival process (Poisson / bursty MMPP / diurnal trace)",
    )
    traffic.add_argument(
        "--arrivals", type=int, default=300,
        help="arrivals offered per trial",
    )
    traffic.add_argument("--seed", type=int, default=0)
    traffic.add_argument("--disks", "-n", type=int, default=13)
    traffic.add_argument(
        "--queue-depth", type=int, default=64,
        help="admission FIFO bound; arrivals beyond it are shed",
    )
    traffic.add_argument(
        "--service-slots", type=int, default=12,
        help="accesses in flight in the array at once",
    )
    traffic.add_argument(
        "--slo-p99", type=float, default=120.0,
        help="declared p99 latency ceiling, ms",
    )
    traffic.add_argument(
        "--slo-p999", type=float, default=250.0,
        help="declared p999 latency ceiling, ms",
    )
    traffic.add_argument(
        "--horizon", type=float, default=30000.0,
        help="per-trial simulation-time safety stop, ms",
    )
    _add_runner_flags(traffic, out="BENCH_traffic.json")
    traffic.set_defaults(func=_cmd_traffic)

    fslow = sub.add_parser(
        "failslow",
        help="tail-tolerance defenses under a fail-slow disk mid-rebuild",
    )
    fslow.add_argument(
        "--quick", action="store_true",
        help="small canned comparison (raid5+pddl, short rebuild)",
    )
    fslow.add_argument(
        "--layouts", nargs="+", default=["raid5", "pddl"],
        help="layouts to compare (the bench contrasts raid5 vs pddl)",
    )
    fslow.add_argument(
        "--defenses", nargs="+",
        default=["none", "hedge", "adaptive", "both"],
        choices=["none", "hedge", "adaptive", "both"],
        help="tail-tolerance configurations to run",
    )
    fslow.add_argument(
        "--rate", type=float, default=40.0,
        help="offered load in arrivals/second",
    )
    fslow.add_argument(
        "--arrivals", type=int, default=1000,
        help="arrivals offered per trial",
    )
    fslow.add_argument("--seed", type=int, default=2)
    fslow.add_argument("--disks", "-n", type=int, default=13)
    fslow.add_argument(
        "--slow-disk", type=int, default=1,
        help="the gray-failure disk (must differ from the failed disk 0)",
    )
    fslow.add_argument(
        "--slow-multiplier", type=float, default=5.0,
        help="service-time multiplier of the fail-slow disk",
    )
    fslow.add_argument(
        "--rebuild-rows", type=int, default=300,
        help="stripe rows swept by the rebuild",
    )
    fslow.add_argument(
        "--hedge-deferral", type=float, default=30.0,
        help="ms a degraded read waits before hedging",
    )
    fslow.add_argument(
        "--adaptive-max", type=float, default=512.0,
        help="AIMD rebuild-throttle ceiling, ms",
    )
    fslow.add_argument(
        "--slo-p99", type=float, default=250.0,
        help="declared p99 latency ceiling, ms",
    )
    fslow.add_argument(
        "--slo-p999", type=float, default=1500.0,
        help="declared p999 latency ceiling, ms",
    )
    fslow.add_argument(
        "--horizon", type=float, default=120000.0,
        help="per-trial simulation-time safety stop, ms",
    )
    _add_runner_flags(fslow, out="BENCH_failslow.json")
    fslow.set_defaults(func=_cmd_failslow)

    corr = sub.add_parser(
        "corruption",
        help="silent-corruption defense tiers: checksums, write-verify,"
        " parity-audit scrub",
    )
    corr.add_argument(
        "--quick", action="store_true",
        help="small canned comparison (raid5+pddl, 3 trials/tier)",
    )
    corr.add_argument(
        "--layouts", nargs="+", default=["raid5", "pddl"],
        help="layouts to compare (the bench contrasts raid5 vs pddl)",
    )
    corr.add_argument(
        "--defenses", nargs="+",
        default=["none", "checksum", "verify", "audit"],
        choices=["none", "checksum", "verify", "audit"],
        help="defense tiers to run",
    )
    corr.add_argument(
        "--trials", type=int, default=25,
        help="seeded trials per (layout, defense) tier",
    )
    corr.add_argument(
        "--start", type=int, default=0,
        help="first trial index (replay a failing trial from CI)",
    )
    corr.add_argument("--seed", type=int, default=0)
    corr.add_argument("--disks", "-n", type=int, default=13)
    corr.add_argument(
        "--lost-rate", type=float, default=0.02,
        help="per-write probability the drive acks without persisting",
    )
    corr.add_argument(
        "--misdirected-rate", type=float, default=0.01,
        help="per-write probability the payload lands at the wrong LBA",
    )
    corr.add_argument(
        "--bitrot-cells", type=float, default=0.0,
        help="Poisson mean of decayed cells per disk",
    )
    corr.add_argument(
        "--rate", type=float, default=60.0,
        help="offered load in arrivals/second",
    )
    corr.add_argument(
        "--arrivals", type=int, default=300,
        help="arrivals offered per trial",
    )
    corr.add_argument(
        "--read-fraction", type=float, default=0.5,
        help="fraction of arrivals that are reads",
    )
    corr.add_argument(
        "--span", type=int, default=64,
        help="working-set size in data units (small = cells get re-read)",
    )
    corr.add_argument(
        "--fail-at", type=float, default=None,
        help="optionally fail disk 0 at this ms; the array stays degraded",
    )
    corr.add_argument(
        "--checksum-latency", type=float, default=0.02,
        help="per-write checksum+version metadata persist cost, ms",
    )
    corr.add_argument(
        "--scrub-interval", type=float, default=120.0,
        help="parity-audit scrub cadence, ms (audit tier only)",
    )
    corr.add_argument(
        "--horizon", type=float, default=60000.0,
        help="per-trial simulation-time safety stop, ms",
    )
    _add_runner_flags(corr, out="BENCH_corruption.json")
    corr.set_defaults(func=_cmd_corruption)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
