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
import functools
import sys
import time
from typing import List, Optional, Tuple

from repro.errors import ReproError
from repro.experiments.config import PAPER_LAYOUT_NAMES
from repro.experiments.sweep import (
    DERIVED,
    Flag,
    Sweep,
    int_list,
    sweeps,
    write_report,
)
from repro.runner import (
    ExperimentSpec,
    ParallelRunner,
    ResultCache,
    RunReport,
    cells_from_records,
    curves_from_records,
    default_cache_dir,
    response_sweep_specs,
    run_compare,
    table1_specs,
)
from repro.runner.spec import MODES as _MODES


def _add_runner_flags(
    parser: argparse.ArgumentParser, out: Optional[str] = None
) -> None:
    """The runner flags every sweep command shares.

    A trial command passes its default report path as ``out`` and also
    gets the hardened-pool flags (``--timeout``, ``--retries``) and
    ``--out``; ``bench`` and ``lifecycle`` take only ``--workers``,
    ``--cache-dir`` and ``--no-cache``.
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
    runner = ParallelRunner(
        workers=args.workers,
        cache=cache,
        timeout_s=getattr(args, "timeout", None),
        retries=getattr(args, "retries", 0),
    )
    started = time.perf_counter()
    report = runner.run(specs)
    return runner, report, time.perf_counter() - started


def _print_tally(
    runner: ParallelRunner, report: RunReport, elapsed: float, noun: str
) -> None:
    """A sweep's closing lines: where each of its points came from."""
    print(
        f"{len(report.records)} {noun}: {report.executed} simulated,"
        f" {report.cache_hits} from cache"
        f" ({runner.workers} workers, {elapsed:.2f}s)"
    )
    if runner.cache is not None:
        print(f"cache dir: {runner.cache.root}")


def _print_io_recovery(summary: dict) -> None:
    """One line of aggregate transient-recovery counters.

    Sweeps that never enabled retries or hedging have no
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
    _print_tally(runner, report, elapsed, "points")
    return 0


def _cmd_sweep(sweep: Sweep, args: argparse.Namespace) -> int:
    """Run one declared trial sweep: build, run, print and report."""
    config = sweep.config(args)
    specs = sweep.specs(**config)
    for key in sweep.unreported:
        del config[key]
    runner, report, elapsed = _run(args, specs)
    trials = report.records
    if sweep.record is not None:
        trials = [record[sweep.record] for record in trials]
    summary = sweep.summarize(trials)
    for line in sweep.lines(config, summary, trials):
        print(line)
    _print_io_recovery(summary)
    _print_scrub(summary)
    _print_tally(runner, report, elapsed, sweep.noun)
    code = sweep.finish(args, config, summary)
    if args.out:
        # Deterministic payload modulo the provenance version stamp:
        # CI compares a fresh run against the committed baseline.
        write_report(args.out, sweep.report(specs, config, summary, trials))
    return code


#: Flag types by spec-field annotation (or default value type).
_TYPES = {
    "int": int,
    "float": float,
    "str": None,
    "Optional[int]": int,
    "Optional[float]": float,
}


def _add_sweep(sub, sweep: Sweep, quick: bool) -> None:
    """One trial-sweep subcommand, generated from its declaration.

    A flag's default is its own, else the builder keyword's default,
    else the spec field's; its type is its own, else the spec field's
    annotation, else its default's.  With ``quick``, the sweep's
    ``--quick`` values replace the defaults.
    """
    spec_fields = sweep.spec_fields()
    parser = sub.add_parser(sweep.bench, help=sweep.help)
    parser.add_argument("--quick", action="store_true", help=sweep.quick_help)

    def add(flag: Flag) -> None:
        field = spec_fields.get(flag.field)
        default = sweep.default(flag)
        if isinstance(default, tuple):
            default = list(default)
        names = [flag.flag] + ([flag.short] if flag.short else [])
        if isinstance(default, bool):
            parser.add_argument(*names, action="store_true", help=flag.help)
            return
        convert = flag.type
        if convert is DERIVED:
            # An unknown spec annotation fails here, not as a str value.
            convert = (
                _TYPES[field.type]
                if field
                else _TYPES.get(type(default).__name__)
            )
        parser.add_argument(
            *names,
            type=convert,
            default=default,
            nargs=flag.nargs,
            choices=flag.choices,
            help=flag.help,
        )

    for flag in sweep.flags:
        add(flag)
    _add_runner_flags(parser, out=sweep.out)
    for flag in sweep.tail:
        add(flag)
    if quick:
        parser.set_defaults(**sweep.quick)
    parser.set_defaults(func=functools.partial(_cmd_sweep, sweep), sweep=sweep)


def build_parser(quick: Optional[Sweep] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser; ``quick`` is the sweep whose ``--quick``
    values replace its option defaults."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PDDL disk-array declustering reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    goals = sub.add_parser("goals", help="machine-checked layout goals")
    goals.add_argument("--layouts", nargs="+", default=PAPER_LAYOUT_NAMES)
    goals.add_argument("--disks", "-n", type=int, default=13)
    goals.add_argument("--width", "-k", type=int, default=4)
    goals.set_defaults(func=_cmd_goals)

    fig3 = sub.add_parser("figure3", help="disk working set sizes")
    fig3.add_argument(
        "--sizes", type=int_list, default=[8, 48, 96, 144, 192, 240]
    )
    fig3.add_argument("--layouts", nargs="+", default=PAPER_LAYOUT_NAMES)
    fig3.set_defaults(func=_cmd_figure3)

    resp = sub.add_parser("response", help="response-time experiment")
    resp.add_argument("--size", type=int, default=96, help="access KB")
    resp.add_argument("--write", action="store_true")
    resp.add_argument("--clients", type=int_list, default=[1, 8, 25])
    resp.add_argument("--mode", choices=sorted(_MODES), default="ff")
    resp.add_argument("--samples", type=int, default=300)
    resp.add_argument("--seed", type=int, default=0)
    resp.add_argument("--layouts", nargs="+", default=PAPER_LAYOUT_NAMES)
    resp.set_defaults(func=_cmd_response)

    seeks = sub.add_parser("seeks", help="seek/no-switch operation mixes")
    seeks.add_argument("--sizes", type=int_list, default=[8, 96, 336])
    seeks.add_argument("--write", action="store_true")
    seeks.add_argument("--mode", choices=sorted(_MODES), default="ff")
    seeks.add_argument("--samples", type=int, default=200)
    seeks.add_argument("--layouts", nargs="+", default=PAPER_LAYOUT_NAMES)
    seeks.set_defaults(func=_cmd_seeks)

    t1 = sub.add_parser("table1", help="base permutation search")
    t1.add_argument("--widths", type=int_list, default=[5, 6, 7])
    t1.add_argument("--stripes", type=int_list, default=[1, 2, 3, 4])
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
    bench.add_argument("--sizes", type=int_list, default=[8, 48, 96, 240])
    bench.add_argument("--clients", type=int_list, default=[1, 4, 10, 25])
    bench.add_argument("--samples", type=int, default=150)
    bench.add_argument("--write", action="store_true")
    bench.add_argument("--mode", choices=sorted(_MODES), default="ff")
    bench.add_argument("--seed", type=int, default=0)
    _add_runner_flags(bench)
    bench.add_argument("--layouts", nargs="+", default=PAPER_LAYOUT_NAMES)
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

    for sweep in sweeps():
        _add_sweep(sub, sweep, quick=sweep is quick)

    return parser


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """Parse a command line.  A trial sweep's ``--quick`` values stand
    in for its option defaults, so a flag given explicitly still wins."""
    args = build_parser().parse_args(argv)
    if getattr(args, "sweep", None) is not None and args.quick:
        args = build_parser(quick=args.sweep).parse_args(argv)
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
