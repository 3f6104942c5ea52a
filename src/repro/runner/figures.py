"""Sweep builders: paper figures/tables as spec lists, and back again.

``*_specs`` functions turn one figure's sweep into a flat, ordered list
of specs for :class:`~repro.runner.parallel.ParallelRunner`;
``curves_from_records`` / ``cells_from_records`` reassemble the runner's
result records into the exact structures the figure benchmarks always
consumed, so migrating a benchmark onto the runner changes how points
are computed (parallel, cached) but not what they are.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import PAPER_LAYOUT_NAMES
from repro.experiments.response import ResponseCurve
from repro.experiments.sweep import (
    DISKS,
    SEED,
    Flag,
    Sweep,
    int_list,
)
from repro.runner.execute import cell_from_record, point_from_record
from repro.runner.spec import ExperimentSpec, LifecycleSpec, Table1Spec


def default_warmup(samples: int) -> int:
    """The figure benchmarks' historical warmup policy."""
    return max(10, samples // 10)


def response_sweep_specs(
    sizes_kb: Sequence[int],
    clients: Sequence[int],
    is_write: bool,
    mode: str,
    samples: int,
    seed: int = 0,
    layouts: Sequence[str] = PAPER_LAYOUT_NAMES,
    warmup: Optional[int] = None,
) -> List[ExperimentSpec]:
    """One response figure's full sweep, ordered (size, layout, clients)."""
    warmup = default_warmup(samples) if warmup is None else warmup
    return [
        ExperimentSpec(
            layout=layout,
            size_kb=size_kb,
            is_write=is_write,
            clients=c,
            mode=mode,
            seed=seed,
            max_samples=samples,
            warmup=warmup,
        )
        for size_kb in sizes_kb
        for layout in layouts
        for c in clients
    ]


def curves_from_records(
    records: Sequence[dict],
) -> Dict[int, Dict[str, ResponseCurve]]:
    """Records -> ``{size_kb: {layout: ResponseCurve}}`` panels.

    Point order within a curve follows record order, which the
    ``*_specs`` builders keep sorted by client count.
    """
    panels: Dict[int, Dict[str, ResponseCurve]] = {}
    grouped: Dict[Tuple[int, str], list] = {}
    for record in records:
        spec = record["spec"]
        grouped.setdefault(
            (spec["size_kb"], spec["layout"]), []
        ).append(point_from_record(record))
    for (size_kb, layout), points in grouped.items():
        panels.setdefault(size_kb, {})[layout] = ResponseCurve(
            layout=layout,
            spec_label=points[0].spec_label,
            mode=points[0].mode,
            points=points,
        )
    return panels


def lifecycle_sweep_specs(
    layouts: Sequence[str],
    clients: Sequence[int],
    fault_time_ms: Optional[float] = 500.0,
    **fields,
) -> List[LifecycleSpec]:
    """A lifecycle sweep over (layout, client count).

    Varying ``clients`` at a fixed rebuild configuration traces the
    rebuild-duration-vs-offered-load curves; each spec is one continuous
    four-regime simulation.  ``fields`` are the spec's own fields,
    shared by every point; the sweep scripts its failure at 500 ms
    unless told otherwise (pass ``fault_time_ms=None`` with
    ``mttf_hours`` for a drawn one).
    """
    return [
        LifecycleSpec(
            layout=layout, clients=c, fault_time_ms=fault_time_ms, **fields
        )
        for layout in layouts
        for c in clients
    ]


def rebuild_load_curves(
    records: Sequence[dict],
) -> Dict[str, List[Tuple[int, Optional[float]]]]:
    """Lifecycle records -> ``{layout: [(clients, rebuild_ms), ...]}``.

    The rebuild-duration-vs-offered-load curves; ``rebuild_ms`` is None
    for runs whose sweep did not finish inside the sample budget.
    """
    curves: Dict[str, List[Tuple[int, Optional[float]]]] = {}
    for record in records:
        life = record["lifecycle"]
        curves.setdefault(life["layout"], []).append(
            (life["clients"], life["rebuild_duration_ms"])
        )
    return curves


def table1_specs(
    widths: Sequence[int], stripe_counts: Sequence[int], **fields
) -> List[Table1Spec]:
    """The Table 1 grid as independent per-cell search specs;
    ``fields`` (seed and search budget) are shared by every cell."""
    return [
        Table1Spec(k=k, g=g, **fields)
        for k in widths
        for g in stripe_counts
    ]


def cells_from_records(records: Sequence[dict]) -> Dict[tuple, object]:
    """Records -> ``{(k, g): Table1Cell}``."""
    cells = {}
    for record in records:
        cell = cell_from_record(record)
        cells[(cell.k, cell.g)] = cell
    return cells


class LifecycleSweep(Sweep):
    """``repro lifecycle``: rebuild duration against offered load.

    Its report has its own shape: each run's rebuild duration and
    per-mode means, with no provenance, config, summary or trials.
    """

    bench = "lifecycle"
    help = "reconstruction-under-load lifecycle runs (Figures 8-14, 18)"
    quick_help = "small canned sweep (pddl vs parity-declustering, 4 clients)"
    spec = "LifecycleSpec"
    record = None
    specs = staticmethod(lifecycle_sweep_specs)
    noun = "runs"
    out = None
    flags = (
        Flag(
            "--layouts",
            "layouts",
            nargs="+",
            default=["pddl", "parity-declustering"],
        ),
        Flag("--clients", "clients", default=[1, 4, 10], type=int_list),
        Flag("--size", "size_kb", "access KB"),
        Flag("--write", "is_write"),
        DISKS,
        Flag(
            "--fault-time",
            "fault_time_ms",
            "scripted failure time in ms (ignored with --mttf)",
        ),
        Flag(
            "--mttf",
            "mttf_hours",
            "draw the failure from per-disk exponential lifetimes"
            " with this MTTF in hours",
        ),
        Flag(
            "--dwell",
            "degraded_dwell_ms",
            "degraded dwell before the rebuild starts, ms",
        ),
        Flag(
            "--rebuild-rows",
            "rebuild_rows",
            "limit the rebuild sweep to this many rows",
        ),
        Flag("--rebuild-parallel", "rebuild_parallel"),
        Flag(
            "--rebuild-throttle",
            "rebuild_throttle_ms",
            "idle ms per rebuild slot between steps",
        ),
        Flag("--post-samples", "post_samples"),
        Flag("--samples", "max_samples", "overall response budget per run"),
        SEED,
    )
    tail = (
        Flag(
            "--oracle",
            "oracle",
            "shadow every run with the integrity oracle and report"
            " silent-corruption counts",
        ),
        Flag(
            "--out",
            None,
            "write a JSON summary (rebuild duration, per-mode means)",
            default=None,
        ),
    )
    # A dwell window so degraded mode collects samples too.
    quick = {
        "clients": [4],
        "rebuild_rows": 26,
        "post_samples": 40,
        "samples": 1500,
        "dwell": 300.0,
    }

    def config(self, args) -> dict:
        config = super().config(args)
        if config["mttf_hours"] is not None:
            config["fault_time_ms"] = None
        return config

    def lines(self, config, summary, records):
        for record in records:
            life = record["lifecycle"]
            yield ""
            yield (
                f"lifecycle: {life['layout']}, {life['spec_label']},"
                f" {life['clients']} clients"
                f" (fault on disk {life['fault_disk']}"
                f" at {life['fault_time_ms']:.0f} ms)"
            )
            for mode, t in life["transitions"]:
                yield f"  {t:10.1f} ms  -> {mode}"
            if life["rebuild_duration_ms"] is not None:
                yield (
                    f"  rebuild: {life['rebuild_steps']} steps"
                    f" in {life['rebuild_duration_ms']:.1f} ms"
                )
            else:
                yield (
                    f"  rebuild: incomplete ({life['rebuild_steps']}"
                    f"/{life['rebuild_total_steps']} steps)"
                )
            for mode, mean in life["mode_means_ms"].items():
                n = record["histograms"][mode]["count"]
                yield f"  {mode:20s} n={n:<5d} mean={mean:8.2f} ms"
            if config["oracle"]:
                yield (
                    f"  oracle: {life['oracle']['corruption_events']}"
                    " corruption event(s)"
                )
        yield ""
        for layout, curve in sorted(rebuild_load_curves(records).items()):
            yield f"rebuild vs load [{layout}]: " + ", ".join(
                f"{c} cl: {'--' if ms is None else f'{ms:.0f} ms'}"
                for c, ms in curve
            )

    def report(self, specs, config, summary, records) -> dict:
        lives = [record["lifecycle"] for record in records]
        keys = (
            "layout",
            "clients",
            "spec_label",
            "complete",
            "rebuild_duration_ms",
            "mode_means_ms",
        )
        report = {
            "bench": "lifecycle",
            "disks": config["disks"],
            "runs": [{key: life[key] for key in keys} for life in lives],
        }
        if config["oracle"]:
            report["oracle"] = {
                "corruption_events": sum(
                    life["oracle"]["corruption_events"] for life in lives
                )
            }
        return report

    def check(self, report: dict, problems: List[str]) -> None:
        if not report["runs"]:
            problems.append("no lifecycle runs recorded")


SWEEP = LifecycleSweep()
