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
