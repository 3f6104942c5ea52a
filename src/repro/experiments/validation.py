"""Analytic-vs-simulated validation harness.

Runs the same quantities through both halves of the library — the exact
plan-based analytics and the event-driven simulator — and reports the
relative error.  The paper leans on one such cross-check (Figure 4's
non-local seeks vs Figure 3's working sets); this driver extends it to
operation counts and degraded-mode inflation, making simulator drift a
test failure rather than a latent bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.array.raidops import ArrayMode
from repro.core.analysis import degraded_read_inflation
from repro.experiments.config import build_array, paper_layout
from repro.stats.seekcount import seek_mix_per_access
from repro.stats.workingset import average_operation_count, average_working_set
from repro.workload.client import start_clients
from repro.workload.spec import AccessSpec


@dataclass(frozen=True)
class ValidationRow:
    """One analytic-vs-simulated comparison."""

    quantity: str
    layout: str
    analytic: float
    simulated: float

    @property
    def relative_error(self) -> float:
        if self.analytic == 0:
            return abs(self.simulated)
        return abs(self.simulated - self.analytic) / abs(self.analytic)


def _simulate(
    layout_name: str,
    spec: AccessSpec,
    samples: int,
    mode: ArrayMode = ArrayMode.FAULT_FREE,
    clients: int = 6,
    seed: int = 0,
):
    engine, _, controller = build_array(layout_name, coalesce=False)
    if mode is not ArrayMode.FAULT_FREE:
        controller.fail_disk(0)
        if mode is ArrayMode.POST_RECONSTRUCTION:
            controller.finish_reconstruction()
    count = {"n": 0}

    def on_response(client, access, ms):
        count["n"] += 1
        if count["n"] == samples:
            engine.stop()
        return count["n"] < samples

    start_clients(
        controller, spec, on_response, (f"{seed}/{c}" for c in range(clients))
    )
    engine.run()
    return controller


def validation_rows(samples: int = 250) -> List[ValidationRow]:
    """Compute the full validation table."""
    rows: List[ValidationRow] = []
    for name, size_kb in [("pddl", 96), ("datum", 96), ("raid5", 192)]:
        layout = paper_layout(name)
        controller = _simulate(name, AccessSpec(size_kb, False), samples)
        mix = seek_mix_per_access(
            controller.disk_stats(), controller.completed_accesses
        )
        rows.append(
            ValidationRow(
                quantity=f"working set / non-local seeks ({size_kb}KB read)",
                layout=name,
                analytic=average_working_set(layout, size_kb // 8, False),
                simulated=mix.non_local,
            )
        )
        rows.append(
            ValidationRow(
                quantity=f"ops per access ({size_kb}KB read)",
                layout=name,
                analytic=average_operation_count(
                    layout, size_kb // 8, False
                ),
                simulated=mix.total,
            )
        )

    for name in ("pddl", "prime"):
        layout = paper_layout(name)
        controller = _simulate(
            name, AccessSpec(8, False), samples, mode=ArrayMode.DEGRADED
        )
        mix = seek_mix_per_access(
            controller.disk_stats(), controller.completed_accesses
        )
        rows.append(
            ValidationRow(
                quantity="degraded read inflation (8KB read)",
                layout=name,
                analytic=degraded_read_inflation(layout),
                simulated=mix.total,
            )
        )

    for name, m in [("pddl", 2), ("raid5", 6)]:
        layout = paper_layout(name)
        controller = _simulate(
            name, AccessSpec(m * 8, True), samples
        )
        mix = seek_mix_per_access(
            controller.disk_stats(), controller.completed_accesses
        )
        rows.append(
            ValidationRow(
                quantity=f"ops per access ({m * 8}KB write)",
                layout=name,
                analytic=average_operation_count(layout, m, True),
                simulated=mix.total,
            )
        )
    return rows
