"""Seek / no-switch count experiments (Figures 4, 7, 15, 16).

The paper notes these mixes are "almost independent of the workload"; the
driver runs a moderate fixed concurrency and reports the per-access mix.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.array.raidops import ArrayMode
from repro.stats.seekcount import SeekMix


def run_seek_mix(
    layout_names: Iterable[str],
    sizes_kb: Iterable[int],
    is_write: bool,
    mode: ArrayMode = ArrayMode.FAULT_FREE,
    clients: int = 8,
    samples_per_point: int = 250,
) -> Dict[Tuple[str, int], SeekMix]:
    """(layout, size KB) -> per-access operation mix."""
    # Local import: repro.runner imports the experiment drivers.
    from repro.runner import (
        ExperimentSpec,
        ParallelRunner,
        mode_name,
        point_from_record,
    )

    specs = [
        ExperimentSpec(
            layout=name,
            size_kb=size_kb,
            is_write=is_write,
            clients=clients,
            mode=mode_name(mode),
            max_samples=samples_per_point,
            warmup=0,
            # Figures 4/7/15/16 decompose *per-stripe-unit* operations;
            # disable request merging so the mix matches that granularity.
            coalesce=False,
        )
        for name in layout_names
        for size_kb in sizes_kb
    ]
    records = ParallelRunner(workers=1).run(specs).records
    return {
        (spec.layout, spec.size_kb): point_from_record(record).seek_mix
        for spec, record in zip(specs, records)
    }
