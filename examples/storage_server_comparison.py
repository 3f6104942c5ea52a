"""Compare the five layouts on the paper's 13-disk storage server.

A miniature of Figures 5/6: 96 KB reads at three load levels, fault-free
and degraded, printed as the paper's (throughput, response time) pairs.

Run:  python examples/storage_server_comparison.py [samples-per-point]
"""

import sys

from repro.array.raidops import ArrayMode
from repro.experiments.report import (
    curves_to_series,
    ranking_at_heaviest_load,
    ranking_at_lightest_load,
    render_ascii_chart,
    render_response_curves,
)
from repro.layouts.registry import DISPLAY_NAMES
from repro.runner import (
    ParallelRunner,
    curves_from_records,
    mode_name,
    response_sweep_specs,
)

LAYOUTS = ("datum", "parity-declustering", "raid5", "pddl", "prime")


def main() -> None:
    samples = int(sys.argv[1]) if len(sys.argv) > 1 else 250
    clients = (1, 8, 25)

    for mode in (ArrayMode.FAULT_FREE, ArrayMode.DEGRADED):
        print(f"\n=== 96KB reads, {mode.value} ===")
        specs = response_sweep_specs(
            (96,),
            clients,
            False,
            mode_name(mode),
            samples,
            layouts=LAYOUTS,
            warmup=samples // 10,
        )
        records = ParallelRunner(workers=1).run(specs).records
        curves = curves_from_records(records)[96]
        print(render_response_curves(curves))
        print()
        print(render_ascii_chart(curves_to_series(curves)))
        light = [DISPLAY_NAMES[n] for n in ranking_at_lightest_load(curves)]
        heavy = [DISPLAY_NAMES[n] for n in ranking_at_heaviest_load(curves)]
        print(f"\nbest-to-worst at light load: {', '.join(light)}")
        print(f"best-to-worst at heavy load: {', '.join(heavy)}")
    print(
        "\nPaper's story: PRIME/RAID-5 lead light loads, the curves cross"
        "\nas load grows, and DATUM (with PDDL close behind) wins heavy"
        "\nloads; a failed disk hurts RAID-5 far more than the declustered"
        "\nlayouts."
    )


if __name__ == "__main__":
    main()
