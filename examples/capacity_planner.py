"""Plan a PDDL deployment for a given array shape.

Given a disk count and stripe width, finds a satisfactory base permutation
(the paper's published groups, the Bose construction over GF(n) for
prime-power n, or hill-climbing search — the Table 1 pipeline), reports capacity overheads,
verifies the layout goals, and summarizes per-survivor rebuild load.

Run:  python examples/capacity_planner.py [disks] [stripe_width]
      python examples/capacity_planner.py 21 5
"""

import sys

from repro import check_layout, pddl_for
from repro.core.reconstruction import rebuild_read_tally, rebuild_write_tally
from repro.errors import ReproError
from repro.experiments.report import render_table


def plan(n: int, k: int) -> None:
    if (n - 1) % k != 0:
        usable = [m for m in range(n - 4, n + 5) if (m - 1) % k == 0]
        print(
            f"{n} disks cannot host width-{k} stripes + 1 spare"
            f" (need n = g*{k} + 1; nearby options: {usable})"
        )
        return
    g = (n - 1) // k
    print(f"Array: {n} disks = {g} stripes x width {k} + 1 distributed spare")

    try:
        layout = pddl_for(g, k)
    except ReproError as exc:
        print(f"No satisfactory PDDL configuration found: {exc}")
        return

    group = layout.group
    print(f"Base permutations needed: {group.p}")
    for i, perm in enumerate(group.permutations):
        print(f"  permutation {i}: {perm.values}")

    print(f"\nDevelopment: {type(layout.dev).__name__}")
    print(f"Layout pattern: {layout.period} rows,"
          f" {layout.stripes_per_period} stripes")
    print(f"Client data capacity: {1 - layout.parity_overhead - layout.spare_overhead:.1%}")
    print(f"Parity overhead:      {layout.parity_overhead:.1%}")
    print(f"Spare overhead:       {layout.spare_overhead:.1%}")

    report = check_layout(layout)
    print(f"Goals met: {report.goals_met()}")

    reads = rebuild_read_tally(layout, 0)
    writes = rebuild_write_tally(layout, 0)
    print("\nRebuild load per surviving disk (one pattern, disk 0 failed):")
    print(
        render_table(
            ["disk", "reconstruction reads", "spare writes"],
            [[d, reads[d], writes[d]] for d in sorted(reads)],
        )
    )


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 13
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    plan(n, k)


if __name__ == "__main__":
    main()
