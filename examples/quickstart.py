"""Quickstart: the paper's seven-disk storage server (Figures 1 and 2).

Builds the PDDL layout from the Bose construction, prints the developed
layout pattern exactly as Figure 2 draws it, verifies the eight layout
goals, and walks the worked reconstruction example of §2.

Run:  python examples/quickstart.py
"""

from repro import bose_base_permutation, check_layout, PDDLLayout
from repro.core.reconstruction import rebuild_plan
from repro.layouts.address import Role


def cell_label(layout: PDDLLayout, disk: int, row: int) -> str:
    """Figure 2 style label for one array cell (S, A0, PA, ...)."""
    info = layout.locate(disk, row)
    if info.role is Role.SPARE:
        return "S"
    stripe_letter = chr(ord("A") + info.stripe)
    if info.role is Role.CHECK:
        return f"P{stripe_letter}"
    return f"{stripe_letter}{info.position}"


def main() -> None:
    # §2/§3: n = 7, g = 2 stripes of width k = 3; omega = 3 yields the
    # paper's base permutation (0 1 2 4 3 6 5).
    permutation = bose_base_permutation(g=2, k=3, omega=3)
    print(f"Base permutation: {permutation.values}")
    print(f"Satisfactory (goal #3): {permutation.is_satisfactory()}")

    layout = PDDLLayout(permutation)
    print(f"\n{layout.describe()}")

    print("\nPhysical array (Figure 2, right):")
    header = "      " + "".join(f"disk{d:<3}" for d in range(7))
    print(header)
    for row in range(7):
        cells = "".join(
            f"{cell_label(layout, d, row):<7}" for d in range(7)
        )
        print(f"row {row}  {cells}")

    report = check_layout(layout)
    print(f"\nLayout goals met: {report.goals_met()}")
    print(f"  parity space: {layout.parity_overhead:.1%}"
          f"  spare space: {layout.spare_overhead:.1%}")

    # §2's worked example: disk 0 fails.
    print("\nReconstruction plan for a failure of disk 0:")
    for step in rebuild_plan(layout, failed_disk=0):
        reads = ", ".join(f"disk {a.disk}" for a in step.reads)
        print(
            f"  row {step.lost.offset}: read {reads};"
            f" write rebuilt unit to disk {step.write.disk} spare space"
        )

    # The paper's mapping one-liner, demonstrated.
    print("\nvirtual2physical spot checks (§2):")
    for disk, offset in [(2, 0), (3, 0), (5, 1), (6, 1)]:
        physical = layout.virtual_to_physical(disk, offset)
        print(f"  virtual (disk {disk}, offset {offset}) -> disk {physical}")

    # And the relocation map used after reconstruction completes: disk
    # 4's failure table names where each of its stripes' units is
    # rebuilt, and stripe 0 is A, whose check unit PA sits in row 0.
    home_disk, _ = layout.failure_table(4)[0].home
    print(f"\nPA (disk 4, row 0) relocates to spare at disk {home_disk}")


if __name__ == "__main__":
    main()
