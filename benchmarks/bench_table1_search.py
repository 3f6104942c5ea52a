"""Table 1 — satisfactory base permutations for k = 5..10, g = 1..10.

Reruns the paper's methodology: the Bose construction over GF(n) for
prime-power n (labelled "bose" for prime n, "gf2" for powers of two and
"gf" for odd prime powers), and hill-climbing search for the rest.  Prime
cells must produce 1 (they always do — the construction is a theorem).  For
composite cells we print our group size next to the paper's; search is
stochastic and budget-bound, so cells may come out '?' where the paper
found a group (and occasionally vice versa).

The default budget solves the small-n region; REPRO_BENCH_SCALE grows
the search budget for the large composite cells.  Cells are independent
searches, so the grid fans out across the :mod:`repro.runner` worker
pool (``REPRO_BENCH_WORKERS``) and completed cells memoize under
``REPRO_BENCH_CACHE``.
"""

import os

from repro.core.tables import PAPER_TABLE1
from repro.experiments.report import render_table
from repro.gf.prime import is_prime
from repro.runner import cells_from_records, table1_specs

from benchmarks._support import bench_runner


def _run_grid(widths, stripe_counts, restarts, max_steps):
    specs = table1_specs(
        widths, stripe_counts, restarts=restarts, max_steps=max_steps,
        p_max=3,
    )
    return cells_from_records(bench_runner().run(specs).records)


def test_table1_base_permutation_search(benchmark, bench_scale):
    full = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
    widths = range(5, 11)
    stripe_counts = range(1, 11) if full else range(1, 6)

    cells = benchmark.pedantic(
        _run_grid,
        kwargs=dict(
            widths=widths,
            stripe_counts=stripe_counts,
            restarts=8 * bench_scale,
            max_steps=1500 * bench_scale,
        ),
        rounds=1,
        iterations=1,
    )

    print()
    print("Table 1: number of satisfactory base permutations (ours | paper)")
    rows = []
    for g in stripe_counts:
        row = [f"g={g}"]
        for k in widths:
            cell = cells[(k, g)]
            paper = PAPER_TABLE1.get((k, g))
            paper_str = "?" if paper is None else str(paper)
            row.append(f"{cell.rendered()}|{paper_str}")
        rows.append(row)
    print(render_table(["", *[f"k={k}" for k in widths]], rows))

    # Prime cells are a theorem: always solitary, always agreeing with the
    # paper.
    for (k, g), cell in cells.items():
        if is_prime(g * k + 1):
            assert cell.group_size == 1, (k, g)
            assert cell.method == "bose"
            if PAPER_TABLE1.get((k, g)) is not None:
                assert PAPER_TABLE1[(k, g)] == 1

    # The searched cells that did resolve never need more permutations
    # than a small group.
    for cell in cells.values():
        if cell.group_size is not None:
            assert 1 <= cell.group_size <= 3
