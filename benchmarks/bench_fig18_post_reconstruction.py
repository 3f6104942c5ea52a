"""Figure 18 — PDDL reads: fault-free vs reconstruction vs
post-reconstruction.

Expected shape (paper appendix): for unit-sized accesses the
post-reconstruction response time is far better than reconstruction mode
(the spare copy is read directly instead of k-1 survivors) but worse than
fault-free (one fewer operational disk); for accesses much larger than a
stripe unit the two failure regimes converge.
"""

from repro.array.raidops import ArrayMode
from repro.experiments.report import render_response_curves

from benchmarks._support import run_panel

SIZES_KB = (8, 24, 48, 72)


def test_figure18_pddl_recovery_regimes(benchmark, bench_samples):
    clients = (1, 10, 25)

    def run_all():
        out = {}
        for size in SIZES_KB:
            for mode in (
                ArrayMode.FAULT_FREE,
                ArrayMode.DEGRADED,
                ArrayMode.POST_RECONSTRUCTION,
            ):
                out[(size, mode)] = run_panel(
                    size, False, clients, bench_samples, mode,
                    layouts=("pddl",),
                )["pddl"]
        for size in SIZES_KB:
            print()
            print(f"Figure 18: PDDL {size}KB reads across recovery regimes")
            print(
                render_response_curves(
                    {
                        mode.value: out[(size, mode)]
                        for mode in (
                            ArrayMode.FAULT_FREE,
                            ArrayMode.DEGRADED,
                            ArrayMode.POST_RECONSTRUCTION,
                        )
                    }
                )
            )
        return out

    curves = benchmark.pedantic(run_all, rounds=1, iterations=1)

    def heavy(size, mode):
        return curves[(size, mode)].points[-1].mean_response_ms

    # Unit-sized accesses: post-reconstruction much better than
    # reconstruction, worse than (or equal to) fault-free.
    assert heavy(8, ArrayMode.POST_RECONSTRUCTION) < heavy(
        8, ArrayMode.DEGRADED
    )
    assert heavy(8, ArrayMode.POST_RECONSTRUCTION) >= heavy(
        8, ArrayMode.FAULT_FREE
    ) * 0.95

    # Large accesses: the two failure regimes converge.
    big = SIZES_KB[-1]
    ratio = heavy(big, ArrayMode.DEGRADED) / heavy(
        big, ArrayMode.POST_RECONSTRUCTION
    )
    small_ratio = heavy(8, ArrayMode.DEGRADED) / heavy(
        8, ArrayMode.POST_RECONSTRUCTION
    )
    assert ratio < small_ratio
