"""Ablation — base permutation quality (the paper's §2 motivation).

Compares the satisfactory base permutation against the identity
permutation (0 1 2 ... n-1), which the paper shows spreads reconstruction
over only four disks instead of all survivors.  Expected: identical
fault-free behaviour (goal #3 only bites under failure), but visibly worse
degraded-mode tail load and a reconstruction-read tally concentrated on a
few disks.
"""

from repro.array.controller import ArrayController
from repro.array.raidops import ArrayMode
from repro.core.layout import PDDLLayout
from repro.core.permutation import identity_permutation
from repro.core.reconstruction import rebuild_read_tally
from repro.core.tables import PAPER_N13_K4_EXPERIMENT
from repro.core.permutation import BasePermutation
from repro.experiments.report import render_table
from repro.sim.engine import SimulationEngine
from repro.stats.summary import SummaryStats
from repro.workload.client import start_clients
from repro.workload.spec import AccessSpec


def _degraded_run(layout, samples, clients=15, seed=0):
    engine = SimulationEngine()
    controller = ArrayController(engine, layout)
    controller.fail_disk(0)
    stats = SummaryStats()

    def on_response(client, access, ms):
        stats.push(ms)
        if stats.count >= samples:
            engine.stop()
            return False
        return True

    start_clients(
        controller,
        AccessSpec(48, False),
        on_response,
        (f"{seed}/{c}" for c in range(clients)),
    )
    engine.run()
    busy = [s.stats.busy_ms for i, s in enumerate(controller.servers) if i]
    return stats.mean, max(busy) / (sum(busy) / len(busy))


def test_ablation_base_permutation_quality(benchmark, bench_samples):
    good = PDDLLayout(BasePermutation(PAPER_N13_K4_EXPERIMENT, k=4))
    bad = PDDLLayout(identity_permutation(3, 4))

    def run_all():
        return {
            "satisfactory": _degraded_run(good, bench_samples),
            "identity": _degraded_run(bad, bench_samples),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    good_tally = rebuild_read_tally(good, 0)
    bad_tally = rebuild_read_tally(bad, 0)

    print()
    print("Ablation: base permutation quality (degraded 48KB reads)")
    print(
        render_table(
            ["permutation", "mean response ms", "max/mean disk busy",
             "tally spread"],
            [
                [
                    name,
                    f"{mean:.2f}",
                    f"{imbalance:.3f}",
                    f"{max(t.values())}-{min(t.values())}",
                ]
                for (name, (mean, imbalance)), t in zip(
                    results.items(), [good_tally, bad_tally]
                )
            ],
        )
    )

    # The satisfactory permutation balances reconstruction reads exactly;
    # the identity concentrates them (paper: four disks, +50% on two).
    assert max(good_tally.values()) == min(good_tally.values())
    assert max(bad_tally.values()) > min(bad_tally.values())
    busy_disks = sum(1 for v in bad_tally.values() if v > 0)
    assert busy_disks < len(bad_tally)

    # Under degraded load the identity permutation is no better, and its
    # per-disk load is more skewed.
    good_mean, good_imbalance = results["satisfactory"]
    bad_mean, bad_imbalance = results["identity"]
    assert bad_imbalance >= good_imbalance * 0.98
