"""Ablation — request coalescing (RAIDframe merges contiguous sectors).

The controller merges physically contiguous stripe-unit operations of one
phase into single disk requests by default.  Expected: coalescing helps
most where layouts put adjacent units on one disk — DATUM (overlapping
colex stripes) gains the most, RAID-5 reads (one unit per disk per stripe)
gain the least.
"""

from repro.experiments.config import build_array
from repro.experiments.report import render_table
from repro.stats.summary import SummaryStats
from repro.workload.client import start_clients
from repro.workload.spec import AccessSpec


def _run(layout_name, coalesce, samples, clients=15, seed=0):
    engine, _, controller = build_array(layout_name, coalesce=coalesce)
    stats = SummaryStats()

    def on_response(client, access, ms):
        stats.push(ms)
        if stats.count >= samples:
            engine.stop()
            return False
        return True

    start_clients(
        controller,
        AccessSpec(192, False),
        on_response,
        (f"{seed}/{c}" for c in range(clients)),
    )
    engine.run()
    return stats.mean


def test_ablation_request_coalescing(benchmark, bench_samples):
    layouts = ("datum", "pddl", "raid5")

    def run_all():
        return {
            (name, coalesce): _run(name, coalesce, bench_samples)
            for name in layouts
            for coalesce in (True, False)
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print()
    print("Ablation: request coalescing (192KB reads, 15 clients)")
    rows = []
    for name in layouts:
        on = results[(name, True)]
        off = results[(name, False)]
        rows.append([name, f"{on:.2f}", f"{off:.2f}", f"{off / on:.2f}x"])
    print(
        render_table(
            ["layout", "coalesced ms", "uncoalesced ms", "speedup"], rows
        )
    )

    # Coalescing never hurts, and DATUM gains more than RAID-5.
    for name in layouts:
        assert results[(name, True)] <= results[(name, False)] * 1.05
    datum_gain = results[("datum", False)] / results[("datum", True)]
    raid5_gain = results[("raid5", False)] / results[("raid5", True)]
    assert datum_gain > raid5_gain
