"""Ablation — head scheduling policy (Table 2 fixes SSTF on 20 requests).

Varies what the paper holds constant: SSTF vs FIFO vs LOOK, and the SSTF
inspection window.  Expected: SSTF and LOOK beat FIFO under load (request
reordering is what makes the seek-heavy declustered layouts viable), and a
wider SSTF window helps at high concurrency.
"""

from repro.experiments.config import build_array
from repro.experiments.report import render_table
from repro.stats.summary import SummaryStats
from repro.workload.client import start_clients
from repro.workload.spec import AccessSpec


def _run(scheduler_name, window, samples, clients=20, seed=0):
    engine, _, controller = build_array(
        "pddl", scheduler_name=scheduler_name, scheduler_window=window
    )
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
    return stats.mean


def test_ablation_scheduler_policy(benchmark, bench_samples):
    def run_all():
        return {
            ("sstf", 20): _run("sstf", 20, bench_samples),
            ("sstf", 4): _run("sstf", 4, bench_samples),
            ("fifo", 1): _run("fifo", 1, bench_samples),
            ("look", 1): _run("look", 1, bench_samples),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print()
    print("Ablation: scheduler policy (PDDL, 48KB reads, 20 clients)")
    print(
        render_table(
            ["policy", "window", "mean response ms"],
            [
                [name, window, f"{ms:.2f}"]
                for (name, window), ms in results.items()
            ],
        )
    )

    fifo = results[("fifo", 1)]
    assert results[("sstf", 20)] < fifo
    assert results[("look", 1)] < fifo * 1.05
    # Wider SSTF window >= narrow window (never worse beyond noise).
    assert results[("sstf", 20)] <= results[("sstf", 4)] * 1.08
