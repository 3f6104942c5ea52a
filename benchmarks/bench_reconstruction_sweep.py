"""Extension — on-line reconstruction into distributed spare space.

The paper motivates distributed sparing ("a sure win") but reports only
steady-state response times; this bench exercises the rebuild process
itself: sweep duration vs rebuild parallelism, with and without competing
client load, on the 13-disk PDDL array.
"""

from repro.array.reconstructor import Reconstructor
from repro.experiments.config import build_array
from repro.experiments.report import render_table
from repro.workload.client import start_clients
from repro.workload.spec import AccessSpec

REBUILD_ROWS = 13 * 40  # 40 layout patterns' worth of lost units


def _rebuild(parallel_steps, clients, seed=0):
    engine, _, controller = build_array("pddl")
    controller.fail_disk(0)
    start_clients(
        controller,
        AccessSpec(48, False),
        lambda client, access, ms: controller.mode.value == "degraded",
        (f"{seed}/{c}" for c in range(clients)),
    )
    recon = Reconstructor(
        controller, parallel_steps=parallel_steps, rows=REBUILD_ROWS
    )
    recon.start()
    engine.run()
    return recon.duration_ms


def test_reconstruction_sweep(benchmark):
    def run_all():
        return {
            ("idle", 1): _rebuild(1, 0),
            ("idle", 4): _rebuild(4, 0),
            ("idle", 8): _rebuild(8, 0),
            ("loaded", 1): _rebuild(1, 8),
            ("loaded", 4): _rebuild(4, 8),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print()
    print(f"Reconstruction sweep ({REBUILD_ROWS} rows of lost units)")
    print(
        render_table(
            ["condition", "parallel steps", "rebuild ms"],
            [
                [cond, steps, f"{ms:.0f}"]
                for (cond, steps), ms in results.items()
            ],
        )
    )

    # More rebuild parallelism shortens the sweep.
    assert results[("idle", 4)] < results[("idle", 1)]
    assert results[("idle", 8)] <= results[("idle", 4)] * 1.05
    # Competing client load slows reconstruction down.
    assert results[("loaded", 1)] > results[("idle", 1)]
