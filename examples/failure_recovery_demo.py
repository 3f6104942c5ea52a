"""On-line failure recovery with distributed sparing.

Fails a disk in a loaded 13-disk PDDL array, runs the background
reconstructor concurrently with client traffic, and shows the three
operating regimes of the paper's Figure 18: fault-free, reconstruction
(lost units rebuilt on the fly), and post-reconstruction (lost units
served from spare space).

Run:  python examples/failure_recovery_demo.py
"""

from repro import (
    AccessSpec,
    ArrayController,
    Reconstructor,
    SimulationEngine,
    make_layout,
    start_clients,
)
from repro.stats.summary import SummaryStats

CLIENTS = 8
SPEC = AccessSpec(24, is_write=False)
REBUILD_ROWS = 13 * 30  # rebuild 30 layout patterns' worth of lost data


def main() -> None:
    engine = SimulationEngine()
    controller = ArrayController(engine, make_layout("pddl", 13, 4))

    phases = {
        "fault-free": SummaryStats(),
        "degraded": SummaryStats(),
        "post-reconstruction": SummaryStats(),
    }
    state = {"stop_at": None}

    def on_response(client, access, response_ms) -> bool:
        phases[controller.mode.value].push(response_ms)
        if (
            state["stop_at"] is not None
            and phases["post-reconstruction"].count >= state["stop_at"]
        ):
            engine.stop()
            return False
        return True

    start_clients(
        controller, SPEC, on_response, (f"client-{c}" for c in range(CLIENTS))
    )

    # Let the array warm up fault-free, then kill disk 5.
    engine.schedule_at(5_000.0, engine.stop)
    engine.run()
    print(f"t={engine.now / 1000:.1f}s  failing disk 5")
    controller.fail_disk(5)

    recon = Reconstructor(
        controller,
        parallel_steps=2,
        rows=REBUILD_ROWS,
        on_finished=lambda ms: print(
            f"t={engine.now / 1000:.1f}s  reconstruction finished"
            f" ({REBUILD_ROWS} rows in {ms / 1000:.1f}s simulated)"
        ),
    )
    recon.start()
    state["stop_at"] = 600
    engine.run()

    print("\nMean read response time by regime (24KB reads, 8 clients):")
    for regime, stats in phases.items():
        if stats.count:
            print(
                f"  {regime:20s} {stats.mean:7.2f} ms"
                f"   (n={stats.count})"
            )
    degraded = phases["degraded"]
    post = phases["post-reconstruction"]
    if degraded.count and post.count:
        gain = degraded.mean / post.mean
        print(
            f"\nServing rebuilt data from spare space is {gain:.2f}x faster"
            " than on-the-fly reconstruction (paper Figure 18)."
        )


if __name__ == "__main__":
    main()
