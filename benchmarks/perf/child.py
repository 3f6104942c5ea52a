"""One benchmark child process: a set-up probe, timed passes, or a
traced pass over one workload.

Started by :mod:`benchmarks.perf.harness` as
``python -m benchmarks.perf.child <mode> <workload> <seed> ...`` from
the repository root, with ``PYTHONPATH=src``.  It runs the workload
through the public serial path ``ParallelRunner(workers=1).run(specs)``
and prints one JSON object as its last line of output (``probe`` prints
``ready`` instead, at the moment set-up is complete).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

from benchmarks.perf import workloads

SRC_REPRO = os.path.join(workloads.ROOT, "src", "repro")


def probe(specs: list) -> None:
    """Do what every run pays before its first spec, then say so."""
    from repro.disk.hp2247 import make_hp2247
    from repro.experiments.config import layout_for
    from repro.runner import ParallelRunner  # noqa: F401  (import cost)

    for name, disks, width in workloads.distinct_layouts(specs):
        layout_for(name, disks=disks, width=width)
    make_hp2247()
    print("ready", flush=True)


class _Pass:
    """One run of the spec list, optionally into a fresh result cache."""

    def __init__(self, specs: list, tmp_root: str, cached: bool):
        from repro.runner import ParallelRunner, ResultCache

        self.specs = specs
        self.cache_dir = tempfile.mkdtemp(dir=tmp_root) if cached else None
        cache = ResultCache(self.cache_dir) if cached else None
        self.runner = ParallelRunner(workers=1, cache=cache)

    def run(self, profiler=None) -> dict:
        """Time one ``run`` call; digests are taken outside the clock."""
        gc.collect()
        started = time.perf_counter()
        try:
            if profiler is not None:
                profiler.enable()
            try:
                report = self.runner.run(self.specs)
            finally:
                if profiler is not None:
                    profiler.disable()
        except Exception:  # a raising spec is a counted failure, not a crash
            traceback.print_exc()
            return {"error": traceback.format_exc(limit=3), "digests": []}
        wall_s = time.perf_counter() - started
        return {
            "wall_s": wall_s,
            "executed": report.executed,
            "digests": [workloads.record_digest(r) for r in report.records],
            "events": sum(
                r["instrumentation"]["engine"]["events_processed"]
                for r in report.records
                if "instrumentation" in r
            ),
        }

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


def timed_passes(
    workload: str, specs: list, tmp_root: str, min_passes: int, seconds: float
) -> dict:
    """At least ``min_passes`` cold passes, more while they fit in
    ``seconds``; a cached workload then replays the last pass warm."""
    cached = workload in workloads.CACHED
    passes = []
    replay = None
    elapsed = 0.0
    while True:
        one = _Pass(specs, tmp_root, cached)
        try:
            result = one.run()
            passes.append(result)
            if "error" in result:
                break
            elapsed += result["wall_s"]
            next_fits = elapsed + elapsed / len(passes) <= seconds
            if len(passes) >= min_passes and not next_fits:
                if cached:
                    replay = one.run()
                break
        finally:
            one.close()
    return {
        "specs": len(specs),
        "passes": passes,
        "replay": replay,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_pass(workload: str, specs: list, tmp_root: str) -> dict:
    import cProfile
    import pstats

    from benchmarks.perf.layers import layer_metrics, resolve_counted

    one = _Pass(specs, tmp_root, workload in workloads.CACHED)
    try:
        profiler = cProfile.Profile()
        result = one.run(profiler)
    finally:
        one.close()
    if "error" not in result:
        result["per_layer"] = layer_metrics(
            pstats.Stats(profiler).stats,
            SRC_REPRO,
            result["wall_s"],
            result["events"],
            resolve_counted(),
        )
    return result


def sweep_hashes(seed: int) -> dict:
    from repro.runner.provenance import sweep_hash

    return {
        kind: sweep_hash(specs)
        for kind, specs in workloads.defended_sweeps(seed).items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "passes", "traced"))
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--tmp", default=None)
    parser.add_argument("--min-passes", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    specs = workloads.build(args.workload, args.seed, smoke=args.smoke)
    if args.mode == "probe":
        probe(specs)
        return 0
    if args.mode == "passes":
        out = timed_passes(
            args.workload, specs, args.tmp, args.min_passes, args.seconds
        )
        if args.workload == "defended_trials" and not args.smoke:
            out["sweep_hashes"] = sweep_hashes(args.seed)
    else:
        out = traced_pass(args.workload, specs, args.tmp)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
