"""``python -m benchmarks.perf run|compare`` (run from the repository root).

    PYTHONPATH=src python -m benchmarks.perf run --seed 0 --out R.json
    python -m benchmarks.perf compare A.json B.json
    PYTHONPATH=src python -m benchmarks.perf run --write-expected --out R.json

``run`` measures all four workloads, one child process at a time, and
exits 1 if any record digest is wrong.  ``compare`` exits 1 on a
``worse`` verdict or on any count or digest mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from benchmarks.perf import harness, workloads
from benchmarks.perf.compare import compare

#: Per-layer metrics echoed on the console after each workload.
_ECHO = ("array.share", "layouts.share", "disk.share", "sim.share", "python.share")


def _print_workload(result: dict) -> None:
    e2e = result["e2e"]
    parts = [f"{result['workload']:16s}"]
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        s = e2e.get(name)
        if s is None:  # every timed pass raised
            continue
        parts.append(f"{name} {s['median']:.3f} [{s['min']:.3f}-{s['max']:.3f}] n={s['n']}")
    parts.append(f"failed_frac {e2e['failed_frac']['median']:.4f}")
    if result["loadavg"]["flagged"]:
        parts.append("LOADED")
    print("  ".join(parts))
    layer = result.get("per_layer", {})
    if layer:
        shares = "  ".join(f"{name} {layer[name]:.1%}" for name in _ECHO)
        print(f"{'':16s} trace.overhead {layer['trace.overhead']:.2f}x  {shares}")
    for problem in result["problems"]:
        print(f"{'':16s} PROBLEM: {problem}")


def cmd_run(args) -> int:
    if args.write_expected and (args.seed != 0 or args.smoke):
        print("error: --write-expected needs --seed 0 and no --smoke", file=sys.stderr)
        return 2
    results = {}
    for workload in workloads.WORKLOADS:
        reference = None if args.write_expected else harness.expected_digests(workload, args.seed)
        result = harness.measure(
            workload,
            args.seed,
            passes=1 if args.smoke else 3,
            smoke=args.smoke,
            reference=reference,
        )
        _print_workload(result)
        results[workload] = result
    report = {
        "bench": "perf",
        "seed": args.seed,
        "smoke": args.smoke,
        "provenance": harness.provenance(),
        "workloads": results,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    correct = all(r["correct"] for r in results.values())
    if args.write_expected and correct:
        expected = {
            "seed": 0,
            "workloads": {w: r["digests"] for w, r in results.items()},
        }
        with open(harness.EXPECTED_PATH, "w", encoding="utf-8") as handle:
            json.dump(expected, handle, indent=1)
            handle.write("\n")
        print(f"wrote {harness.EXPECTED_PATH}")
    return 0 if correct else 1


def cmd_compare(args) -> int:
    loaded = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as handle:
            loaded.append(json.load(handle))
    lines, ok = compare(*loaded)
    print("\n".join(lines))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure every workload")
    run.add_argument("--seed", type=int, default=0, help="added to every spec seed")
    run.add_argument("--out", default="perf_result.json", help="result JSON path")
    run.add_argument("--smoke", action="store_true", help="3 specs per workload, 1 pass")
    run.add_argument(
        "--write-expected",
        action="store_true",
        help="regenerate expected.json from this run (seed 0)",
    )
    run.set_defaults(func=cmd_run)
    cmp = sub.add_parser("compare", help="compare two run results (A = base)")
    cmp.add_argument("a")
    cmp.add_argument("b")
    cmp.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
