"""Parent side of the benchmark: spawns one child at a time, times
set-up from outside, checks every record digest, and assembles the
end-to-end and per-layer metrics of one workload.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from benchmarks.perf import workloads
from benchmarks.perf.layers import PER_LAYER_NAMES

#: End-to-end metric -> (unit, regression bound as a share of the
#: baseline median), as declared in BENCHMARK.json.  The time bounds are
#: wide because on a shared 2-vCPU VM the host's speed drifts: over ten
#: seeded runs the quartile spread of ``wall_s`` was 6-17% of its median.
#: ``failed_frac`` may not rise at all; it is 0, so BENCHMARK.json
#: reports it as ``failed`` over ``attempted`` instead.
E2E = {
    "wall_s": ("s", 0.25),
    "setup_s": ("s", 0.25),
    "peak_rss_mb": ("MiB", 0.10),
    "failed_frac": ("ratio", 0.0),
}

PROBES = 9
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
TMP_ROOT = os.path.join(workloads.ROOT, ".perf_tmp")


class HarnessError(RuntimeError):
    """A child process failed to start, crashed or timed out."""


def child_env() -> Dict[str, str]:
    """The environment every child runs in.

    ``REPRO_*`` knobs are dropped so neither side of a comparison can
    pick another engine, worker count or cache; numeric libraries are
    held to one thread so a child is single-threaded end to end.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.path.join(workloads.ROOT, "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _child_argv(mode: str, workload: str, seed: int, smoke: bool, *extra: str) -> List[str]:
    argv = [sys.executable, "-m", "benchmarks.perf.child", mode, workload, str(seed)]
    if smoke:
        argv.append("--smoke")
    return argv + list(extra)


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise HarnessError("benchmark deadline passed")
    return left


def run_child(argv: List[str], deadline: float) -> dict:
    """Run one child to completion and parse its last output line."""
    try:
        done = subprocess.run(
            argv,
            cwd=workloads.ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=_remaining(deadline),
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"child timed out: {' '.join(argv[3:])}") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise HarnessError(
            f"child {' '.join(argv[3:])} exited {done.returncode}:\n"
            + done.stderr[-2000:]
        )
    return json.loads(lines[-1])


def probe_setup_s(workload: str, seed: int, smoke: bool, deadline: float) -> float:
    """Seconds from spawning a child until it reports set-up done."""
    started = time.perf_counter()
    child = subprocess.Popen(
        _child_argv("probe", workload, seed, smoke),
        cwd=workloads.ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        readable, _, _ = select.select([child.stdout], [], [], _remaining(deadline))
        line = child.stdout.readline() if readable else ""
        elapsed = time.perf_counter() - started
        child.stdout.close()
        code = child.wait(timeout=_remaining(deadline))
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if line.strip() != "ready" or code != 0:
        raise HarnessError(f"set-up probe for {workload} exited {code}")
    return elapsed


def summary(samples: List[float], unit: str) -> dict:
    return {
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "unit": unit,
        "samples": samples,
    }


def expected_digests(workload: str, seed: int) -> Optional[List[str]]:
    """The committed per-spec digests, which exist for seed 0 only."""
    if seed != 0:
        return None
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)["workloads"][workload]


def loadavg() -> float:
    return os.getloadavg()[0]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _check_digests(runs: List[dict], reference: List[str], spec_count: int):
    """Specs attempted and failed over all runs, and what went wrong.

    A spec fails when its pass raised or its record digest differs from
    the reference at the same position.
    """
    attempted = failed = 0
    problems: List[str] = []
    for run in runs:
        attempted += spec_count
        if "error" in run:
            failed += spec_count
            problems.append("a pass raised:\n" + run["error"])
            continue
        failed += sum(
            got != want for got, want in itertools.zip_longest(run["digests"], reference)
        )
    if failed:
        problems.append(f"{failed} of {attempted} records differ from the reference")
    return attempted, failed, problems


def measure(
    workload: str,
    seed: int,
    *,
    passes: int,
    seconds: float = 0.0,
    probes: int = PROBES,
    trace: bool = True,
    smoke: bool = False,
    reference: Optional[List[str]] = None,
    deadline: Optional[float] = None,
) -> dict:
    """Measure one workload: ``probes`` set-up probes, one child for the
    timed passes, then (``trace``) one child for the cProfile pass.

    Correctness: every record digest of every pass (the warm replay and
    the traced pass too) must equal ``reference``, the committed digests
    at seed 0.  Without a reference, every pass must repeat the first
    pass's digests exactly.
    """
    if deadline is None:
        deadline = time.monotonic() + 3600.0
    load_before = loadavg()
    setup: List[float] = []

    def probe_until(share: float) -> None:
        # Probes are spread around the other children: the host's speed
        # drifts over seconds, and one burst of probes can land in a
        # slow spell.
        while len(setup) < round(probes * share):
            setup.append(probe_setup_s(workload, seed, smoke, deadline))

    os.makedirs(TMP_ROOT, exist_ok=True)
    try:
        probe_until(0.5)
        timed = run_child(
            _child_argv(
                "passes", workload, seed, smoke,
                "--tmp", TMP_ROOT,
                "--min-passes", str(passes),
                "--seconds", str(seconds),
            ),
            deadline,
        )
        probe_until(1.0)
        traced = (
            run_child(
                _child_argv("traced", workload, seed, smoke, "--tmp", TMP_ROOT),
                deadline,
            )
            if trace
            else None
        )
    finally:
        shutil.rmtree(TMP_ROOT, ignore_errors=True)
    load_after = loadavg()

    runs = [*timed["passes"], timed["replay"], traced]
    runs = [run for run in runs if run is not None]
    spec_count = timed["specs"]
    if reference is None:
        reference = next((r["digests"] for r in runs if "error" not in r), [])
    elif smoke:
        reference = reference[:spec_count]
    attempted, failed, problems = _check_digests(runs, reference, spec_count)
    if timed["replay"] is not None and timed["replay"].get("executed"):
        problems.append("the warm replay re-simulated specs")
    if seed == 0:
        for kind, got in timed.get("sweep_hashes", {}).items():
            committed = workloads.load_baseline(kind)["provenance"]["sweep_hash"]
            if got != committed:
                problems.append(f"{kind} sweep_hash {got} != committed {committed}")

    walls = [run["wall_s"] for run in timed["passes"] if "error" not in run]
    e2e = {"peak_rss_mb": summary([timed["rss_mb"]], "MiB")}
    if walls:
        e2e["wall_s"] = summary(walls, "s")
    if setup:
        e2e["setup_s"] = summary(setup, "s")
    e2e["failed_frac"] = summary([failed / attempted if attempted else 1.0], "ratio")

    result = {
        "workload": workload,
        "seed": seed,
        "specs": spec_count,
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "e2e": e2e,
        "digests": runs[0]["digests"],
        "loadavg": {
            "before": load_before,
            "after": load_after,
            "flagged": max(load_before, load_after) > nproc(),
        },
    }
    if traced is not None and "per_layer" in traced:
        per_layer = dict(traced["per_layer"])
        replay = timed["replay"]
        per_layer["runner.replay_s"] = replay["wall_s"] if replay and "wall_s" in replay else 0.0
        per_layer["trace.overhead"] = (
            per_layer["trace.wall_s"] / e2e["wall_s"]["median"] if walls else 0.0
        )
        result["per_layer"] = {name: per_layer[name] for name in PER_LAYER_NAMES}
    return result


def git_describe() -> str:
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=workloads.ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance() -> dict:
    return {
        "git_describe": git_describe(),
        "python": platform.python_version(),
        "nproc": nproc(),
    }
