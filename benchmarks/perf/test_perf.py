"""Tests for the benchmark harness: ``pytest benchmarks/perf`` (under 30 s)."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

from benchmarks.perf import harness, workloads
from benchmarks.perf.compare import compare, verdict
from benchmarks.perf.layers import (
    DECLARED_PER_LAYER,
    LAYER_PACKAGES,
    LAYERS,
    PER_LAYER_NAMES,
    layer_of,
)

SRC_REPRO = os.path.join(workloads.ROOT, "src", "repro")
BENCHMARK_JSON = os.path.join(workloads.ROOT, "BENCHMARK.json")


def _declared() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_package_maps_to_exactly_one_layer():
    packages = [
        name
        for name in sorted(os.listdir(SRC_REPRO))
        if os.path.isfile(os.path.join(SRC_REPRO, name, "__init__.py"))
    ]
    assert packages
    for package in packages:
        owners = [layer for layer, owned in LAYER_PACKAGES.items() if package in owned]
        assert len(owners) == 1, (package, owners)
        module = os.path.join(SRC_REPRO, package, "__init__.py")
        assert layer_of(module, SRC_REPRO) == owners[0]
    assert layer_of(os.path.join(SRC_REPRO, "cli.py"), SRC_REPRO) == "runner"
    assert layer_of(json.__file__, SRC_REPRO) == "python"
    assert layer_of("~", SRC_REPRO) == "python"


def test_digest_ignores_spec_hash_but_catches_a_one_float_change():
    record = {"spec_hash": "aa", "point": {"mean_response_ms": 12.5, "samples": 240}}
    rehashed = dict(record, spec_hash="bb")
    nudged = {
        "spec_hash": "aa",
        "point": {"mean_response_ms": math.nextafter(12.5, 13.0), "samples": 240},
    }
    assert workloads.record_digest(record) == workloads.record_digest(rehashed)
    assert workloads.record_digest(record) != workloads.record_digest(nudged)


def _summary(samples):
    return harness.summary(list(samples), "s")


def _result(walls, counts=None, digests=("d1", "d2")):
    return {
        "seed": 0,
        "smoke": False,
        "workloads": {
            "fig_reads": {
                "e2e": {"wall_s": _summary(walls)},
                "per_layer": dict(counts or {"array.accesses": 10, "array.share": 0.3}),
                "digests": list(digests),
            }
        },
    }


@pytest.mark.parametrize(
    "base, cand, expected",
    [
        ((10.0, 10.1, 10.2), (10.0, 10.3, 10.4), "ok"),
        ((10.0, 10.1, 10.2), (13.0, 13.1, 13.2), "worse"),
        ((10.0, 10.1, 10.2), (7.0, 7.1, 7.2), "better"),
        ((10.0, 10.1, 14.0), (10.0, 10.1, 10.2), "unresolved"),
    ],
)
def test_verdicts(base, cand, expected):
    assert verdict("wall_s", _summary(base), _summary(cand)) == expected


def test_compare_fails_on_worse_count_or_digest_and_passes_otherwise():
    base = _result((10.0, 10.1, 10.2))
    assert compare(base, _result((10.0, 10.2, 10.3)))[1]
    assert not compare(base, _result((14.0, 14.1, 14.2)))[1]
    moved = _result((10.0, 10.1, 10.2), counts={"array.accesses": 11, "array.share": 0.3})
    assert not compare(base, moved)[1]
    reshared = _result((10.0, 10.1, 10.2), counts={"array.accesses": 10, "array.share": 0.4})
    assert compare(base, reshared)[1]
    assert not compare(base, _result((10.0, 10.1, 10.2), digests=("d1", "dX")))[1]


def test_declared_metrics_match_the_harness():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    for metric in declared["end_to_end"]:
        unit, bound = harness.E2E[metric["name"]]
        assert (metric["unit"], metric["bound"]) == (unit, bound)
    assert [m["name"] for m in declared["per_layer"]] == list(DECLARED_PER_LAYER)
    assert set(DECLARED_PER_LAYER) <= set(PER_LAYER_NAMES)


def test_smoke_run_emits_every_declared_metric(tmp_path):
    out = tmp_path / "smoke.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(workloads.ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "run", "--smoke", "--out", str(out)],
        cwd=workloads.ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(out.read_text())
    declared = _declared()
    for name in workloads.WORKLOADS:
        result = report["workloads"][name]
        assert result["correct"] and result["failed"] == 0, result["problems"]
        # One timed pass and one traced pass; the cached workload also
        # replays warm.
        runs = 2 + (name in workloads.CACHED)
        assert result["attempted"] == runs * workloads.SMOKE_SPECS
        for metric in declared["end_to_end"]:
            assert result["e2e"][metric["name"]]["median"] > 0
        layer = result["per_layer"]
        assert set(layer) == set(PER_LAYER_NAMES)
        assert {m["name"] for m in declared["per_layer"]} <= set(layer)
        covered = sum(layer[f"{owner}.self_s"] for owner in LAYERS)
        assert covered >= 0.9 * layer["trace.wall_s"]
