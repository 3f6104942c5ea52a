"""Tests for the response-time experiment driver (integration level)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.response import run_response_point_instrumented
from repro.runner import (
    ExperimentSpec,
    curves_from_records,
    execute_spec,
    response_sweep_specs,
)

FAST = dict(max_samples=120, warmup=10)


def simulate_point(layout, size_kb, clients, is_write=False, **fields):
    spec = ExperimentSpec(
        layout=layout,
        size_kb=size_kb,
        is_write=is_write,
        clients=clients,
        **fields,
    )
    return run_response_point_instrumented(spec).point


def run_panel(layouts, size_kb, clients):
    """One fault-free read panel, ``{layout: ResponseCurve}``."""
    specs = response_sweep_specs(
        [size_kb], clients, False, "ff", FAST["max_samples"],
        layouts=layouts, warmup=FAST["warmup"],
    )
    records = [execute_spec(spec) for spec in specs]
    return curves_from_records(records)[size_kb]


class TestSinglePoint:
    def test_point_fields(self):
        point = simulate_point("raid5", 8, clients=2, **FAST)
        assert point.layout == "raid5"
        assert point.samples == 120
        assert point.mean_response_ms > 0
        assert point.throughput_per_s > 0
        assert point.seek_mix.total > 0

    def test_deterministic_for_seed(self):
        a = simulate_point("pddl", 8, 2, seed=3, **FAST)
        b = simulate_point("pddl", 8, 2, seed=3, **FAST)
        assert a.mean_response_ms == b.mean_response_ms

    def test_different_seeds_differ(self):
        a = simulate_point("pddl", 8, 2, seed=3, **FAST)
        b = simulate_point("pddl", 8, 2, seed=4, **FAST)
        assert a.mean_response_ms != b.mean_response_ms

    def test_degraded_mode(self):
        point = simulate_point("pddl", 48, 4, mode="f1", **FAST)
        assert point.mode == "degraded"

    def test_post_reconstruction_mode(self):
        point = simulate_point("pddl", 8, 4, mode="post", **FAST)
        assert point.mode == "post-reconstruction"

    def test_zero_clients_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_point("pddl", 8, 0, **FAST)

    def test_stopping_rule_convergence(self):
        # The paper's run-length rule: 2% relative precision at 95%.
        point = simulate_point("raid5", 8, 1, max_samples=5000, warmup=10)
        assert point.converged
        assert point.samples < 5000


class TestCurvesAndFigures:
    def test_curve_shape(self):
        curve = run_panel(["raid5"], 8, [1, 4])["raid5"]
        assert [p.clients for p in curve.points] == [1, 4]

    def test_response_grows_with_load(self):
        curve = run_panel(["pddl"], 96, [1, 25])["pddl"]
        assert (
            curve.points[1].mean_response_ms > curve.points[0].mean_response_ms
        )

    def test_throughput_grows_with_load(self):
        curve = run_panel(["pddl"], 96, [1, 25])["pddl"]
        assert (
            curve.points[1].throughput_per_s > curve.points[0].throughput_per_s
        )

    def test_figure_panel(self):
        panel = run_panel(["raid5", "pddl"], 8, [1])
        assert set(panel) == {"raid5", "pddl"}


class TestPaperShapes:
    """Spot-check the paper's qualitative claims at reduced sample counts."""

    def test_8kb_reads_similar_across_layouts(self):
        # §4.1: "In the 8KB case, performance is very similar".
        points = {
            name: simulate_point(name, 8, 4, seed=1, **FAST)
            .mean_response_ms
            for name in ("pddl", "raid5", "datum")
        }
        spread = max(points.values()) / min(points.values())
        assert spread < 1.25

    def test_light_load_prime_beats_datum(self):
        # §4.1: PRIME among the very best, DATUM poor, for light workloads.
        prime = simulate_point("prime", 96, 1, seed=1, **FAST)
        datum = simulate_point("datum", 96, 1, seed=1, **FAST)
        assert prime.mean_response_ms < datum.mean_response_ms

    def test_raid5_degraded_reads_collapse(self):
        # §4.1: "RAID-5's run-time performance degrades significantly; this
        # phenomenon is the rationale for declustering."
        ff = simulate_point("raid5", 48, 8, seed=1, **FAST)
        f1 = simulate_point("raid5", 48, 8, seed=1, mode="f1", **FAST)
        pddl_ff = simulate_point("pddl", 48, 8, seed=1, **FAST)
        pddl_f1 = simulate_point("pddl", 48, 8, seed=1, mode="f1", **FAST)
        raid5_blowup = f1.mean_response_ms / ff.mean_response_ms
        pddl_blowup = pddl_f1.mean_response_ms / pddl_ff.mean_response_ms
        assert raid5_blowup > pddl_blowup

    def test_raid5_writes_suffer_at_48kb(self):
        # §4.2: RAID-5 much slower than declustered layouts for 48KB writes
        # (small writes vs frequent full-stripe writes).
        raid5 = simulate_point("raid5", 48, 8, is_write=True, seed=1, **FAST)
        pddl = simulate_point("pddl", 48, 8, is_write=True, seed=1, **FAST)
        assert raid5.mean_response_ms > pddl.mean_response_ms

    def test_degraded_writes_not_worse_for_declustered(self):
        # §4.2: declustered degraded writes are slightly *better* than
        # fault-free (the failed disk cannot be written).
        ff = simulate_point("pddl", 192, 8, is_write=True, seed=1, **FAST)
        f1 = simulate_point(
            "pddl", 192, 8, is_write=True, seed=1, mode="f1", **FAST
        )
        assert f1.mean_response_ms < ff.mean_response_ms * 1.1
