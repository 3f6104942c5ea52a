"""Layouts are built once per process: shared instances, identical records.

:func:`repro.experiments.config.layout_for` memoizes one layout per
resolved ``(name, n, k)``, so every spec a process runs shares it.  The
one hard contract is that sharing never shows in a record: a spec's
record is byte-identical whether it is the first thing a fresh process
runs or comes after other specs have filled the shared layout's lazy
tables.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import (
    PAPER_LAYOUT_NAMES,
    _build_layout,
    layout_for,
    paper_layouts,
)
from repro.runner import canonical_json, execute_spec
from repro.runner.spec import (
    MODES,
    CampaignTrialSpec,
    CrashTrialSpec,
    ExperimentSpec,
    NemesisTrialSpec,
    OpenLoopSpec,
)

SRC = Path(__file__).resolve().parents[2] / "src"


def campaign(layout, trial=0, **overrides):
    config = dict(
        layout=layout,
        disks=13,
        trial=trial,
        seed=5,
        mttf_hours=0.03,
        faults=2,
        degraded_dwell_ms=4000.0,
        rebuild_rows=26,
    )
    config.update(overrides)
    return CampaignTrialSpec(**config)


def response(layout, mode, **overrides):
    config = dict(
        layout=layout,
        size_kb=24,
        clients=2,
        mode=mode,
        seed=3,
        max_samples=30,
        warmup=5,
    )
    config.update(overrides)
    return ExperimentSpec(**config)


#: Every paper layout in every response mode, plus a campaign trial per
#: layout whose foreground clients ride through degraded, rebuild and
#: post-reconstruction operation.
SPECS = [
    response(layout, mode) for layout in PAPER_LAYOUT_NAMES for mode in MODES
] + [campaign(layout, clients=2) for layout in PAPER_LAYOUT_NAMES]

#: Runs each spec on freshly built layouts in a new interpreter: the
#: memo is emptied before every spec, so nothing is shared or warm.
_COLD_SCRIPT = """
import sys
from repro.experiments.config import _build_layout
from repro.runner import canonical_json, execute_spec
from tests.runner.test_layout_memo import SPECS

records = []
for spec in SPECS:
    _build_layout.cache_clear()
    records.append(execute_spec(spec))
sys.stdout.write(canonical_json(records))
"""


def cold_records() -> str:
    root = SRC.parent
    env = dict(os.environ)
    caller = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(root)] + ([caller] if caller else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_SCRIPT],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestIdentity:
    def test_layout_is_built_once_per_shape(self):
        assert layout_for("pddl") is layout_for("pddl", disks=13, width=4)
        assert layout_for("raid5") is layout_for("raid5", width=13)
        assert layout_for("datum", width=4) is layout_for("datum")

    def test_distinct_shapes_are_distinct_objects(self):
        assert layout_for("pddl") is not layout_for("datum")
        assert layout_for("raid5") is not layout_for("raid5", disks=5)
        assert layout_for("datum") is not layout_for("datum", width=3)
        assert layout_for("datum", width=3).k == 3

    def test_paper_layouts_share_the_memo(self):
        for name, layout in paper_layouts().items():
            assert layout is layout_for(name)

    def test_invalid_shape_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                layout_for("pddl", disks=12)


class TestByteIdentity:
    def test_warm_records_match_cold_exactly(self):
        # Warm every shared layout with other specs first: writes,
        # different sizes and seeds, and the spec list itself in reverse.
        warmup = [
            response(layout, "f1", is_write=True, size_kb=48, seed=9)
            for layout in PAPER_LAYOUT_NAMES
        ] + [campaign(layout, trial=4) for layout in PAPER_LAYOUT_NAMES]
        for spec in warmup + SPECS[::-1]:
            execute_spec(spec)
        for name in PAPER_LAYOUT_NAMES:
            assert layout_for(name)._locate_grid is not None  # warm
        warm = [execute_spec(spec) for spec in SPECS]
        assert canonical_json(warm) == cold_records()

    def test_order_is_irrelevant(self):
        # The same mixed specs run forward from an empty memo and then
        # backward (a different first-builder and warm-table pattern per
        # layout) produce the same bytes for every spec.
        specs = [
            campaign("pddl", 0),
            campaign("pddl", 1, clients=2, size_kb=8),
            campaign("pddl", 2, oracle=True),
            CrashTrialSpec(layout="pddl", crash_boundary=150),
            NemesisTrialSpec(layout="pddl", seed=11, trial=4, max_samples=60),
            OpenLoopSpec(layout="pddl", rate_per_s=300.0, arrivals=60),
            campaign("pddl", 3),
        ]
        _build_layout.cache_clear()
        forward = [execute_spec(spec) for spec in specs]
        backward = [execute_spec(spec) for spec in reversed(specs)]
        by_hash = {record["spec_hash"]: record for record in backward}
        for record in forward:
            assert canonical_json(record) == canonical_json(
                by_hash[record["spec_hash"]]
            )


class TestWorkerParity:
    @pytest.mark.parametrize("workers", [2])
    def test_hardened_pool_matches_serial(self, workers):
        from repro.runner.workers import run_hardened

        specs = [campaign("pddl", trial) for trial in range(4)]
        serial = [execute_spec(spec) for spec in specs]
        pooled = run_hardened(specs, workers=workers)
        assert canonical_json(pooled) == canonical_json(serial)
