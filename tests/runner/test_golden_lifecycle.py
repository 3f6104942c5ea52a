"""Golden lifecycle-trace regression tests.

The canonical 13-disk PDDL lifecycle run must reproduce its pinned
mode-transition timestamps, rebuild bookkeeping, and progress timeline
*exactly* — JSON round-trips doubles losslessly, so equality here is
bit-equality.  Guards the failure scheduling, the lifecycle state
machine, and the reconstructor against silent timing drift.
"""

import json

from tests.runner.golden_lifecycle import GOLDEN_PATH, generate_summary


def _load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestGoldenLifecycle:
    def test_summary_matches_exactly(self):
        golden = _load_golden()
        summary = generate_summary()
        for key, pinned in golden["summary"].items():
            assert summary[key] == pinned, (
                f"lifecycle diverges at {key!r}:\n"
                f"  ours:   {summary[key]}\n  pinned: {pinned}\n"
                "If the simulation semantics changed intentionally,"
                " regenerate with"
                " `python -m tests.runner.golden_lifecycle`"
                " and bump SPEC_SCHEMA_VERSION."
            )
        assert summary == golden["summary"]

    def test_summary_is_reproducible_within_process(self):
        assert generate_summary() == generate_summary()

    def test_golden_scenario_is_nontrivial(self):
        golden = _load_golden()
        summary = golden["summary"]
        assert [mode for mode, _ in summary["transitions"]] == [
            "fault-free",
            "degraded",
            "reconstruction",
            "post-reconstruction",
        ]
        # Every regime collected samples, and the rebuild did real work
        # under load (its finish time is queueing-dependent, not a round
        # number).
        assert all(count > 0 for count in summary["mode_counts"].values())
        assert summary["rebuild_steps"] == 24
        assert len(summary["progress"]) == 24
        assert summary["rebuild_duration_ms"] % 1 != 0
