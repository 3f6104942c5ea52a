"""Record pins: each short spec in ``tests/runner/record_digests.py``
must reproduce its committed record digest exactly.
"""

import json

from tests.runner.record_digests import (
    DIGESTS_PATH,
    compute_digests,
    pinned_specs,
)


def _load_pinned():
    with open(DIGESTS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_pinned_specs_are_the_committed_ones():
    from repro.runner import spec_to_dict

    pinned = _load_pinned()
    assert {
        name: spec_to_dict(spec) for name, spec in pinned_specs().items()
    } == {name: entry["spec"] for name, entry in pinned.items()}


def test_records_match_their_committed_digests():
    pinned = _load_pinned()
    for name, entry in compute_digests().items():
        assert entry["digest"] == pinned[name]["digest"], (
            f"{name}: the record moved.  If the simulation changed on"
            " purpose, regenerate with"
            " `python -m tests.runner.record_digests`."
        )
