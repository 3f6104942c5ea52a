"""Stripe tables, spare cells and failure tables pinned in
``tests/data/layout_tables.json`` (see ``tests/layouts/layout_pins.py``)."""

import json

from tests.layouts.layout_pins import PINS_PATH, compute_digests, is_tier1


def test_layouts_match_their_pins():
    with open(PINS_PATH, "r", encoding="utf-8") as handle:
        pinned = json.load(handle)
    assert len(pinned) == 163
    digests = compute_digests(tier1_only=True)
    assert sorted(digests) == sorted(key for key in pinned if is_tier1(key))
    for key, digest in digests.items():
        assert digest == pinned[key], (
            f"{key}: a stripe table, spare cell or failure table moved."
            "  If the layout changed on purpose, regenerate with"
            " `python -m tests.layouts.layout_pins`."
        )
