"""The seven trial-sweep commands against their pinned ``--quick`` runs
and option tables (regenerate with ``python -m tests.cli_golden``)."""

import pytest

from tests.cli_golden import (
    DATA_DIR,
    SWEEPS,
    options_json,
    pinned_report,
    run_quick,
)


@pytest.mark.parametrize("kind", SWEEPS)
def test_quick_run_matches_pin(kind):
    text, report = run_quick(kind)
    assert text == (DATA_DIR / f"{kind}_quick.txt").read_text(
        encoding="utf-8"
    )
    assert report == pinned_report(kind)


def test_options_match_pin():
    assert options_json() == (DATA_DIR / "options.json").read_text(
        encoding="utf-8"
    )
