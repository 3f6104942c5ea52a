"""Experiment drivers — one per table/figure of the paper.

Each driver builds its configuration from :mod:`~repro.experiments.config`
(the paper's Table 2), runs the analytic tool or the simulator, and returns
plain data structures that the benchmark harness renders via
:mod:`~repro.experiments.report`.
"""

from repro.experiments.config import (
    PAPER_DISKS,
    PAPER_STRIPE_UNIT_KB,
    PAPER_STRIPE_WIDTH,
    paper_layout,
    paper_layouts,
)
from repro.experiments.response import ResponseCurve, ResponsePoint
from repro.experiments.seeks import run_seek_mix
from repro.experiments.workingset import figure3_table

__all__ = [
    "PAPER_DISKS",
    "PAPER_STRIPE_UNIT_KB",
    "PAPER_STRIPE_WIDTH",
    "ResponseCurve",
    "ResponsePoint",
    "figure3_table",
    "paper_layout",
    "paper_layouts",
    "run_seek_mix",
]
