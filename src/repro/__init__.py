"""repro — Permutation Development Data Layout (PDDL) disk array
declustering, reproduced.

A full reimplementation of Schwarz, Steinberg & Burkhard's HPCA 1999 paper:
the PDDL layout family (Bose construction over GF(p^m), permutation
search, distributed sparing, wrapping), the comparison layouts (DATUM,
PRIME, Parity Declustering, left-symmetric RAID-5, Pseudo-Random), a
mechanical disk-array simulator in the RAIDframe mold, and drivers that
regenerate every table and figure of the paper's evaluation.

Quick start::

    from repro import pddl_for, check_layout

    layout = pddl_for(g=2, k=3)          # the paper's 7-disk example
    report = check_layout(layout)        # machine-checked goals #1-#8
    assert report.goals_met() == [1, 2, 3, 4, 6, 7, 8]

See ``examples/`` for simulation walk-throughs and ``benchmarks/`` for the
figure reproductions.
"""

from repro.array import ArrayController, ArrayMode, LogicalAccess, plan_access
from repro.array.reconstructor import Reconstructor
from repro.core import (
    BasePermutation,
    PDDLLayout,
    PermutationGroup,
    bose_base_permutation,
    pddl_for,
    search_permutation_group,
    wrapped_layout,
)
from repro.errors import ReproError
from repro.layouts import Layout, available_layouts, make_layout
from repro.layouts.properties import PropertyReport, check_layout
from repro.sim import SimulationEngine
from repro.workload import (
    AccessSpec,
    ClosedLoopClient,
    UniformGenerator,
    start_clients,
)

__version__ = "1.0.0"

__all__ = [
    "AccessSpec",
    "ArrayController",
    "ArrayMode",
    "BasePermutation",
    "ClosedLoopClient",
    "Layout",
    "LogicalAccess",
    "PDDLLayout",
    "PermutationGroup",
    "PropertyReport",
    "Reconstructor",
    "ReproError",
    "SimulationEngine",
    "UniformGenerator",
    "available_layouts",
    "bose_base_permutation",
    "check_layout",
    "make_layout",
    "pddl_for",
    "plan_access",
    "search_permutation_group",
    "start_clients",
    "wrapped_layout",
]
