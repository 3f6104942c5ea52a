"""PDDL — the paper's primary contribution.

Permutation Development Data Layout: a *base permutation* of the ``n = g*k +
s`` disks assigns each virtual RAID-4 column (spare, data, check) a starting
disk; row ``t`` of the physical array permutes the roles by *developing* the
permutation — adding ``t`` inside a finite field (modulo ``n``, XOR for ``n``
a power of two, digit-wise for other prime powers).  Satisfactory base
permutations (those meeting the distributed-reconstruction goal #3) come from
the Bose construction for prime-power ``n`` or from hill-climbing search,
possibly as groups of several permutations.

Public surface:

- :class:`~repro.core.permutation.BasePermutation` and
  :class:`~repro.core.development.Development` operators,
- :func:`~repro.core.bose.bose_base_permutation`, for every prime power,
- :class:`~repro.core.layout.PDDLLayout` (implements
  :class:`repro.layouts.Layout`, with distributed sparing),
- :func:`~repro.core.search.search_permutation_group` (Table 1),
- :mod:`~repro.core.tables` — the paper's published permutations,
- :func:`~repro.core.wrapping.wrapped_layout` — the PDDL-over-DATUM
  *wrapping* extension sketched in the paper's conclusions.
"""

from repro.core.bose import bose_base_permutation
from repro.core.development import (
    Development,
    DigitDevelopment,
    ModularDevelopment,
    XorDevelopment,
    development_for,
)
from repro.core.layout import PDDLLayout, pddl_for
from repro.core.permutation import BasePermutation, PermutationGroup
from repro.core.search import search_permutation_group
from repro.core.wrapping import WrappedLayout, wrapped_layout

__all__ = [
    "BasePermutation",
    "Development",
    "DigitDevelopment",
    "ModularDevelopment",
    "PDDLLayout",
    "PermutationGroup",
    "WrappedLayout",
    "XorDevelopment",
    "bose_base_permutation",
    "development_for",
    "pddl_for",
    "search_permutation_group",
    "wrapped_layout",
]
