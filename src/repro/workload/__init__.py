"""Synthetic workloads (paper Table 2).

Closed-loop clients each issue one fixed-size, stripe-unit-aligned logical
access at a uniformly random location, block until the array completes it,
and immediately repeat.  Sequential and Zipf generators are provided for
the extension benchmarks.
"""

from repro.workload.client import ClosedLoopClient, start_clients
from repro.workload.generators import (
    SequentialGenerator,
    UniformGenerator,
    ZipfGenerator,
)
from repro.workload.spec import AccessSpec

__all__ = [
    "AccessSpec",
    "ClosedLoopClient",
    "SequentialGenerator",
    "UniformGenerator",
    "ZipfGenerator",
    "start_clients",
]
