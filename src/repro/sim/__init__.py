"""Discrete-event simulation kernel.

A small deterministic event engine in the RAIDframe tradition:
components schedule callbacks, the engine advances virtual time in
milliseconds.  One binary-heap scheduler with FIFO tie-breaking at
equal times.
"""

from repro.sim.engine import SimulationEngine
from repro.sim.random import RandomStreams

__all__ = [
    "SimulationEngine",
    "RandomStreams",
]
