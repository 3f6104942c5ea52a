"""Closed-loop clients.

Each simulated client issues one logical access, blocks until the array
completes it, and immediately issues the next — Table 2's workload model.
Response samples flow into a collector that may stop the run.
:func:`start_clients` starts the uniform clients every driver uses.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Optional

from repro.array.controller import ArrayController, LogicalAccess
from repro.workload.generators import LocationGenerator, UniformGenerator
from repro.workload.spec import AccessSpec

#: Each client owns a block of access ids: client c's i-th access has id
#: c * CLIENT_ID_STRIDE + i.
CLIENT_ID_STRIDE = 1 << 24

#: ``on_response(client, access, response_ms)``: True keeps the client
#: issuing, False stops it.
ClientCallback = Callable[["ClosedLoopClient", LogicalAccess, float], bool]


class ClosedLoopClient:
    """One synthetic client.

    ``on_response(client, access, response_ms)`` is called per completion
    and returns True to keep the client running, False to stop it.
    """

    def __init__(
        self,
        client_id: int,
        controller: ArrayController,
        generator: LocationGenerator,
        spec: AccessSpec,
        on_response: ClientCallback,
        stripe_unit_kb: int = 8,
    ):
        self.client_id = client_id
        self.controller = controller
        self.generator = generator
        self.spec = spec
        self.on_response = on_response
        self.units = spec.units(stripe_unit_kb)
        self.issued = 0

    def start(self) -> None:
        self._issue()

    def _issue(self) -> None:
        access = LogicalAccess(
            access_id=self.client_id * CLIENT_ID_STRIDE + self.issued,
            first_unit=self.generator.next_start(),
            unit_count=self.units,
            is_write=self.spec.is_write,
        )
        self.issued += 1
        self.controller.submit(access, self._completed)

    def _completed(self, access: LogicalAccess, response_ms: float) -> None:
        if self.on_response(self, access, response_ms):
            self._issue()


def start_clients(
    controller: ArrayController,
    spec: AccessSpec,
    on_response: ClientCallback,
    streams: Iterable[str],
    total_units: Optional[int] = None,
    first_id: int = 0,
) -> None:
    """Start one closed-loop client of ``spec`` accesses per stream name.

    Client ``first_id + i`` draws uniform starts over the first
    ``total_units`` data units (default: all of them) from
    ``random.Random`` seeded with the ``i``-th stream name; stripe units
    are 8 KB.  Each client issues its first access before the next
    client's generator is built.
    """
    if total_units is None:
        total_units = controller.addressable_data_units
    span = spec.units()
    for offset, stream in enumerate(streams):
        generator = UniformGenerator(total_units, span, random.Random(stream))
        ClosedLoopClient(
            first_id + offset, controller, generator, spec, on_response
        ).start()
