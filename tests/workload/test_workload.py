"""Tests for access specs, generators, and closed-loop clients."""

import random

import pytest

from repro.array.controller import ArrayController
from repro.errors import ConfigurationError
from repro.layouts import make_layout
from repro.sim.engine import SimulationEngine
from repro.workload.client import (
    CLIENT_ID_STRIDE,
    ClosedLoopClient,
    start_clients,
)
from repro.workload.generators import (
    SequentialGenerator,
    UniformGenerator,
    ZipfGenerator,
)
from repro.workload.spec import (
    PAPER_ACCESS_SIZES_KB,
    PAPER_CLIENT_COUNTS,
    AccessSpec,
)


class TestAccessSpec:
    def test_units(self):
        assert AccessSpec(8, False).units() == 1
        assert AccessSpec(336, True).units() == 42

    def test_unaligned_rejected(self):
        with pytest.raises(ConfigurationError):
            AccessSpec(12, False).units(8)

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigurationError):
            AccessSpec(0, False)

    def test_labels(self):
        assert AccessSpec(96, False).label() == "96KB reads"
        assert AccessSpec(96, True).label() == "96KB writes"

    def test_paper_constants(self):
        assert len(PAPER_ACCESS_SIZES_KB) == 13
        assert PAPER_CLIENT_COUNTS == (1, 2, 4, 8, 10, 15, 20, 25)
        for size in PAPER_ACCESS_SIZES_KB:
            assert size % 8 == 0


class TestGenerators:
    def test_uniform_in_range(self):
        gen = UniformGenerator(1000, 12, random.Random(1))
        for _ in range(500):
            start = gen.next_start()
            assert 0 <= start <= 988

    def test_sequential_wraps(self):
        gen = SequentialGenerator(30, 10)
        starts = [gen.next_start() for _ in range(5)]
        assert starts == [0, 10, 20, 0, 10]

    def test_zipf_prefers_front(self):
        gen = ZipfGenerator(10_000, 1, random.Random(2), theta=1.2)
        starts = [gen.next_start() for _ in range(2000)]
        front = sum(1 for s in starts if s < 5000)
        assert front > 1400  # heavily skewed toward the start

    def test_zipf_in_range(self):
        gen = ZipfGenerator(1000, 8, random.Random(3))
        for _ in range(500):
            assert 0 <= gen.next_start() <= 992

    def test_invalid_shapes(self):
        with pytest.raises(ConfigurationError):
            UniformGenerator(5, 10, random.Random(1))
        with pytest.raises(ConfigurationError):
            SequentialGenerator(10, 0)
        with pytest.raises(ConfigurationError):
            ZipfGenerator(100, 1, random.Random(1), theta=0)


class TestClosedLoopClient:
    def _build(self):
        engine = SimulationEngine()
        controller = ArrayController(engine, make_layout("raid5", 13, 13))
        return engine, controller

    def test_client_reissues_until_stopped(self):
        engine, controller = self._build()
        responses = []

        def on_response(client, access, ms):
            responses.append(ms)
            return len(responses) < 5

        gen = UniformGenerator(
            controller.addressable_data_units, 1, random.Random(0)
        )
        ClosedLoopClient(
            0, controller, gen, AccessSpec(8, False), on_response
        ).start()
        engine.run()
        assert len(responses) == 5
        assert controller.completed_accesses == 5

    def test_distinct_access_ids_across_clients(self):
        engine, controller = self._build()
        seen = set()

        def on_response(client, access, ms):
            assert access.access_id not in seen
            seen.add(access.access_id)
            return len(seen) < 6

        for c in range(3):
            gen = UniformGenerator(
                controller.addressable_data_units, 1, random.Random(c)
            )
            ClosedLoopClient(
                c, controller, gen, AccessSpec(8, False), on_response
            ).start()
        engine.run()
        assert len(seen) >= 6


class TestStartClients:
    @staticmethod
    def _trace(start):
        engine = SimulationEngine()
        controller = ArrayController(engine, make_layout("raid5", 13, 13))
        seen = []

        def on_response(client, access, ms):
            seen.append((access, engine.now))
            return len(seen) < 30

        start(controller, on_response)
        engine.run()
        return seen

    def test_matches_hand_built_clients(self):
        spec = AccessSpec(16, True)

        def by_hand(controller, on_response):
            for c in range(3):
                gen = UniformGenerator(500, 2, random.Random(f"s/{c}"))
                ClosedLoopClient(
                    4 + c, controller, gen, spec, on_response
                ).start()

        def shared(controller, on_response):
            start_clients(
                controller,
                spec,
                on_response,
                (f"s/{c}" for c in range(3)),
                total_units=500,
                first_id=4,
            )

        seen = self._trace(shared)
        assert seen == self._trace(by_hand)
        assert {a.access_id // CLIENT_ID_STRIDE for a, _ in seen} == {
            4, 5, 6
        }
        assert all(a.first_unit + 2 <= 500 for a, _ in seen)

    def test_defaults_span_every_data_unit(self):
        def shared(controller, on_response):
            start_clients(
                controller, AccessSpec(8, False), on_response, ["only"]
            )

        seen = self._trace(shared)
        assert [a.access_id for a, _ in seen] == list(range(30))
