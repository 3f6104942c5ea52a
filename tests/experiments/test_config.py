"""Tests asserting Table 2's parameters are encoded faithfully."""

import inspect

from repro.array.controller import ArrayController
from repro.disk import hp2247
from repro.experiments import config
from repro.workload.spec import PAPER_ACCESS_SIZES_KB, PAPER_CLIENT_COUNTS


class TestTable2:
    def test_array_shape(self):
        assert config.PAPER_DISKS == 13
        assert config.PAPER_STRIPE_WIDTH == 4
        assert config.PAPER_STRIPE_UNIT_KB == 8
        assert config.PAPER_SCHEDULER == "sstf"
        assert config.PAPER_SCHEDULER_WINDOW == 20

    def test_controller_defaults_are_table_2(self):
        # The experiment drivers build arrays with the controller's
        # defaults, so those defaults are the paper's configuration.
        params = inspect.signature(ArrayController).parameters
        assert params["scheduler_name"].default == config.PAPER_SCHEDULER
        assert (
            params["scheduler_window"].default
            == config.PAPER_SCHEDULER_WINDOW
        )
        assert (
            params["stripe_unit_kb"].default == config.PAPER_STRIPE_UNIT_KB
        )

    def test_workload_parameters(self):
        assert PAPER_ACCESS_SIZES_KB[0] == 8
        assert PAPER_ACCESS_SIZES_KB[-1] == 336
        assert PAPER_CLIENT_COUNTS == (1, 2, 4, 8, 10, 15, 20, 25)

    def test_disk_parameters(self):
        assert hp2247.CYLINDERS == 1981
        assert hp2247.HEADS == 13
        assert hp2247.ZONES == 8
        assert hp2247.RPM == 5400.0
        assert hp2247.AVERAGE_SEEK_MS == 10.0
        # 5400 RPM -> 11.12 ms/rev (Table 2 value, rounded).
        assert abs(60_000 / hp2247.RPM - 11.12) < 0.01

    def test_five_layouts(self):
        layouts = config.paper_layouts()
        assert set(layouts) == {
            "datum", "parity-declustering", "raid5", "pddl", "prime",
        }
        for name, layout in layouts.items():
            expected_k = 13 if name == "raid5" else 4
            assert layout.k == expected_k, name
            assert layout.n == 13

    def test_capacity_overheads_match_section4(self):
        layouts = config.paper_layouts()
        assert abs(layouts["raid5"].parity_overhead - 0.077) < 0.001
        for name in ("prime", "datum", "parity-declustering"):
            assert abs(layouts[name].parity_overhead - 0.25) < 1e-9
        assert abs(layouts["pddl"].parity_overhead - 0.231) < 0.001
        assert abs(layouts["pddl"].spare_overhead - 0.077) < 0.001
