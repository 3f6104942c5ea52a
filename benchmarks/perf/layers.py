"""Per-layer metrics from one cProfile-traced pass.

Layers are measured from outside the program: self time is grouped by
the ``src/repro/<package>`` a function is defined in, and calls into a
few public functions at each layer boundary are counted.  cProfile adds
a fixed cost to every Python call, so call-heavy layers read about 3x
slower than untraced; compare shares and counts, not traced seconds.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

#: Layer -> the ``src/repro`` packages it owns.  ``runner`` also owns
#: the top-level modules; ``python`` is everything outside ``src/repro``
#: (stdlib, builtins, numpy).
LAYER_PACKAGES: Dict[str, Tuple[str, ...]] = {
    "sim": ("sim",),
    "array": ("array",),
    "disk": ("disk",),
    "layouts": ("layouts", "core", "designs", "gf"),
    "faults": ("faults", "reliability"),
    "traffic": ("traffic", "workload"),
    "experiments": ("experiments", "stats"),
    "runner": ("runner",),
    "python": (),
}
LAYERS = tuple(LAYER_PACKAGES)

_PACKAGE_LAYER = {
    package: layer
    for layer, packages in LAYER_PACKAGES.items()
    for package in packages
}

#: Counted boundary functions, as ``module:qualname``.  Resolved to code
#: objects at trace time, so a method is matched on its class
#: (``DiskServer.submit`` is not ``ArrayController.submit``).
COUNTED = {
    "array.accesses": "repro.array.controller:ArrayController.submit",
    "array.raw_ops": "repro.array.controller:ArrayController.submit_raw",
    "disk.ops": "repro.disk.drive:DiskDrive.service",
    "disk.pushes": "repro.disk.scheduler:Scheduler.push",
    "layouts.builds": "repro.layouts.registry:make_layout",
    "runner.spec_hash": "repro.runner.spec:spec_hash",
    "runner.cache_put": "repro.runner.cache:ResultCache.put",
    "runner.cache_get": "repro.runner.cache:ResultCache.get",
}

#: Address-mapping entry points counted wherever ``layouts/`` defines
#: them (every layout class overrides some of them).
LOOKUP_NAMES = frozenset(
    {
        "data_unit_cells",
        "data_unit_address",
        "stripe_units",
        "stripe_of_data_unit",
        "locate",
        "relocation_target",
    }
)

#: Per-layer metric names, in report order.
PER_LAYER_NAMES = tuple(
    f"{layer}.{stat}" for layer in LAYERS for stat in ("self_s", "share", "calls")
) + (
    "sim.events",
    "sim.events_per_access",
    "array.accesses",
    "array.raw_ops",
    "disk.ops",
    "disk.ops_per_access",
    "disk.queued_frac",
    "layouts.lookups",
    "layouts.lookups_per_access",
    "layouts.builds",
    "layouts.build_s",
    "runner.spec_hash_s",
    "runner.cache_put_s",
    "runner.cache_get_s",
    "runner.replay_s",
    "trace.wall_s",
    "trace.overhead",
)

#: Times that are exactly 0 on some workload, because it never enters
#: that layer or has no result cache.  ``run`` reports them; the
#: single-workload entry point and BENCHMARK.json leave them out, since
#: a time that reads 0 on every run measures nothing there.
ZERO_ON_SOME_WORKLOAD = (
    "faults.self_s",
    "traffic.self_s",
    "runner.cache_put_s",
    "runner.cache_get_s",
    "runner.replay_s",
)
DECLARED_PER_LAYER = tuple(
    name for name in PER_LAYER_NAMES if name not in ZERO_ON_SOME_WORKLOAD
)

#: Metrics that are exact counts: two runs of the same code and seed
#: must agree on them to the unit.
COUNT_SUFFIXES = ("calls", "accesses", "ops", "raw_ops", "lookups", "builds", "events")


def is_count(name: str) -> bool:
    return name.rsplit(".", 1)[-1] in COUNT_SUFFIXES


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if is_count(name):
        return "count"
    return "ratio"


def layer_of(filename: str, src_root: str) -> str:
    """The layer owning a profiled function's source file."""
    rel = os.path.relpath(os.path.abspath(filename), src_root)
    if rel.startswith(".."):
        return "python"
    head, sep, _ = rel.partition(os.sep)
    if not sep:
        return "runner"  # top-level module of the package
    return _PACKAGE_LAYER.get(head, "python")


def resolve_counted() -> Dict[str, Tuple[str, int, str]]:
    """Metric name -> the cProfile key of the counted function."""
    import importlib

    keys = {}
    for name, target in COUNTED.items():
        module_name, qualname = target.split(":")
        obj = importlib.import_module(module_name)
        for attr in qualname.split("."):
            obj = getattr(obj, attr)
        code = obj.__code__
        keys[name] = (code.co_filename, code.co_firstlineno, code.co_name)
    return keys


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    stats: Dict[tuple, tuple],
    src_root: str,
    trace_wall_s: float,
    events: int,
    counted_keys: Dict[str, Tuple[str, int, str]],
    wall_s: Optional[float] = None,
    replay_s: float = 0.0,
) -> Dict[str, float]:
    """Every per-layer metric from a ``pstats.Stats(...).stats`` table.

    ``stats`` maps ``(file, line, name)`` to ``(primitive calls, calls,
    self time, cumulative time, callers)``.  ``events`` is the engine
    event total the records report; ``wall_s`` is the untraced pass time
    the overhead ratio is taken against.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    lookups = 0
    layouts_dir = os.path.join(src_root, "layouts") + os.sep
    for (filename, _line, funcname), (prim, _nc, tt, _ct, _callers) in stats.items():
        layer = layer_of(filename, src_root)
        self_s[layer] += tt
        calls[layer] += prim
        if funcname in LOOKUP_NAMES and os.path.abspath(filename).startswith(layouts_dir):
            lookups += prim

    def counted(name: str) -> Tuple[int, float]:
        row = stats.get(counted_keys[name])
        return (row[0], row[3]) if row else (0, 0.0)

    total_self = sum(self_s.values())
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = _ratio(self_s[layer], total_self)
        metrics[f"{layer}.calls"] = calls[layer]
    accesses = counted("array.accesses")[0]
    disk_ops = counted("disk.ops")[0]
    builds, build_s = counted("layouts.builds")
    metrics.update(
        {
            "sim.events": events,
            "sim.events_per_access": _ratio(events, accesses),
            "array.accesses": accesses,
            "array.raw_ops": counted("array.raw_ops")[0],
            "disk.ops": disk_ops,
            "disk.ops_per_access": _ratio(disk_ops, accesses),
            "disk.queued_frac": _ratio(counted("disk.pushes")[0], disk_ops),
            "layouts.lookups": lookups,
            "layouts.lookups_per_access": _ratio(lookups, accesses),
            "layouts.builds": builds,
            "layouts.build_s": build_s,
            "runner.spec_hash_s": counted("runner.spec_hash")[1],
            "runner.cache_put_s": counted("runner.cache_put")[1],
            "runner.cache_get_s": counted("runner.cache_get")[1],
            "runner.replay_s": replay_s,
            "trace.wall_s": trace_wall_s,
            "trace.overhead": _ratio(trace_wall_s, wall_s) if wall_s else 0.0,
        }
    )
    return metrics
