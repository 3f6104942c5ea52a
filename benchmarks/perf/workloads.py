"""The four benchmark workloads, as spec lists, and their record digests.

Each workload is a fixed list of runner specs.  ``seed`` is added to
every spec seed, so the same seed always builds the same list.  The
lists are cut the way the paper argues PDDL against RAID-5: reads and
writes, fault-free, degraded and post-reconstruction, plus the
Monte-Carlo and defended trial kinds the figure sweeps never reach.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

WORKLOADS = ("fig_reads", "fig_writes", "mc_campaign", "defended_trials")

FIG_SIZES_KB = (8, 48, 96, 240)
FIG_CLIENTS = (1, 4, 10, 25)

#: The committed sweeps ``defended_trials`` rebuilds, in run order.
DEFENDED_KINDS = ("nemesis", "corruption", "failslow", "traffic")


def _fig_specs(is_write: bool, modes, samples: int, seed: int) -> list:
    from repro.runner.figures import response_sweep_specs

    return [
        spec
        for mode in modes
        for spec in response_sweep_specs(
            FIG_SIZES_KB, FIG_CLIENTS, is_write, mode, samples, seed=seed
        )
    ]


def fig_reads(seed: int) -> list:
    """Figures 5, 6 and 18: reads in every array mode."""
    return _fig_specs(False, ("ff", "f1", "post"), 240, seed)


def fig_writes(seed: int) -> list:
    """Figures 8 and 9: fault-free and degraded writes."""
    return _fig_specs(True, ("ff", "f1"), 160, seed)


def mc_campaign(seed: int) -> list:
    """Monte-Carlo double-fault trials: setup-heavy, event-light."""
    from repro.experiments.campaign import campaign_specs
    from repro.experiments.config import PAPER_LAYOUT_NAMES

    return [
        spec
        for layout in PAPER_LAYOUT_NAMES
        for spec in campaign_specs(
            layout=layout,
            trials=400,
            seed=14 + seed,
            mttf_hours=0.03,
            faults=2,
            degraded_dwell_ms=4000.0,
            rebuild_rows=26,
            clients=0,
        )
    ]


def defended_sweeps(seed: int) -> Dict[str, list]:
    """The committed defended sweeps, rebuilt from each baseline's
    ``config`` block with ``seed`` added to the sweep seed."""
    from repro.experiments.corruption import corruption_specs
    from repro.experiments.failslow import failslow_specs
    from repro.experiments.nemesistrial import nemesis_specs
    from repro.experiments.openloop import openloop_specs

    builders: Dict[str, Callable[..., list]] = {
        "nemesis": nemesis_specs,
        "corruption": corruption_specs,
        "failslow": failslow_specs,
        "traffic": openloop_specs,
    }
    sweeps = {}
    for kind in DEFENDED_KINDS:
        config = dict(load_baseline(kind)["config"])
        config["seed"] += seed
        sweeps[kind] = builders[kind](**config)
    return sweeps


def defended_trials(seed: int) -> list:
    """Journal, retries, hedging, checksums, scrub, oracle, admission."""
    return [
        spec for specs in defended_sweeps(seed).values() for spec in specs
    ]


BUILDERS: Dict[str, Callable[[int], list]] = {
    "fig_reads": fig_reads,
    "fig_writes": fig_writes,
    "mc_campaign": mc_campaign,
    "defended_trials": defended_trials,
}


#: Workloads that run into a fresh result cache and replay from it.
CACHED = frozenset({"mc_campaign"})

#: Specs per workload in a ``--smoke`` run.
SMOKE_SPECS = 3


def build(workload: str, seed: int, smoke: bool = False) -> list:
    specs = BUILDERS[workload](seed)
    return specs[:SMOKE_SPECS] if smoke else specs


def load_baseline(kind: str) -> dict:
    with open(os.path.join(ROOT, f"BENCH_{kind}.json"), encoding="utf-8") as f:
        return json.load(f)


def record_digest(record: dict) -> str:
    """sha256 of a record's canonical JSON, ``spec_hash`` left out.

    ``spec_hash`` is excluded so that redefining the hash (a cache-key
    change) does not read as a change in what was simulated; every
    simulated value, down to the last float digit, is covered.
    """
    body = {key: value for key, value in record.items() if key != "spec_hash"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def distinct_layouts(specs: List) -> List[tuple]:
    """The distinct ``(layout, disks, width)`` triples of a spec list."""
    seen: Dict[tuple, None] = {}
    for spec in specs:
        seen.setdefault((spec.layout, spec.disks, spec.width), None)
    return list(seen)
