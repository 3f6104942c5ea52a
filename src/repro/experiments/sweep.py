"""One declaration per trial sweep.

Each trial kind declares its sweep once, next to its spec builder: a
:class:`Sweep` instance named ``SWEEP`` in the module that
:data:`SWEEP_MODULES` names.  It holds the kind's config fields
(:class:`Flag`), its ``--quick`` values, ``summarize``, the printed
``lines``, ``project`` (one trial as the committed report records it)
and the ``bench --compare`` ``invariants``.  ``repro.cli`` builds one
subcommand per declaration and runs each through one ``_cmd_sweep``;
``repro.runner.benchcompare`` checks a report with the declaration its
``bench`` kind names.  A kind overrides a method only where it differs:
nemesis and campaign derive a few config keys, lifecycle writes its own
report shape.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import RunnerError

#: The module declaring each trial kind's ``SWEEP``, in CLI order.
SWEEP_MODULES = {
    "lifecycle": "repro.runner.figures",
    "campaign": "repro.experiments.campaign",
    "crash": "repro.experiments.crashtrial",
    "nemesis": "repro.experiments.nemesistrial",
    "traffic": "repro.experiments.openloop",
    "failslow": "repro.experiments.failslow",
    "corruption": "repro.experiments.corruption",
}

#: A :class:`Flag` default or type left to be derived.
DERIVED: Any = object()


def sweep_for(bench: str) -> Optional["Sweep"]:
    """The declared sweep of one bench kind, or None."""
    module = SWEEP_MODULES.get(bench)
    return None if module is None else importlib.import_module(module).SWEEP


def sweeps() -> List["Sweep"]:
    """Every declared sweep, in CLI order."""
    return [sweep_for(bench) for bench in SWEEP_MODULES]


def int_list(text: str) -> List[int]:
    """A comma-separated integer list (``--clients 1,4,10``)."""
    return [int(part) for part in text.split(",") if part]


@dataclass(frozen=True)
class Flag:
    """One sweep option and the builder keyword it sets.

    ``field`` is also the key of the committed report's ``config``
    block; None marks an option the sweep reads itself.  Unless given,
    the default is the builder keyword's default, else the spec field's,
    and the type follows the spec field's annotation, else the default.
    A bool default makes a ``store_true`` flag.
    """

    flag: str
    field: Optional[str]
    help: Optional[str] = None
    default: Any = DERIVED
    type: Any = DERIVED
    nargs: Optional[str] = None
    choices: Optional[Sequence[str]] = None
    short: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


DISKS = Flag("--disks", "disks", short="-n")
SEED = Flag("--seed", "seed")


class Sweep:
    """A trial sweep with the standard report; kinds override what
    differs."""

    bench: str
    help: str
    quick_help: str
    #: The class in :mod:`repro.runner.spec` whose fields give the
    #: flags their types and defaults.
    spec: str
    #: The key of each result record's trial block (None: the record).
    record: Optional[str]
    flags: Tuple[Flag, ...] = ()
    #: Options after the runner flags.
    tail: Tuple[Flag, ...] = ()
    #: ``--quick`` values by option dest; a flag given explicitly wins.
    quick: Dict[str, Any] = {}
    #: Builder keywords left out of the committed config block.
    unreported: Tuple[str, ...] = ()
    #: Trial keys the committed report copies as they are.
    copied: Tuple[str, ...] = ()
    noun = "trials"

    @property
    def out(self) -> Optional[str]:
        """The default report path (None: no hardened-pool flags)."""
        return f"BENCH_{self.bench}.json"

    @staticmethod
    def specs(**config) -> list:
        raise NotImplementedError

    @staticmethod
    def summarize(trials: List[dict]) -> dict:
        return {}

    def spec_fields(self) -> Dict[str, dataclasses.Field]:
        """The fields of the sweep's spec class, by name."""
        spec = getattr(importlib.import_module("repro.runner.spec"), self.spec)
        return {field.name: field for field in dataclasses.fields(spec)}

    def default(self, flag: Flag) -> Any:
        """A flag's default: its own, else the builder keyword's, else
        the spec field's."""
        if flag.default is not DERIVED:
            return flag.default
        keyword = inspect.signature(self.specs).parameters.get(flag.field)
        if keyword is not None and keyword.default is not keyword.empty:
            return keyword.default
        return self.spec_fields()[flag.field].default

    def config(self, args) -> dict:
        """The builder keywords the parsed options set."""
        return {
            flag.field: getattr(args, flag.dest)
            for flag in self.flags + self.tail
            if flag.field
        }

    def lines(self, config, summary, trials) -> Iterator[str]:
        """The printed summary, before the aggregate and tally lines."""
        return iter(())

    def project(self, trial: dict) -> dict:
        """One trial as the committed report records it."""
        return {key: trial[key] for key in self.copied}

    def report(self, specs, config, summary, trials) -> dict:
        from repro.runner.provenance import sweep_provenance

        # The version stamp and sweep hash let bench --compare
        # attribute a difference to a commit range.
        return {
            "bench": self.bench,
            "provenance": sweep_provenance(specs),
            "config": config,
            "summary": summary,
            "trials": [self.project(t) for t in trials],
        }

    def finish(self, args, config, summary) -> int:
        """The exit code, after the tally and before the report."""
        return 0

    def check(self, report: dict, problems: List[str]) -> None:
        """Self-check one committed report into ``problems``."""
        claimed, recorded = report["summary"]["trials"], report["trials"]
        if claimed != len(recorded):
            problems.append(
                f"summary says {claimed} trials but"
                f" {len(recorded)} are recorded"
            )
        # The compare mode's sweep-hash stop relies on this block.
        provenance = report.get("provenance")
        if provenance is None:
            problems.append(f"{self.bench} report lacks a provenance block")
        elif "sweep_hash" not in provenance:
            problems.append("provenance block lacks sweep_hash")
        self.invariants(report, problems)

    def invariants(self, report: dict, problems: List[str]) -> None:
        """The kind's own invariants."""


def write_report(path: str, payload: dict) -> None:
    """Write a JSON report, or fail with a clean CLI error.

    An unwritable ``--out`` (missing directory, permission, path through
    a regular file) must exit nonzero with one clear line, not a
    traceback — the runner may have just spent minutes simulating, and
    the user needs to know the results still live in the cache.
    """
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        raise RunnerError(
            f"cannot write report to {path!r}: {exc}"
            " (simulated results are preserved in the cache;"
            " rerun with a writable --out)"
        ) from None
    print(f"wrote {path}")


def check_admission(label: str, trial: dict, problems: List[str]) -> None:
    """Every offered arrival was either completed or shed."""
    if trial["completed"] + trial["shed"] != trial["offered"]:
        problems.append(
            f"{label}: completed {trial['completed']} + shed"
            f" {trial['shed']} != offered {trial['offered']}"
        )


def check_tail_order(label: str, tail: dict, problems: List[str]) -> None:
    if tail["count"] and not (
        tail["p50_ms"] <= tail["p99_ms"] <= tail["p999_ms"]
        <= tail["max_ms"] * 1.05  # bucketed p999 vs exact max
    ):
        problems.append(f"{label}: tail percentiles out of order")
