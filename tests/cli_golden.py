"""Pinned ``--quick`` runs and options of the seven trial-sweep commands
(and their regenerator).

Each sweep command runs ``--quick --workers 1 --no-cache`` through
:func:`repro.cli.main` with the provenance version stamp fixed.  Its
stdout, with the wall-clock seconds and the ``--out`` path masked, is
stored under ``tests/data/cli/``, beside every sweep subparser's options
in order.  Its ``--out`` report must equal the committed root baseline
``BENCH_<kind>.json`` for the kinds in :data:`ROOT_BASELINES`, whose
``--quick`` run that baseline is, and a report stored beside the stdout
for the others.  A CLI refactor must leave all of them unchanged.

To regenerate after an *intentional* change (review the diff first):

    PYTHONPATH=src python -m tests.cli_golden
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from typing import List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = REPO_ROOT / "tests" / "data" / "cli"

#: The trial-sweep commands, in ``build_parser`` order.
SWEEPS = (
    "lifecycle",
    "campaign",
    "crash",
    "nemesis",
    "traffic",
    "failslow",
    "corruption",
)

#: Kinds whose ``--quick`` report is the committed ``BENCH_<kind>.json``.
ROOT_BASELINES = ("lifecycle", "campaign", "crash")

#: The provenance version stamp every pinned report carries.
PINNED_VERSION = "pinned"


def run_quick(kind: str) -> Tuple[str, str]:
    """``repro <kind> --quick``: its masked stdout and its report text."""
    from repro.cli import main

    saved = os.environ.get("REPRO_SOURCE_VERSION")
    os.environ["REPRO_SOURCE_VERSION"] = PINNED_VERSION
    try:
        with tempfile.TemporaryDirectory() as workdir:
            out = os.path.join(workdir, f"BENCH_{kind}.json")
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                code = main(
                    [kind, "--quick", "--workers", "1", "--no-cache",
                     "--out", out]
                )
            if code != 0:
                raise AssertionError(f"repro {kind} --quick exited {code}")
            report = Path(out).read_text(encoding="utf-8")
    finally:
        if saved is None:
            del os.environ["REPRO_SOURCE_VERSION"]
        else:
            os.environ["REPRO_SOURCE_VERSION"] = saved
    text = stdout.getvalue().replace(out, "<out>")
    return re.sub(r"workers, \d+\.\d+s\)", "workers, <s>)", text), report


def pinned_report(kind: str) -> str:
    """The report text ``repro <kind> --quick`` must write."""
    if kind not in ROOT_BASELINES:
        path = DATA_DIR / f"BENCH_{kind}_quick.json"
        return path.read_text(encoding="utf-8")
    path = REPO_ROOT / f"BENCH_{kind}.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    if "provenance" in report:
        report["provenance"]["source_version"] = PINNED_VERSION
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _type(convert) -> Optional[str]:
    """``int`` and ``float`` by name; any other converter by what it
    makes of ``"1,4"``, so renaming a helper is not a change."""
    if convert is None or convert in (int, float):
        return getattr(convert, "__name__", None)
    return f"'1,4' -> {convert('1,4')!r}"


def option_table(kind: str) -> List[dict]:
    """Every option of ``repro <kind>``, in ``--help`` order."""
    from repro.cli import build_parser

    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return [
        {
            "flags": list(action.option_strings),
            "dest": action.dest,
            "default": action.default,
            "type": _type(action.type),
            "choices": (
                None if action.choices is None else list(action.choices)
            ),
            "nargs": action.nargs,
            "action": type(action).__name__,
            "help": action.help,
            "metavar": action.metavar,
        }
        for action in subparsers.choices[kind]._actions
    ]


def options_json() -> str:
    tables = {kind: option_table(kind) for kind in SWEEPS}
    return json.dumps(tables, indent=1, sort_keys=True) + "\n"


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    moved = []
    for kind in SWEEPS:
        text, report = run_quick(kind)
        (DATA_DIR / f"{kind}_quick.txt").write_text(text, encoding="utf-8")
        if kind not in ROOT_BASELINES:
            (DATA_DIR / f"BENCH_{kind}_quick.json").write_text(
                report, encoding="utf-8"
            )
        elif report != pinned_report(kind):
            moved.append(f"BENCH_{kind}.json")
    (DATA_DIR / "options.json").write_text(options_json(), encoding="utf-8")
    written = 2 * len(SWEEPS) + 1 - len(ROOT_BASELINES)
    print(f"wrote {written} files to {DATA_DIR}")
    if moved:
        # A root baseline is rewritten by its own sweep command, not here.
        raise SystemExit(
            "--quick reports differ from " + ", ".join(moved)
        )


if __name__ == "__main__":
    main()
