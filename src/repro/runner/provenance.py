"""Report provenance: which source produced which sweep.

Committed ``BENCH_*.json`` baselines are compared across commits by
``repro bench --compare``; a difference is only actionable if the
report says *what* produced it.  Each report header carries:

``source_version``
    ``git describe --always --dirty`` of the working tree (or the
    ``REPRO_SOURCE_VERSION`` environment override for builds exported
    from a tarball), so a regression localizes to a commit range.
``sweep_hash``
    SHA-256 over the sorted content hashes of every spec in the sweep —
    two reports with equal sweep hashes simulated the *same points*
    under the same spec schema, so their simulated quantities are
    directly comparable.

Everything except ``source_version`` is a pure function of the specs;
comparisons that must be repo-state independent (CI byte-equality of a
fresh run against a committed baseline) ignore that one key.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
from typing import List, Optional

from repro.runner.spec import SPEC_SCHEMA_VERSION, Spec, spec_hash

#: Environment override for builds without a git checkout.
SOURCE_VERSION_ENV = "REPRO_SOURCE_VERSION"


def source_version(repo_dir: Optional[str] = None) -> str:
    """The version string stamped into report headers.

    Precedence: ``REPRO_SOURCE_VERSION`` env var, then ``git describe
    --always --dirty`` run from the package directory (not the CWD, so
    reports generated from another working directory still attribute to
    this checkout), then ``"unknown"``.
    """
    override = os.environ.get(SOURCE_VERSION_ENV)
    if override:
        return override
    if repo_dir is None:
        repo_dir = os.path.dirname(os.path.abspath(__file__))
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=repo_dir,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if described.returncode != 0:
        return "unknown"
    return described.stdout.strip() or "unknown"


def sweep_hash(specs: List[Spec]) -> str:
    """Order-independent content hash of a whole sweep."""
    digest = hashlib.sha256()
    for h in sorted(spec_hash(spec) for spec in specs):
        digest.update(h.encode("ascii"))
    return digest.hexdigest()


def sweep_provenance(specs: List[Spec]) -> dict:
    """The ``provenance`` block written into ``BENCH_*.json`` reports."""
    return {
        "source_version": source_version(),
        "spec_schema": SPEC_SCHEMA_VERSION,
        "spec_count": len(specs),
        "sweep_hash": sweep_hash(specs),
    }
