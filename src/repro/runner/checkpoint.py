"""Crash-tolerant run checkpoints.

A checkpoint is a :class:`~repro.runner.cache.RecordLog` at the user's
path, in the result cache's line format: one completed record per line,
stamped with the source fingerprint of the tree that simulated it and
fsynced, so a run killed mid-campaign loses at most the record being
written.  On resume, completed specs are served from the checkpoint and
only the rest are simulated; records are byte-identical to an
uninterrupted run's.  A torn or malformed line costs recomputation and
counts in ``corrupt_lines``; a line stamped by other source is a miss
(skipped, not counted), so after a code change its spec runs again.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.runner.cache import RecordLog, source_fingerprint


class RunCheckpoint(RecordLog):
    """Append-only record log for one (resumable) runner invocation.

    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "run.jsonl")
    >>> cp = RunCheckpoint(path)
    >>> cp.append({"spec_hash": "ab" * 32, "x": 1})
    >>> RunCheckpoint(path).get("ab" * 32)["x"]
    1
    """

    def __init__(self, path: Union[str, Path]):
        super().__init__(path, source_fingerprint(), fsync=True)

    def append(self, record: dict) -> None:
        """Persist one completed record (fsynced before returning)."""
        key = record.get("spec_hash")
        if not key:
            raise ValueError("checkpoint records need a spec_hash")
        self.put(key, record)
