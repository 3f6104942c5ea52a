"""Crash-tolerant run checkpoints.

A checkpoint is an append-only JSONL file: one completed result record
per line, keyed by the record's ``spec_hash``.  Each line stamps the
record with the :func:`~repro.runner.cache.source_fingerprint` of the
tree that simulated it, beside the record (``{"source": ..., "record":
...}``), so the record itself is unchanged.  Appends are flushed and
fsynced, so a run killed mid-campaign loses at most the record being
written; on resume, completed specs are served from the checkpoint and
only the remainder is simulated.  Records are byte-identical to what an
uninterrupted run produces (the runner's determinism contract), so a
kill/resume cycle changes nothing about the output.

Loading is tolerant: a truncated final line (the kill landed mid-write)
or any other unparsable line is skipped and counted, never raised —
a damaged checkpoint costs recomputation, not correctness.  A line
stamped by other source is a miss too (skipped, not counted): after a
code change its record is simulated again, as the result cache does.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.runner.cache import source_fingerprint


class RunCheckpoint:
    """Append-only record log for one (resumable) runner invocation.

    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "run.jsonl")
    >>> cp = RunCheckpoint(path)
    >>> cp.append({"spec_hash": "ab" * 32, "x": 1})
    >>> RunCheckpoint(path).get("ab" * 32)["x"]
    1
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.corrupt_lines = 0
        self._records: Dict[str, dict] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        source = source_fingerprint()
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    stamp = entry["source"]
                    record = entry["record"]
                    key = record["spec_hash"]
                except (ValueError, TypeError, KeyError):
                    self.corrupt_lines += 1
                    continue
                if stamp == source:
                    self._records[key] = record

    def get(self, key: str) -> Optional[dict]:
        return self._records.get(key)

    def append(self, record: dict) -> None:
        """Persist one completed record (flush + fsync before returning)."""
        key = record.get("spec_hash")
        if not key:
            raise ValueError("checkpoint records need a spec_hash")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"source": source_fingerprint(), "record": record}
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True))
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._records[key] = record

    def keys(self) -> List[str]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records
