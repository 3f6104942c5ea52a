"""On-disk result cache keyed by source fingerprint and spec content hash.

Layout: one append-only JSON-lines log per source tree,
``<root>/<fingerprint>.jsonl``, where the fingerprint
(:func:`source_fingerprint`) hashes the simulator's own source: a record
is only served to the tree that simulated it.  Each line is the valid
JSON ``["<spec_hash>","<fingerprint>",<record>]`` with a fixed-width
prefix, so indexing a log reads no record.  A put is one ``write`` of
the whole line on an ``O_APPEND`` descriptor, so appends from concurrent
processes on a local filesystem never interleave.  A torn, unparsable
or mismatched line is a miss, counted and left in place; the recomputed
record is appended and the last line for a key wins — corruption can
cost time, never correctness.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

#: ``["<spec_hash>","<fingerprint>",`` — the fixed-width line prefix.
_PREFIX = re.compile(rb'\["([0-9a-f]{64})","([0-9a-f]{64})",')


@functools.cache
def source_fingerprint() -> str:
    """SHA-256 over the relative path and bytes of every ``.py`` file of
    the imported ``repro`` package, computed once per process."""
    package = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        data = path.read_bytes()
        name = path.relative_to(package).as_posix()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


class ResultCache:
    """Spec-hash -> result-record store for this source tree.

    The index (key -> line offset and length) is built on first access
    from each line's prefix and extended by each put; a get reads one
    line.  Lines stamped by other source are skipped.  A torn or
    malformed line, or one whose record is not a dict carrying its key,
    counts in ``quarantined`` and is a miss.

    >>> import tempfile
    >>> cache = ResultCache(tempfile.mkdtemp())
    >>> cache.get("ab" * 32) is None
    True
    >>> cache.put("ab" * 32, {"spec_hash": "ab" * 32, "x": 1})
    >>> cache.get("ab" * 32)["x"]
    1
    """

    _fd: Optional[int] = None

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.stamp = source_fingerprint()
        self.path = self.root / f"{self.stamp}.jsonl"
        self._index: Optional[Dict[str, Tuple[int, int]]] = None
        self._quarantined = 0
        self._torn = False  # the log ends mid-line (a killed writer)

    def _entries(self) -> Dict[str, Tuple[int, int]]:
        if self._index is None:
            self._index = {}
            stamp = self.stamp.encode()
            offset = 0
            try:
                with open(self.path, "rb") as handle:
                    for line in handle:
                        match = _PREFIX.match(line)
                        if match is None or not line.endswith(b"]\n"):
                            self._quarantined += 1
                        elif match[2] == stamp:
                            key = match[1].decode()
                            self._index[key] = (offset, len(line))
                        offset += len(line)
                        self._torn = not line.endswith(b"\n")
            except FileNotFoundError:
                pass
        return self._index

    def _handle(self) -> int:
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            flags = os.O_RDWR | os.O_APPEND | os.O_CREAT
            self._fd = os.open(self.path, flags, 0o666)
        return self._fd

    def get(self, key: str) -> Optional[dict]:
        """The record last put under ``key``, or None (absent or corrupt)."""
        where = self._entries().get(key)
        if where is None:
            return None
        try:
            line = json.loads(os.pread(self._handle(), where[1], where[0]))
            record = line[2]
            if line[:2] != [key, self.stamp] or record["spec_hash"] != key:
                raise ValueError("log line filed under another key")
        except (OSError, ValueError, TypeError, LookupError):
            del self._index[key]  # left in place; the next put supersedes it
            self._quarantined += 1
            return None
        return record

    def put(self, key: str, record: dict) -> None:
        """Append one line; a log left mid-line gets a newline first.

        One ``write`` and no fsync: a killed process loses nothing the
        kernel took, and a tail an OS crash loses or tears is a miss
        that is simulated again bit for bit.
        """
        index = self._entries()
        line = f'["{key}","{self.stamp}",'.encode()
        line += json.dumps(record, sort_keys=True).encode() + b"]\n"
        if _PREFIX.match(line) is None:
            raise ValueError(f"keys are 64 hex digits: {key!r}")
        fd = self._handle()
        os.write(fd, b"\n" + line if self._torn else line)
        self._torn = False
        index[key] = (os.lseek(fd, 0, os.SEEK_CUR) - len(line), len(line))

    @property
    def quarantined(self) -> int:
        """Damaged lines seen so far (each one a miss, left in place)."""
        self._entries()
        return self._quarantined

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    __del__ = close
