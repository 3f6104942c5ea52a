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
from typing import Dict, Iterator, List, Optional, Tuple, Union

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


class RecordLog:
    """Append-only spec-hash -> record log stamped by one source tree.

    The index (key -> line offset and length) is built on first access
    from each line's prefix and extended by each put; a get reads one
    line.  Lines stamped by other source are skipped.  A torn or
    malformed line, or one whose record is not a dict carrying its key,
    counts in ``corrupt_lines`` and is a miss.
    """

    _fd: Optional[int] = None

    def __init__(
        self, path: Union[str, Path], stamp: str, fsync: bool = False
    ):
        self.path = Path(path)
        self.stamp = stamp
        self._fsync = fsync
        self._index: Optional[Dict[str, Tuple[int, int]]] = None
        self._corrupt = 0
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
                            self._corrupt += 1
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
            self._corrupt += 1
            return None
        return record

    def put(self, key: str, record: dict) -> None:
        """Append one line; a log left mid-line gets a newline first."""
        index = self._entries()
        line = f'["{key}","{self.stamp}",'.encode()
        line += json.dumps(record, sort_keys=True).encode() + b"]\n"
        if _PREFIX.match(line) is None:
            raise ValueError(f"keys and stamps are 64 hex digits: {key!r}")
        fd = self._handle()
        os.write(fd, b"\n" + line if self._torn else line)
        self._torn = False
        if self._fsync:
            os.fsync(fd)
        index[key] = (os.lseek(fd, 0, os.SEEK_CUR) - len(line), len(line))

    @property
    def corrupt_lines(self) -> int:
        self._entries()
        return self._corrupt

    def keys(self) -> List[str]:
        return list(self._entries())

    def __len__(self) -> int:
        return len(self._entries())

    def __contains__(self, key: str) -> bool:
        return key in self._entries()

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    __del__ = close


class ResultCache(RecordLog):
    """Spec-hash -> result-record store for this source tree.

    >>> import tempfile
    >>> cache = ResultCache(tempfile.mkdtemp())
    >>> cache.get("ab" * 32) is None
    True
    >>> cache.put("ab" * 32, {"spec_hash": "ab" * 32, "x": 1})
    >>> cache.get("ab" * 32)["x"]
    1
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        stamp = source_fingerprint()
        super().__init__(self.root / f"{stamp}.jsonl", stamp)

    quarantined = RecordLog.corrupt_lines

    def iter_keys(self) -> Iterator[str]:
        return iter(sorted(self._entries()))

    def clear(self) -> int:
        """Delete this tree's log; returns how many records it held."""
        removed = len(self)
        self.close()
        self.path.unlink(missing_ok=True)
        self._index, self._torn = {}, False
        return removed
