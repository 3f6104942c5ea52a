"""On-disk result cache keyed by source fingerprint and spec content hash.

Layout: ``<root>/<fingerprint>/<hh>/<hash>.json``.  ``fingerprint`` is
:func:`source_fingerprint`, a content hash of the simulator's own
source, so a record is only ever served to the source tree that
simulated it: after any code change the old entries are misses, and the
records the new code writes sit beside them.  ``hh`` is the first two
hex digits of the spec hash (fan-out keeps directories small).  Each file is
one result record, written atomically (temp file + rename) so a killed
run never leaves a half-written entry under the final name.  Reads are
defensive: unparsable, truncated, or mismatched files count as misses
and are recomputed — corruption can cost time, never correctness.  A
corrupt file is *quarantined* (renamed to ``<hash>.corrupt``) so the
recomputed record can land cleanly and the bad bytes stay inspectable.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Iterator, Optional, Union


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
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    @property
    def entries(self) -> Path:
        """This source tree's part of the cache: ``<root>/<fingerprint>``."""
        return self.root / source_fingerprint()

    def path_for(self, key: str) -> Path:
        return self.entries / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The cached record, or None on miss *or any corruption*.

        A missing file is a clean miss; an existing-but-corrupt file
        (truncated write from a killed process, bit rot, hash mismatch)
        is quarantined aside so the recompute can overwrite cleanly.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
            if not isinstance(record, dict):
                raise ValueError("cache entry is not a record")
            if record.get("spec_hash") != key:
                raise ValueError("cache entry hash mismatch")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return record

    def _quarantine(self, path: Path) -> None:
        try:
            path.replace(path.with_suffix(".corrupt"))
            self.quarantined += 1
        except OSError:
            pass  # unreadable *and* unmovable: the put() will overwrite

    def put(self, key: str, record: dict) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(record, handle, sort_keys=True)
        os.replace(tmp, path)

    def iter_keys(self) -> Iterator[str]:
        entries = self.entries
        if not entries.exists():
            return
        for entry in sorted(entries.glob("*/*.json")):
            yield entry.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_keys())

    def clear(self) -> int:
        """Delete every entry of this source tree; returns how many were
        removed."""
        removed = 0
        for key in list(self.iter_keys()):
            self.path_for(key).unlink()
            removed += 1
        return removed
