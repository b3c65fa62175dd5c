"""Content-addressed on-disk result cache for experiment cells.

A cell's result is addressed by the stable hash of (function qualname,
config, seed, code salt) — see :meth:`repro.exp.cell.Cell.key` — so an
unchanged cell is free on re-run and any change to its inputs or to the
code version misses cleanly.  Entries are plain pickles laid out as::

    <root>/<salt>/<key[:2]>/<key>.pkl

``<root>`` defaults to ``~/.cache/repro-ssd`` and is overridden by the
``REPRO_CACHE_DIR`` environment variable.  Keeping the salt in the path
(not just the key) lets ``clear()`` drop a whole code generation at
once and keeps directory listings debuggable.

Corrupted entries (truncated writes, foreign junk) are discarded and
recomputed, never fatal: reads trap every unpickling failure, and
writes go through a temp file + ``os.replace`` so a crashed run cannot
leave a half-written entry under its final name.  Each entry embeds the
salt that wrote it, so an entry produced by a different code generation
(or dropped into the wrong directory by hand) is detected and treated
as a miss — with a single warning line for the whole run, not a stack
trace per entry.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


def source_salt(root: Path) -> str:
    """SHA-256 over the relative path and bytes of every ``*.py`` under
    *root*, in sorted path order."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0"
                      .encode())
        digest.update(data)
    return digest.hexdigest()


@functools.cache
def code_salt() -> str:
    """The code-version salt mixed into every cell key: the
    :func:`source_salt` of the ``repro`` package, so any edit to its
    source misses every entry the old source wrote.  Hashed on first
    use, at most once per process."""
    return source_salt(Path(__file__).resolve().parents[1])


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-ssd``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-ssd"


@dataclass
class CacheStats:
    """Counters the CLI surfaces as cache-stats."""

    hits: int = 0
    misses: int = 0
    stored: int = 0
    discarded: int = 0

    def describe(self) -> str:
        text = f"{self.hits} hits, {self.misses} misses, {self.stored} stored"
        if self.discarded:
            text += f", {self.discarded} corrupt discarded"
        return text


class ResultCache:
    """Pickle store keyed by content address.

    ``get`` returns ``(hit, value)`` rather than a sentinel so cells may
    legitimately cache ``None``.
    """

    def __init__(self, root: str | Path | None = None,
                 salt: str | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.salt = code_salt() if salt is None else salt
        self.stats = CacheStats()
        self._warned = False

    def path_for(self, key: str) -> Path:
        return self.root / self.salt / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> tuple[bool, Any]:
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            return False, None
        except Exception:
            # Truncated, corrupted, or unpicklable entry: drop it and
            # let the runner recompute.
            return self._discard(path, "unreadable (truncated or corrupt)")
        if (not isinstance(entry, dict) or "value" not in entry
                or entry.get("salt") != self.salt):
            # A pre-wrapper pickle, foreign junk, or an entry written by
            # a different code generation: stale by definition.
            return self._discard(path, "written by a different code version")
        self.stats.hits += 1
        return True, entry["value"]

    def _discard(self, path: Path, why: str) -> tuple[bool, Any]:
        """Drop a bad entry, warn once per cache instance, report miss."""
        self.stats.discarded += 1
        self.stats.misses += 1
        if not self._warned:
            self._warned = True
            print(f"repro.exp: discarding cache entry {path.name}: {why} "
                  f"(recomputing; further discards silent)", file=sys.stderr)
        try:
            path.unlink()
        except OSError:
            pass
        return False, None

    def put(self, key: str, value: Any) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump({"salt": self.salt, "value": value}, fh,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stored += 1

    def clear(self) -> int:
        """Delete every entry under this cache's salt; returns count."""
        base = self.root / self.salt
        removed = 0
        if not base.exists():
            return 0
        for entry in sorted(base.rglob("*.pkl")):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed
